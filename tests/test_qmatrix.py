import numpy as np
import pytest

from relqi import qmatrix as qm
import helpers

RNG = np.random.default_rng(7031)

BELL = np.zeros((4, 4), dtype=complex)
_phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
BELL = np.outer(_phi, _phi)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)


def partial_trace_oracle(rho, dims, side):
    """Element-by-element index summation, independent of the library path."""
    d_a, d_b = dims
    r = rho.reshape(d_a, d_b, d_a, d_b)
    if side == "left":
        out = np.zeros((d_b, d_b), dtype=complex)
        for mu in range(d_b):
            for nu in range(d_b):
                out[mu, nu] = sum(r[m, mu, m, nu] for m in range(d_a))
        return out
    out = np.zeros((d_a, d_a), dtype=complex)
    for mu in range(d_a):
        for nu in range(d_a):
            out[mu, nu] = sum(r[mu, m, nu, m] for m in range(d_b))
    return out


def test_partial_trace_product_state():
    rho_a = helpers.random_density(RNG)
    rho_b = helpers.random_density(RNG)
    np.testing.assert_allclose(
        qm.partial_trace(np.kron(rho_a, rho_b), (2, 2), side="left"), rho_b, atol=1e-12
    )
    np.testing.assert_allclose(
        qm.partial_trace(np.kron(rho_a, rho_b), (2, 2), side="right"), rho_a, atol=1e-12
    )


def test_partial_trace_bell_state():
    for side in ("left", "right"):
        np.testing.assert_allclose(
            qm.partial_trace(BELL, (2, 2), side=side), np.eye(2) / 2, atol=1e-12
        )


def test_partial_trace_index_sum_oracle():
    for _ in range(20):
        rho = helpers.random_density(RNG, 4)
        for side in ("left", "right"):
            np.testing.assert_allclose(
                qm.partial_trace(rho, (2, 2), side=side),
                partial_trace_oracle(rho, (2, 2), side),
                atol=1e-12,
            )


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="factorize"):
        qm.partial_trace(np.eye(3), (2, 2))


def test_entropy_pure_state():
    assert qm.entropy(KET0) == pytest.approx(0.0, abs=1e-12)
    assert qm.entropy(BELL) == pytest.approx(0.0, abs=1e-12)


def test_entropy_maximally_mixed():
    assert qm.entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_entropy_hand_value():
    # -0.9 log2 0.9 - 0.1 log2 0.1
    assert qm.entropy(np.diag([0.9, 0.1])) == pytest.approx(0.4690, abs=1e-4)


def test_entropy_unitary_invariance():
    for _ in range(20):
        rho = helpers.random_density(RNG, 3)
        q, _ = np.linalg.qr(RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)))
        assert abs(qm.entropy(q @ rho @ q.conj().T) - qm.entropy(rho)) < 1e-10


def test_entropy_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        qm.entropy(np.diag([1.1, -0.1]))


def test_helstrom_identical_states():
    rho = helpers.random_density(RNG)
    assert qm.helstrom_error(rho, rho) == pytest.approx(0.5, abs=1e-12)


def test_helstrom_orthogonal_pure():
    assert qm.helstrom_error(KET0, KET1) == pytest.approx(0.0, abs=1e-12)


def test_helstrom_hand_value():
    assert qm.helstrom_error(KET0, PLUS) == pytest.approx(0.5 - np.sqrt(2) / 4, abs=1e-10)


def test_helstrom_symmetry_and_invariance():
    for _ in range(20):
        r1 = helpers.random_density(RNG)
        r2 = helpers.random_density(RNG)
        assert qm.helstrom_error(r1, r2) == pytest.approx(qm.helstrom_error(r2, r1), abs=1e-10)
        q, _ = np.linalg.qr(RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
        rotated = qm.helstrom_error(q @ r1 @ q.conj().T, q @ r2 @ q.conj().T)
        assert rotated == pytest.approx(qm.helstrom_error(r1, r2), abs=1e-10)


def test_apply_channel_identity():
    rho = helpers.random_density(RNG)
    np.testing.assert_allclose(helpers.identity_channel().apply(rho), rho, atol=1e-14)


def test_kraus_vs_superoperator_forms():
    for _ in range(20):
        ch = helpers.random_cptp_channel(RNG)
        dual = qm.QubitChannel(superop=ch.superoperator())
        rho = helpers.random_density(RNG)
        np.testing.assert_allclose(ch.apply(rho), dual.apply(rho), atol=1e-12)


def test_channel_takes_exactly_one_well_shaped_form():
    # A channel given both forms used to report the Kraus form as CP while
    # its superoperator was the transpose map.
    with pytest.raises(ValueError, match="exactly one"):
        qm.QubitChannel(kraus=[np.eye(2)], superop=helpers.transpose_map().superoperator())
    with pytest.raises(ValueError, match="exactly one"):
        qm.QubitChannel()
    with pytest.raises(ValueError, match="d\\^2"):
        qm.QubitChannel(superop=np.eye(5))


def test_choi_matrix_is_the_channel_on_matrix_units():
    basis = np.eye(3)
    for _ in range(5):
        kraus = [RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)) for _ in range(3)]
        ch = qm.QubitChannel(kraus=kraus)
        oracle = np.block([[sum(k @ np.outer(basis[i], basis[j]) @ k.conj().T for k in kraus)
                            for j in range(3)] for i in range(3)])
        choi = qm.choi_matrix(ch)
        np.testing.assert_allclose(choi, oracle, rtol=0.0, atol=1e-14)
        assert not choi.flags.writeable
        dual = qm.QubitChannel(superop=ch.superoperator())
        np.testing.assert_array_equal(qm.choi_matrix(dual), choi)
        np.testing.assert_array_equal(dual.superoperator(), ch.superoperator())


def test_kraus_operators_are_the_ones_given():
    # the second weight, 1e-12, is below the cut of kraus_from_choi
    kraus = [np.sqrt(1.0 - 1e-12) * np.eye(2), 1e-6 * qm.SIGMA_X]
    ops = qm.QubitChannel(kraus=kraus).kraus_operators()
    assert len(ops) == 2
    for op, k in zip(ops, kraus):
        np.testing.assert_array_equal(op, k)
    derived = qm.QubitChannel(superop=helpers.depolarizing_channel(0.3).superoperator())
    np.testing.assert_allclose(sum(k.conj().T @ k for k in derived.kraus_operators()),
                               np.eye(2), atol=1e-12)


def test_choi_identity_channel():
    choi = qm.choi_matrix(helpers.identity_channel())
    np.testing.assert_allclose(choi, 2.0 * BELL, atol=1e-12)
    eigs = np.linalg.eigvalsh(choi)
    assert np.sum(eigs > 1e-10) == 1  # rank one


def test_choi_transpose_map_swap_spectrum():
    choi = qm.choi_matrix(helpers.transpose_map())
    eigs = np.sort(np.linalg.eigvalsh(choi))
    np.testing.assert_allclose(eigs, [-1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_is_completely_positive():
    ok, min_eig = qm.is_completely_positive(helpers.identity_channel())
    assert ok and min_eig == pytest.approx(0.0, abs=1e-12)
    ok, min_eig = qm.is_completely_positive(helpers.transpose_map())
    assert not ok and min_eig == pytest.approx(-1.0, abs=1e-12)
    ok, _ = qm.is_completely_positive(helpers.depolarizing_channel(0.1))
    assert ok


def test_trace_preservation_checks():
    assert helpers.identity_channel().is_trace_preserving()
    assert helpers.depolarizing_channel(0.3).is_trace_preserving()
    assert helpers.transpose_map().is_trace_preserving()
    broken = qm.QubitChannel(kraus=[0.9 * np.eye(2)])
    assert not broken.is_trace_preserving()


def test_choi_kraus_round_trip():
    for _ in range(10):
        ch = helpers.random_cptp_channel(RNG, n_kraus=RNG.integers(1, 5))
        choi = qm.choi_matrix(ch)
        rebuilt = qm.QubitChannel(kraus=qm.kraus_from_choi(choi))
        np.testing.assert_allclose(qm.choi_matrix(rebuilt), choi, atol=1e-10)


def test_kraus_from_negative_choi_rejected():
    with pytest.raises(ValueError, match="not positive"):
        qm.kraus_from_choi(qm.choi_matrix(helpers.transpose_map()))


def test_cp_monotonicity_of_helstrom_error():
    # distinguishability can never improve under a CPTP map
    for _ in range(200):
        ch = helpers.random_cptp_channel(RNG, n_kraus=int(RNG.integers(1, 5)))
        r1 = helpers.random_density(RNG)
        r2 = helpers.random_density(RNG)
        before = qm.helstrom_error(r1, r2)
        after = qm.helstrom_error(ch.apply(r1), ch.apply(r2))
        assert after >= before - 1e-9


def test_check_density_matrix():
    helpers.check_density_matrix(np.eye(2) / 2)
    helpers.check_density_matrix(0.5 * KET0, subnormalized=True)
    with pytest.raises(ValueError, match="trace"):
        helpers.check_density_matrix(2.0 * KET0)
    with pytest.raises(ValueError, match="Hermitian"):
        helpers.check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="negative"):
        helpers.check_density_matrix(np.diag([1.5, -0.5]))
