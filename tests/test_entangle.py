import tracemalloc

import numpy as np
import pytest

from relqi import cli
from relqi import entangle as en
from relqi import geometry as geo
from relqi import qmatrix as qm
from relqi import spin_half
from relqi import wavepacket as wp
import helpers

RNG = np.random.default_rng(1337)

SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
SINGLET_PROJ = np.outer(SINGLET_VEC, SINGLET_VEC)

# converged references (14 nodes per axis), delta/m = 0.5, boost along z
WIDE_CONCURRENCE = {0.3: 0.995657620498, 0.6: 0.979630704677, 0.9: 0.929088525664}


def concurrence_sv_oracle(rho):
    """Wootters concurrence from the singular values of sqrt(rho) YY sqrt(rho)^*.

    Unlike the eigenvalues of rho rho~, these keep absolute accuracy near
    a pure state.
    """
    mu, vecs = np.linalg.eigh(qm.hermitize(rho))
    root = (vecs * np.sqrt(np.clip(mu, 0.0, None))) @ vecs.conj().T
    yy = np.kron(helpers.SIGMA_Y, helpers.SIGMA_Y)
    lam = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def spin_spin_oracle(state):
    """Double sum over node pairs, element by element."""
    out = np.zeros((4, 4), dtype=complex)
    g = state.g.reshape(state.grid.n, state.grid.n, 4)
    for i, wi in enumerate(state.grid.weights):
        for j, wj in enumerate(state.grid.weights):
            out += wi * wj * np.outer(g[i, j], g[i, j].conj())
    return out


def state_norm(state):
    """Norm of a pair amplitude, summed node pair by node pair."""
    total = 0.0
    for i, wi in enumerate(state.grid.weights):
        for j, wj in enumerate(state.grid.weights):
            total += wi * wj * np.sum(np.abs(state.g[i, j]) ** 2)
    return float(np.sqrt(total))


def test_bell_gaussian_rest_frame():
    state = en.bell_gaussian(0.5, 1.0, 6)
    assert state_norm(state) == pytest.approx(1.0, abs=1e-8)
    rho = en.spin_spin_density(state)
    np.testing.assert_allclose(rho, SINGLET_PROJ, atol=1e-8)
    assert en.concurrence(rho) == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(helpers.single_spin_density(state), np.eye(2) / 2, atol=1e-8)


def test_identity_boost_is_noop():
    state = en.bell_gaussian(0.4, 1.0, 4)
    out = en.boost_pair(np.eye(4), state)
    np.testing.assert_allclose(out.g, state.g, atol=1e-12)


def test_product_state_reduces_to_projector():
    state = en.bell_gaussian(0.4, 1.0, 4)
    up = np.zeros((2, 2), dtype=complex)
    up[0, 0] = 1.0
    profile = np.abs(state.g[:, :, 0, 1]) * np.sqrt(2.0)
    g = profile[:, :, None, None] * up[None, None, :, :]
    product = en.TwoParticleAmplitude(grid=state.grid, g=g)
    rho = en.spin_spin_density(product)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(rho, expected, atol=1e-10)
    assert en.concurrence(rho) == pytest.approx(0.0, abs=1e-8)


def test_spin_spin_density_double_sum_oracle():
    state = en.bell_gaussian(0.5, 1.0, 4)
    boosted = en.boost_pair(geo.boost_from_velocity([0.0, 0.0, 0.7]), state)
    np.testing.assert_allclose(
        en.spin_spin_density(boosted), spin_spin_oracle(boosted), atol=1e-12
    )


def test_sharp_singlet_keeps_entanglement():
    state = en.bell_gaussian(1e-4, 1.0, 8)
    boosted = en.boost_pair(geo.boost_from_velocity([0.0, 0.0, 0.9]), state)
    assert en.concurrence(en.spin_spin_density(boosted)) == pytest.approx(1.0, abs=1e-4)


def test_wide_singlet_concurrence_decreases():
    state = en.bell_gaussian(0.5, 1.0, 8)
    values = []
    for beta in (0.3, 0.6, 0.9):
        boosted = en.boost_pair(geo.boost_from_velocity([0.0, 0.0, beta]), state)
        c = en.concurrence(en.spin_spin_density(boosted))
        assert c == pytest.approx(WIDE_CONCURRENCE[beta], abs=2e-5)
        values.append(c)
    assert values[0] > values[1] > values[2]
    assert values[2] < 1.0


def test_inverse_boost_restores_entanglement():
    state = en.bell_gaussian(0.5, 1.0, 6)
    lam = geo.boost_from_velocity([0.2, -0.1, 0.85])
    round_trip = en.boost_pair(geo.lorentz_inverse(lam), en.boost_pair(lam, state))
    assert en.concurrence(en.spin_spin_density(round_trip)) == pytest.approx(1.0, abs=1e-8)


def test_boost_norm_conservation():
    state = en.bell_gaussian(0.5, 1.0, 5)
    for _ in range(5):
        direction = RNG.normal(size=3)
        direction /= np.linalg.norm(direction)
        lam = geo.boost_from_velocity(RNG.uniform(0.1, 0.9) * direction)
        assert abs(state_norm(en.boost_pair(lam, state)) - 1.0) < 1e-8


def test_concurrence_closed_forms():
    assert en.concurrence(SINGLET_PROJ) == pytest.approx(1.0, abs=1e-12)
    product = np.kron(np.diag([1.0, 0.0]), np.diag([0.4, 0.6]))
    assert en.concurrence(product) == pytest.approx(0.0, abs=1e-12)
    werner = 0.5 * SINGLET_PROJ + 0.5 * np.eye(4) / 4
    assert en.concurrence(werner) == pytest.approx(0.25, abs=1e-12)
    separable_werner = (1.0 / 3.0) * SINGLET_PROJ + (2.0 / 3.0) * np.eye(4) / 4
    assert en.concurrence(separable_werner) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_local_unitary_invariance():
    state = en.bell_gaussian(0.5, 1.0, 5)
    boosted = en.boost_pair(geo.boost_from_velocity([0.0, 0.0, 0.8]), state)
    base = en.concurrence(en.spin_spin_density(boosted))
    v = geo.rotations_to_su2(helpers.rotation_about(RNG.normal(size=3), 0.9))
    g = np.einsum("ab,nmbd->nmad", v, boosted.g)
    rotated = en.TwoParticleAmplitude(grid=boosted.grid, g=g)
    assert en.concurrence(en.spin_spin_density(rotated)) == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("delta_over_m", [0.5, 1e-4])
@pytest.mark.parametrize("velocity", [[0.0, 0.0, 0.8], [0.3, -0.4, 0.6]])
def test_boosted_singlet_matches_boost_pair(n, delta_over_m, velocity):
    # the boosted singlet from the moments (D, s) of one particle: T = I + D, the state
    # (I - sum_kl (T T^T)_kl sigma_k (x) sigma_l)/4 and the concurrence
    # max(0, 1 - 4 s + |D|_F^2 / 2), which for a z boost, T = diag(1 - s, 1 - s, 1 - 2s),
    # is the max(0, (1 - s)(1 - 3s)) that entangle.sweep_values prints
    tau, lam = helpers.boost(velocity)
    d, s = spin_half.wigner_moments(tau, delta_over_m, n, wp.Measure.INVARIANT)
    tt = (np.eye(3) + d) @ (np.eye(3) + d).T
    paulis = (helpers.SIGMA_X, helpers.SIGMA_Y, helpers.SIGMA_Z)
    rho = 0.25 * (np.eye(4) - sum(tt[k, l] * np.kron(paulis[k], paulis[l])
                                  for k in range(3) for l in range(3)))
    conc = max(0.0, 1.0 - 4.0 * s + 0.5 * float(np.sum(d * d)))
    rho_pair = en.spin_spin_density(en.boost_pair(lam, en.bell_gaussian(delta_over_m, 1.0, n)))
    np.testing.assert_allclose(rho, rho_pair, atol=1e-12)
    assert conc == pytest.approx(concurrence_sv_oracle(rho_pair), abs=1e-10)
    assert conc == pytest.approx(en.concurrence(rho_pair), abs=1e-10)
    if velocity[:2] == [0.0, 0.0]:  # the row's tau differs from this one in its last bit
        row_tau = (0.0, 0.0, spin_half.tanh_half_rapidity(velocity[2]))
        _, s_row = spin_half.wigner_moments(row_tau, delta_over_m, n, wp.Measure.INVARIANT)
        row_conc = max(0.0, (1.0 - s_row) * (1.0 - 3.0 * s_row))
        assert row_conc == pytest.approx(conc, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("delta_over_m", [1e-4, 0.5])
def test_row_near_speed_1_matches_decimal_node_sum(delta_over_m):
    # beta = 0.9999999999999 (1 - beta^2 ~ 2e-13, beyond a float boost matrix):
    # the row's tau = (0, 0, tanh(xi/2)) gives, from the s of the 3-D kernel, the
    # concurrence of the same INVARIANT rule with every quaternion from the
    # 40-digit oracle
    tau = (0.0, 0.0, spin_half.tanh_half_rapidity(0.9999999999999))
    d, s = helpers.decimal_moments(tau, delta_over_m, 8, wp.Measure.INVARIANT)
    expected = 1.0 - 4.0 * s + 0.5 * float(np.sum(d * d))
    _, s_kernel = spin_half.wigner_moments(tau, delta_over_m, 8, wp.Measure.INVARIANT)
    concurrence = max(0.0, (1.0 - s_kernel) * (1.0 - 3.0 * s_kernel))
    assert concurrence == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_sweep_row_memory_bounded():
    args = helpers.row_args(16)
    tracemalloc.start()
    try:
        row = cli._sweep_row(args, "entangle-sweep", {"delta_over_m": 0.5, "beta": 0.9})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(row["concurrence"])
    assert peak < 100e6


def test_first_sweep_row_memory_is_bounded():
    # the n = 16 row and its n = 32 pass stream their folded INVARIANT rules
    # from the 1-D rules in kernel blocks (3.8 MB when the first row built,
    # cached and folded both grids)
    args = helpers.row_args(16)
    wp._gauss_outcome.cache_clear()
    tracemalloc.start()
    try:
        row = cli._sweep_row(args, "entangle-sweep", {"delta_over_m": 0.5, "beta": 0.9})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(row["concurrence"])
    assert peak < 4e6


def test_sweep_row_scratch_is_bounded_once_the_grid_is_cached():
    # As for the spin rows, on the INVARIANT rule: a second row's peak is one
    # kernel block (about 1 MB; 17 MB when the kernel held every folded node).
    args = helpers.row_args(40)
    cli._sweep_row(args, "entangle-sweep", {"delta_over_m": 0.5, "beta": 0.6})
    tracemalloc.start()
    try:
        row = cli._sweep_row(args, "entangle-sweep", {"delta_over_m": 0.5, "beta": 0.9})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(row["concurrence"])
    assert peak < 4e6


def test_sweep_rows():
    rows = {(dm, beta): en.sweep_values(dm, beta, 6)
            for dm in (1e-4, 0.5) for beta in (0.0, 0.5, 0.9)}
    assert len(rows) == 6
    for (dm, beta), row in rows.items():
        if beta == 0.0:
            assert row["concurrence"] == pytest.approx(1.0, abs=1e-8)
        if dm == 1e-4:
            assert row["concurrence"] == pytest.approx(1.0, abs=1e-4)
        assert row["entropy_of_marginal_bits"] == 1.0
    wide = [row["concurrence"] for (dm, _), row in rows.items() if dm == 0.5]
    assert wide[0] > wide[1] > wide[2]


def test_sweep_row_reads_only_s_of_the_moments(monkeypatch):
    # the concurrence is a closed form of s alone: a NaN D leaves every bit of the row
    want = [en.sweep_values(dm, beta, 6) for dm in (1e-4, 0.5) for beta in (0.3, 0.9)]
    moments = spin_half.wigner_moments

    def nan_d(*args, **kwargs):
        d, s = moments(*args, **kwargs)
        return np.full_like(d, np.nan), s

    monkeypatch.setattr(spin_half, "wigner_moments", nan_d)
    assert [en.sweep_values(dm, beta, 6) for dm in (1e-4, 0.5) for beta in (0.3, 0.9)] == want


def test_sweep_monotone_in_beta():
    rows = [en.sweep_values(0.5, beta, 6) for beta in np.linspace(0.0, 0.9, 4)]
    conc = [r["concurrence"] for r in rows]
    assert all(c1 >= c2 - 1e-6 for c1, c2 in zip(conc, conc[1:]))


def test_sweep_convergence_flag():
    row = cli._sweep_row(helpers.row_args(6, 1e-3), "entangle-sweep",
                         {"delta_over_m": 0.5, "beta": 0.6})
    assert row["converged"]
    row = cli._sweep_row(helpers.row_args(4, 1e-10), "entangle-sweep",
                         {"delta_over_m": 0.5, "beta": 0.9})
    assert not row["converged"]


def test_state_validation():
    state = en.bell_gaussian(0.5, 1.0, 4)
    with pytest.raises(ValueError, match="norm"):
        en.TwoParticleAmplitude(grid=state.grid, g=2.0 * state.g)


def test_state_norm_defect_is_a_numerical_error():
    state = en.bell_gaussian(0.5, 1.0, 4)
    with pytest.raises(wp.NumericalError, match="state norm"):
        en.TwoParticleAmplitude(grid=state.grid, g=2.0 * state.g)
