import math
import tracemalloc

import numpy as np
import pytest

from relqi import channel as ch
from relqi import qmatrix as qm
from relqi import spin_half
from relqi import wavepacket as wp
import helpers

RNG = np.random.default_rng(226)

KET0 = np.diag([1.0, 0.0]).astype(complex)


def test_zero_strength_is_identity():
    chan = ch.decoherence_channel(0.0)
    rho = helpers.random_density(RNG)
    np.testing.assert_allclose(chan.apply(rho), rho, atol=1e-14)


def test_hand_value_spin_up():
    chan = ch.decoherence_channel(0.2)
    np.testing.assert_allclose(chan.apply(KET0), np.diag([0.99, 0.01]), atol=1e-14)


def test_unital_fixed_point():
    for gamma in (0.0, 0.5, 1.0, 2.0):
        chan = ch.decoherence_channel(gamma)
        np.testing.assert_allclose(chan.apply(np.eye(2) / 2), np.eye(2) / 2, atol=1e-12)


def test_exactly_trace_preserving():
    for gamma in np.linspace(0.0, 2.0, 9):
        chan = ch.decoherence_channel(gamma)
        acc = sum(k.conj().T @ k for k in chan.kraus_operators())
        assert np.abs(acc - np.eye(2)).max() < 1e-12
        rho = helpers.random_density(RNG)
        assert np.trace(chan.apply(rho)).real == pytest.approx(1.0, abs=1e-12)


def test_choi_positive_over_admissible_range():
    for gamma in np.linspace(0.0, 2.0, 21):
        _, min_eig = qm.is_completely_positive(ch.decoherence_channel(gamma))
        assert min_eig >= -1e-12


def test_gamma_out_of_range():
    with pytest.raises(ValueError, match="gamma"):
        ch.decoherence_channel(2.1)
    with pytest.raises(ValueError, match="gamma"):
        ch.decoherence_channel(-0.1)
    with pytest.raises(ValueError, match="gamma"):
        ch.consistency_check(-1.0)


@pytest.mark.parametrize("gamma, message", [
    (2.5, "gamma > 2 makes the identity coefficient negative"),
    (-0.1, "gamma must be nonnegative"),
])
def test_certify_and_the_channel_refuse_gamma_out_of_range(gamma, message):
    for audit in (ch.certify, ch.decoherence_channel):
        with pytest.raises(ValueError) as info:
            audit(gamma)
        assert str(info.value) == message


def test_certify_reports():
    rep = ch.certify(0.5)
    assert rep["is_cp"] and rep["is_tp"]
    assert rep["min_choi_eig"] >= -1e-12
    rep0 = ch.certify(0.0)
    assert rep0["is_cp"] and rep0["is_tp"] and rep0["min_choi_eig"] >= -1e-12
    assert set(rep) == {"is_cp", "is_tp", "min_choi_eig"}


@pytest.mark.parametrize("gamma", [0.0, 1e-8, 1e-3, 0.2, 1.0, 2.0])
def test_certify_spectrum_matches_the_choi_eigen_solve(gamma):
    # certify reads the Choi spectrum 2 w_i from the Kraus weights w_i and builds no channel;
    # the Kraus/Choi route reads it from the Gram matrix of decoherence_channel's operators,
    # diagonal up to the rounding of its complex products, and is_completely_positive and
    # is_trace_preserving solve and trace the Choi matrix itself
    kraus = ch.decoherence_channel(gamma).kraus_operators()
    gram = np.array([[np.vdot(a, b) for b in kraus] for a in kraus])
    np.testing.assert_allclose(gram - np.diag(np.diag(gram)), 0.0, rtol=0.0, atol=1e-15)
    spectrum = np.sort([*np.diag(gram).real, 0.0])
    choi = qm.hermitize(qm.choi_matrix(ch.decoherence_channel(gamma)))
    np.testing.assert_allclose(spectrum, np.linalg.eigvalsh(choi), rtol=0.0, atol=1e-15)
    exact = np.sort([2 - gamma**2 / 2, gamma**2 / 4, gamma**2 / 4, 0.0])
    np.testing.assert_allclose(spectrum, exact, rtol=0.0, atol=1e-15)
    rep = ch.certify(gamma)
    is_cp, min_eig = qm.is_completely_positive(ch.decoherence_channel(gamma))
    assert rep["is_cp"] is is_cp
    assert rep["is_tp"] is ch.decoherence_channel(gamma).is_trace_preserving() is True
    assert rep["min_choi_eig"] == 0.0
    assert abs(rep["min_choi_eig"] - min_eig) <= 1e-15


def test_transpose_negative_control():
    ok, min_eig = qm.is_completely_positive(helpers.transpose_map())
    assert not ok and min_eig < -0.5


def test_distinguishability_never_improves_under_channel():
    chan = ch.decoherence_channel(0.8)
    for _ in range(50):
        r1 = helpers.random_density(RNG)
        r2 = helpers.random_density(RNG)
        before = qm.helstrom_error(r1, r2)
        after = qm.helstrom_error(chan.apply(r1), chan.apply(r2))
        assert after >= before - 1e-12


def test_consistency_zero_gamma_exact():
    assert ch.consistency_check(0.0, nodes_per_axis=6) == 0.0


def test_consistency_collinear_residual_scaling():
    gammas = np.array([0.05, 0.1, 0.2])
    distances = np.array([ch.consistency_check(g, 0.0, 12) for g in gammas])
    ratios = distances / gammas**4
    assert ratios.max() / ratios.min() < 4.0
    d_ratio = distances[2] / distances[1]
    assert 8.0 < d_ratio < 32.0  # within a factor 2 of 2**4
    fitted_order = np.polyfit(np.log(gammas), np.log(distances), 1)[0]
    assert 3.0 < fitted_order < 5.0


def test_consistency_small_gamma_small_distance():
    assert ch.consistency_check(0.1, theta=0.0, nodes_per_axis=12) < 1e-3
    # off-axis boosts mix less; the quadratic coefficients differ, so the
    # distance is reported but stays at the quadratic scale
    assert 0.0 < ch.consistency_check(0.1, np.pi / 2, 12) < 0.01


def test_witness_fires_only_for_increased_error():
    fired = {}
    for v in (-0.5, -0.25, 0.0, 0.25, 0.5):
        rep = ch.non_cp_witness(v, nodes_per_axis=8)
        assert set(rep) == {"pe_before", "pe_after", "verdict"}
        fired[v] = rep["verdict"] is not None
        assert fired[v] == (rep["pe_after"] > rep["pe_before"] + 1e-9)
        if fired[v]:
            assert "CP map" in rep["verdict"]
    assert fired[0.5] and fired[0.25]
    assert not fired[0.0] and not fired[-0.25] and not fired[-0.5]


def test_witness_ratio_matches_doppler_law():
    rep = ch.non_cp_witness(0.5, k_mean=100.0, delta_z=0.1, delta_r=1.0, nodes_per_axis=12)
    assert rep["pe_after"] / rep["pe_before"] == pytest.approx(3.0, rel=0.05)


def test_consistency_reads_only_s_of_the_moments(monkeypatch):
    # the distance is a closed form of s alone: a NaN D leaves every bit of it
    cases = [(gamma, theta) for gamma in (1e-60, 0.05, 0.2) for theta in (0.0, 0.5, np.pi / 2)]
    want = [ch.consistency_check(gamma, theta, 8) for gamma, theta in cases]
    moments = spin_half.wigner_moments

    def nan_d(*args, **kwargs):
        d, s = moments(*args, **kwargs)
        return np.full_like(d, np.nan), s

    monkeypatch.setattr(spin_half, "wigner_moments", nan_d)
    assert [ch.consistency_check(gamma, theta, 8) for gamma, theta in cases] == want


def thomas_wigner_distance(gamma, theta, n=12, beta=0.6):
    """Oracle trace distance of channel.consistency_check, node by node.

    Each node's Wigner rotation comes from the Thomas-Wigner half-angle
    formula: for a boost of rapidity xi along n and a momentum q of
    rapidity eta, the rotation is about q x n by the angle omega with
    tan(omega/2) = t sin(phi) / (1 + t cos(phi)), t = tanh(xi/2) tanh(eta/2),
    so its quaternion is (a (q x n), 1 + a q.n) / D with a = tanh(xi/2) / (E + m).
    Every sum is a math.fsum.
    """
    from relqi import spin_half as sh

    delta = gamma / sh.gamma_parameter(1.0, 1.0, beta)
    nodes, probs = helpers.packet_rule(delta, n)
    nhat = np.array([math.sin(theta), 0.0, math.cos(theta)])
    a = beta / (1.0 + math.sqrt(1.0 - beta * beta)) / (np.sqrt(1.0 + np.sum(nodes**2, axis=1)) + 1.0)
    axis = np.cross(nodes, nhat)
    den = 1.0 + a * (nodes @ nhat)
    norm2 = a * a * np.sum(axis * axis, axis=1) + den * den
    x, y, z = (a[:, None] * axis / np.sqrt(norm2)[:, None]).T
    w = den / np.sqrt(norm2)
    offset = math.fsum(probs * 2.0 * a * a * (axis[:, 0] ** 2 + axis[:, 1] ** 2) / norm2)
    dx = math.fsum(probs * 2.0 * (x * z + w * y))
    dy = math.fsum(probs * 2.0 * (y * z - w * x))
    return 0.5 * math.sqrt(dx * dx + dy * dy + (0.5 * gamma * gamma - offset) ** 2)


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("gamma", [0.01, 0.05])
def test_consistency_distance_matches_thomas_wigner_oracle(gamma, theta):
    # 1 - (T e_z)_z is taken from the quaternions, not as 1 minus a number
    # close to 1; the subtraction left errors of 8e-12 to 5e-9 here.
    assert ch.consistency_check(gamma, theta) == pytest.approx(
        thomas_wigner_distance(gamma, theta), rel=1e-12, abs=0.0
    )


def test_first_consistency_check_memory_is_bounded():
    # the n = 40 rule is streamed in kernel blocks from the 1-D rule: no grid
    # is built or cached
    wp._gauss_outcome.cache_clear()
    tracemalloc.start()
    try:
        distance = ch.consistency_check(0.2, 0.5, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(distance)
    assert peak < 4e6
