import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from relqi import cli
from relqi import geometry as geo
from relqi import qmatrix as qm
from relqi import spin_half as sh
from relqi import wavepacket as wp
from relqi.wavepacket import Measure, MomentumGrid
import helpers

RNG = np.random.default_rng(90210)

KET0 = np.diag([1.0, 0.0]).astype(complex)

# converged reference values (40 nodes per axis), delta/m = 1, theta = pi/2
ENTROPY_GAMMA_05 = 0.120364514661
PAIR_ERROR_GAMMA_0005 = 1.65510017619e-06


def reduced_density_oracle(psi):
    """Direct summation over nodes, independent of the einsum path."""
    out = np.zeros((2, 2), dtype=complex)
    for w, a in zip(psi.grid.weights, psi.amps):
        out += w * np.outer(a, a.conj())
    return out


def test_gaussian_spin_up_is_product_state():
    psi = sh.gaussian_packet(0.4, 1.0, 8)
    assert wp.norm(psi.grid, psi.amps) == pytest.approx(1.0, abs=1e-8)
    tau = sh.reduced_spin_density(psi)
    np.testing.assert_allclose(tau, KET0, atol=1e-10)
    assert qm.entropy(tau) < 1e-9
    assert np.abs(psi.amps[:, 1]).max() == 0.0


def test_product_packet_reduces_to_projector():
    spinor = np.array([0.6, 0.8j])
    psi = sh.gaussian_packet(0.7, 1.0, 8, spinor=spinor)
    spinor = spinor / np.linalg.norm(spinor)
    np.testing.assert_allclose(
        sh.reduced_spin_density(psi), np.outer(spinor, spinor.conj()), atol=1e-10
    )


def test_identity_boost_is_noop():
    psi = sh.gaussian_packet(0.5, 1.0, 6)
    out = sh.boost_packet(np.eye(4), psi)
    np.testing.assert_allclose(out.amps, psi.amps, atol=1e-12)
    np.testing.assert_allclose(out.grid.nodes, psi.grid.nodes, atol=1e-12)


def test_sharp_packet_spin_survives_boost():
    psi = sh.gaussian_packet(1e-4, 1.0, 8)
    boosted = sh.boost_packet(geo.boost_from_velocity([0.0, 0.0, 0.9]), psi)
    np.testing.assert_allclose(sh.reduced_spin_density(boosted), KET0, atol=1e-6)


def test_boost_norm_conservation():
    psi = sh.gaussian_packet(0.8, 1.0, 8)
    for _ in range(10):
        direction = RNG.normal(size=3)
        direction /= np.linalg.norm(direction)
        lam = geo.boost_from_velocity(RNG.uniform(0.1, 0.99) * direction)
        boosted = sh.boost_packet(lam, psi)
        assert abs(wp.norm(boosted.grid, boosted.amps) - 1.0) < 1e-8


def test_boost_composition_covariance():
    psi = sh.gaussian_packet(0.6, 1.0, 8)
    lam1 = helpers.angle_boost(0.5, 0.9)[1]
    lam2 = geo.boost_from_velocity([0.2, -0.1, 0.3])
    two_step = sh.boost_packet(lam2, sh.boost_packet(lam1, psi))
    one_step = sh.boost_packet(lam2 @ lam1, psi)
    s_two = qm.entropy(sh.reduced_spin_density(two_step))
    s_one = qm.entropy(sh.reduced_spin_density(one_step))
    assert abs(s_two - s_one) < 1e-8


def test_reduced_density_direct_sum_oracle():
    beta = sh.beta_for_gamma(0.5, 1.0)
    boosted = sh.boost_packet(
        helpers.angle_boost(beta, np.pi / 2)[1], sh.gaussian_packet(1.0, 1.0, 8)
    )
    np.testing.assert_allclose(
        sh.reduced_spin_density(boosted), reduced_density_oracle(boosted), atol=1e-12
    )


def test_disjoint_supports_with_orthogonal_spins_mix():
    up = sh.gaussian_packet(0.3, 1.0, 6, spinor=(1.0, 0.0))
    shift = np.array([0.0, 0.0, 6.0])
    grid = MomentumGrid(
        nodes=np.vstack([up.grid.nodes - shift, up.grid.nodes + shift]),
        weights=np.concatenate([up.grid.weights, up.grid.weights]),
        convention=Measure.PLAIN,
        mass=1.0,
    )
    n = up.grid.n
    amps = np.zeros((2 * n, 2), dtype=complex)
    amps[:n, 0] = up.amps[:, 0] / np.sqrt(2.0)
    amps[n:, 1] = up.amps[:, 0] / np.sqrt(2.0)
    psi = sh.SpinorPacket(grid=grid, amps=amps, mass=1.0)
    np.testing.assert_allclose(sh.reduced_spin_density(psi), np.eye(2) / 2, atol=1e-8)


def test_gamma_parameter_values():
    assert sh.gamma_parameter(1.0, 1.0, 0.6) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sh.gamma_parameter(0.2, 1.0, 0.0) == 0.0
    # small-beta expansion: gamma ~ (delta/m) beta / 2
    assert sh.gamma_parameter(0.2, 1.0, 0.01) == pytest.approx(0.001, rel=1e-2)
    with pytest.raises(ValueError):
        sh.gamma_parameter(0.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        sh.gamma_parameter(-0.1, 1.0, 0.5)


def test_beta_for_gamma_inversion():
    for gamma in (1e-4, 0.05, 0.3, 0.8):
        beta = sh.beta_for_gamma(gamma, 1.0)
        assert sh.gamma_parameter(1.0, 1.0, beta) == pytest.approx(gamma, rel=1e-10)
    assert sh.beta_for_gamma(0.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="unreachable"):
        sh.beta_for_gamma(0.7, 0.5)


@pytest.mark.parametrize("ratio", [1e-8, 1e-6, 0.25, 0.5])
@pytest.mark.parametrize("delta_over_m", [1.0, 0.3])
def test_beta_gamma_round_trip(ratio, delta_over_m):
    gamma = ratio * delta_over_m
    beta = sh.beta_for_gamma(gamma, delta_over_m)
    assert sh.gamma_parameter(delta_over_m, 1.0, beta) == pytest.approx(gamma, rel=1e-14)
    if ratio <= 1e-6:
        # small-beta expansion: gamma ~ (delta/m) beta / 2
        assert beta == pytest.approx(2.0 * ratio, rel=1e-11)


def test_gamma_monotonicity():
    betas = np.linspace(0.05, 0.95, 10)
    gammas = [sh.gamma_parameter(0.5, 1.0, b) for b in betas]
    assert np.all(np.diff(gammas) > 0)
    deltas = np.linspace(0.1, 1.0, 10)
    gammas = [sh.gamma_parameter(d, 1.0, 0.5) for d in deltas]
    assert np.all(np.diff(gammas) > 0)


def test_boosted_entropy_positive_and_pinned():
    beta = sh.beta_for_gamma(0.5, 1.0)
    tau, _ = sh.boosted_pair(helpers.angle_boost(beta, np.pi / 2)[0], 1.0, 20)[:2]
    s = qm.entropy(tau)
    assert s > 0.0
    assert s == pytest.approx(ENTROPY_GAMMA_05, abs=1e-6)
    tau2, _ = sh.boosted_pair(helpers.angle_boost(beta, np.pi / 2)[0], 1.0, 40)[:2]
    assert abs(qm.entropy(tau2) - s) < 1e-6


def test_pair_error_zero_at_rest():
    assert sh.boosted_pair((0.0, 0.0, 0.0), 0.5, 6)[2] < 1e-9


def test_pair_error_quadratic_law():
    ratios = []
    for gamma in (0.001, 0.002, 0.005):
        beta = sh.beta_for_gamma(gamma, 1.0)
        tau = helpers.angle_boost(beta, np.pi / 2)[0]
        ratios.append(sh.boosted_pair(tau, 1.0, 12)[2] / gamma**2)
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1.05


@pytest.mark.parametrize("theta", [np.pi / 2, 0.7])
def test_pair_error_small_gamma_ratio(theta):
    # the variance form keeps P/Gamma^2 flat far below the Helstrom path's
    # cancellation floor
    ratios = np.array([
        sh.boosted_pair(helpers.angle_boost(sh.beta_for_gamma(gamma, 1.0), theta)[0], 1.0, 16)[2]
        / gamma**2
        for gamma in (1e-4, 1e-5, 1e-6)
    ])
    assert ratios.max() / ratios.min() - 1.0 < 1e-8
    # tau_up has eigenvalues P and 1 - P, so its entropy is the binary entropy
    # of P; rounding 1 - P costs up to 2e-5 relative at Gamma = 1e-6
    for gamma in (1e-4, 1e-5, 1e-6):
        row = sh.sweep_values(theta, gamma, 1.0, 16)
        p = row["p_error"]
        binary = -(p * np.log2(p) + (1.0 - p) * np.log1p(-p) / np.log(2.0))
        assert row["entropy_bits"] == pytest.approx(binary, rel=1e-4, abs=0.0)


def test_small_gamma_pair_error_matches_decimal_node_sum():
    # The same node sum with each Wigner quaternion taken from the 40-digit
    # decimal oracle of the row's boost tau = Gamma (sin theta, 0, cos theta)
    # (delta/m = 1) and every sum by math.fsum: the float quaternions carry
    # 1e-16 relative each, so the oracle holds p_error to about 3e-16.
    theta, gamma = np.pi / 2, 1e-6
    nodes, probs = helpers.packet_rule(1.0, 12)
    tau = gamma * np.array([np.sin(theta), 0.0, np.cos(theta)])
    x, y, z, w = helpers.decimal_wigner(tau, None, nodes, 1.0)[1].T
    dz = np.array([math.fsum(probs * 2.0 * (x * z + w * y)),
                   math.fsum(probs * 2.0 * (y * z - w * x)),
                   math.fsum(probs * -2.0 * (x * x + y * y))])
    expected = (-2.0 * dz[2] - dz @ dz) / (2.0 * (1.0 + np.linalg.norm(dz + (0.0, 0.0, 1.0))))
    p_error = sh.sweep_values(theta, gamma, 1.0, 12)["p_error"]
    assert p_error == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_row_at_gamma_1e4_matches_decimal_node_sum():
    # The row --theta 1 --gamma 0.9999 (boost gamma ~ 1e4, whose float Lorentz
    # matrix leaves the time axis by 8.0e-9) at tau = 0.9999 (sin 1, 0, cos 1)
    # prints p_error 0.080030573913 and entropy_bits 0.402286910118 at n = 12: the
    # same rule's values with every quaternion from the 40-digit oracle
    row = sh.sweep_values(1.0, 0.9999, 1.0, 12)
    d, _ = helpers.decimal_moments(0.9999 * np.array([np.sin(1.0), 0.0, np.cos(1.0)]), 1.0, 12)
    dz = d[:, 2]
    p = (-2.0 * dz[2] - dz @ dz) / (2.0 * (1.0 + np.linalg.norm(dz + (0.0, 0.0, 1.0))))
    assert row["p_error"] == pytest.approx(p, rel=1e-12, abs=0.0)
    binary = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
    assert row["entropy_bits"] == pytest.approx(binary, rel=1e-12, abs=0.0)


def bloch_vector(rho):
    return np.array([2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])


def test_wigner_moments_bloch_matrix_matches_boosted_packet():
    # T = I + D maps the Bloch vector of the packet's spin to that of the boosted
    # packet, transported node by node with its SU(2) Wigner rotations
    for _ in range(5):
        velocity = RNG.normal(size=3)
        velocity *= RNG.uniform(0.2, 0.9) / np.linalg.norm(velocity)
        tau, lam = helpers.boost(velocity)
        spinor = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        packet = sh.gaussian_packet(0.8, 1.0, 8, spinor=spinor)
        before = bloch_vector(sh.reduced_spin_density(packet))
        after = bloch_vector(sh.reduced_spin_density(sh.boost_packet(lam, packet)))
        d, _ = sh.wigner_moments(tau, 0.8, 8)
        np.testing.assert_allclose((np.eye(3) + d) @ before, after, atol=1e-13)


@pytest.fixture
def grid_builds(monkeypatch):
    """Node counts of the 3-D grids and the 1-D Gauss-Hermite rules spin_half builds.

    Counted from an empty 1-D rule cache.
    """
    built = {"grids": [], "rules": []}
    real_grid, real_matrix = sh.gauss_grid, wp._JACOBI_MATRICES["Gauss-Hermite"]

    def counting_grid(spec, nodes_per_axis, *args, **kwargs):
        built["grids"].append(nodes_per_axis)
        return real_grid(spec, nodes_per_axis, *args, **kwargs)

    def counting_matrix(nodes_per_axis):
        built["rules"].append(nodes_per_axis)
        return real_matrix(nodes_per_axis)

    monkeypatch.setattr(sh, "gauss_grid", counting_grid)
    monkeypatch.setitem(wp._JACOBI_MATRICES, "Gauss-Hermite", counting_matrix)
    wp._gauss_outcome.cache_clear()
    yield built
    wp._gauss_outcome.cache_clear()


def test_sweep_builds_one_grid_per_resolution(grid_builds):
    # no n^3 grid at all: each row streams its rule from the cached 1-D rules
    args = helpers.row_args(12)
    rows = [cli._sweep_row(args, "spin-entropy",
                           {"theta": theta, "gamma": gamma, "delta_over_m": 1.0})
            for theta in np.linspace(0.0, np.pi, 16) for gamma in (0.0, 0.25, 0.5)]
    assert len(rows) == 48
    assert grid_builds == {"grids": [], "rules": [12, 24]}


def test_a_rule_that_breaks_down_is_built_once(grid_builds):
    # lru_cache keeps no exception: the breakdown is cached as its reason
    args = helpers.row_args(389, no_convergence=True)
    rows = [cli._sweep_row(args, "spin-entropy",
                           {"theta": theta, "gamma": 0.1, "delta_over_m": 1.0})
            for theta in (0.0, 0.5, 1.0)]
    assert [row["error"] for row in rows] == [
        "the Gauss-Hermite rule breaks down at 389 nodes"] * 3
    assert grid_builds["rules"] == [389]


def test_spin_row_memory_bounded():
    args = helpers.row_args(32)
    tracemalloc.start()
    try:
        row = cli._sweep_row(args, "spin-entropy",
                             {"theta": np.pi / 2, "gamma": 0.25, "delta_over_m": 1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["converged"]
    assert peak < 100e6


def test_first_spin_row_memory_is_bounded():
    # The n = 40 row and its n = 80 pass stream their folded rules from the
    # 1-D rules in kernel blocks: no grid is built or cached (45.6 MB when the
    # first row built, cached and folded both grids).
    args = helpers.row_args(40)
    wp._gauss_outcome.cache_clear()
    tracemalloc.start()
    try:
        row = cli._sweep_row(args, "spin-entropy",
                             {"theta": 0.3, "gamma": 0.25, "delta_over_m": 1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(row["p_error"])
    assert peak < 4e6


def test_spin_row_scratch_is_bounded_once_the_grid_is_cached():
    # A second row at another theta holds one kernel block of scratch, as the
    # first does: nothing accumulates across rows (33 MB when the kernel held
    # every folded node at once).
    args = helpers.row_args(40)
    cli._sweep_row(args, "spin-entropy", {"theta": 0.3, "gamma": 0.25, "delta_over_m": 1.0})
    tracemalloc.start()
    try:
        row = cli._sweep_row(args, "spin-entropy",
                             {"theta": 0.7, "gamma": 0.25, "delta_over_m": 1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(row["p_error"])
    assert peak < 4e6


def test_pair_error_refined_grid_pin():
    beta = sh.beta_for_gamma(0.005, 1.0)
    coarse = sh.boosted_pair(helpers.angle_boost(beta, np.pi / 2)[0], 1.0, 12)[2]
    fine = sh.boosted_pair(helpers.angle_boost(beta, np.pi / 2)[0], 1.0, 24)[2]
    assert abs(coarse - fine) < 1e-7
    assert fine == pytest.approx(PAIR_ERROR_GAMMA_0005, rel=1e-4)


def test_pair_error_exchange_symmetry():
    beta = sh.beta_for_gamma(0.3, 1.0)
    tau_up, tau_down = sh.boosted_pair(helpers.angle_boost(beta, 0.8)[0], 1.0, 8)[:2]
    assert qm.helstrom_error(tau_up, tau_down) == pytest.approx(
        qm.helstrom_error(tau_down, tau_up), abs=1e-10
    )


def test_sharp_momentum_limit_entropy_vanishes():
    values = []
    for delta in (0.3, 0.1, 0.03):
        tau, _ = sh.boosted_pair(helpers.angle_boost(0.8, np.pi / 2)[0], delta, 10)[:2]
        values.append(qm.entropy(tau))
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-3


def test_entropy_sweep_rows():
    by_key = {(round(theta, 6), gamma): sh.sweep_values(theta, gamma, 1.0, 8)
              for theta in (0.5, np.pi - 0.5) for gamma in (0.0, 0.4)}
    assert len(by_key) == 4
    for theta in (0.5, np.pi - 0.5):
        assert by_key[(round(theta, 6), 0.0)]["entropy_bits"] < 1e-9
    s1 = by_key[(round(0.5, 6), 0.4)]["entropy_bits"]
    s2 = by_key[(round(np.pi - 0.5, 6), 0.4)]["entropy_bits"]
    assert abs(s1 - s2) < 1e-8


def test_row_entropy_is_the_binary_entropy_of_its_pair_error():
    # A rounded 1 - p once gave 2.9940901576e-12 bits at Gamma = 1e-6 (1.9e-5 off)
    # and 6.16831912448e-06 at 2e-3; the 40-digit oracle gives 2.99414745328e-12
    # and 6.16831912441e-06.
    for gamma in (1e-6, 1e-3, 2e-3, 0.25):
        row = sh.sweep_values(1.5707963268, gamma, 1.0, 12)
        with localcontext() as ctx:
            ctx.prec = 40
            p = Decimal(row["p_error"])
            oracle = -(p * p.ln() + (1 - p) * (1 - p).ln()) / Decimal(2).ln()
        assert row["entropy_bits"] == pytest.approx(float(oracle), rel=1e-14, abs=0.0)
    assert sh.sweep_values(0.3, 0.0, 1.0, 6)["entropy_bits"] == 0.0


def test_entropy_sweep_marks_unreachable_gamma():
    with pytest.raises(ValueError, match="unreachable"):
        sh.sweep_values(0.1, 0.9, 0.5, 6)
    rows = [cli._sweep_row(helpers.row_args(6), "spin-entropy",
                           {"theta": 0.1, "gamma": 0.9, "delta_over_m": 0.5})]
    assert len(rows) == 1
    assert not rows[0]["converged"]
    entropy = cli._csv(cli.SPIN_HEADER, rows).split("\n")[1].split(",")[4]
    assert np.isnan(float(entropy))
    assert "unreachable" in rows[0]["error"]


def test_entropy_sweep_convergence_flag():
    row = cli._sweep_row(helpers.row_args(12, 1e-4), "spin-entropy",
                         {"theta": np.pi / 2, "gamma": 0.25, "delta_over_m": 1.0})
    assert row["converged"]
    row = cli._sweep_row(helpers.row_args(4, 1e-8), "spin-entropy",
                         {"theta": np.pi / 2, "gamma": 0.5, "delta_over_m": 1.0})
    assert not row["converged"]


def test_wigner_moments_refuse_tau_outside_the_unit_ball():
    # tau = tanh(xi/2) n lies inside the unit ball: |tau| = 1 is the speed of light
    for tau in ((0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (0.0, math.nan, 0.0)):
        with pytest.raises(ValueError, match=r"\|tau\| = tanh\(xi/2\) < 1"):
            sh.wigner_moments(tau, 1.0, 4)
    with pytest.raises(ValueError, match="delta/m > 0"):
        sh.wigner_moments((0.0, 0.0, 0.5), 0.0, 4)


def test_mass_mismatch_rejected():
    psi = sh.gaussian_packet(0.5, 1.0, 4)
    with pytest.raises(ValueError, match="mass"):
        sh.SpinorPacket(grid=psi.grid, amps=psi.amps, mass=2.0)


@pytest.mark.parametrize("n", range(4, 33))
def test_identity_boost_rows_are_exactly_zero(n):
    # Gamma = 0 is the identity boost: every W_n of the unfolded rule is I,
    # and the moments D and s are exactly 0, so the pair error and the entropy
    # are 0, from the sweep row and from boosted_pair at tau = 0.
    for theta in (0.0, 0.7):
        row = sh.sweep_values(theta, 0.0, 1.0, n)
        assert row["p_error"] == 0.0 and row["entropy_bits"] == 0.0
    assert np.all(helpers.unfolded_kernel(np.eye(4), 1.0, n)[1] == np.eye(3))
    for convention in (Measure.PLAIN, Measure.INVARIANT):
        d, s = sh.wigner_moments((0.0, 0.0, 0.0), 1.0, n, convention)
        assert s == 0.0 and np.all(d == 0.0)
    p_error = sh.boosted_pair((0.0, 0.0, 0.0), 1.0, n)[2]
    assert p_error == 0.0
    assert qm.entropy(np.diag([1.0 - p_error, p_error])) == 0.0


def test_identity_boost_row_prints_zero(tmp_path):
    from relqi import cli

    out = tmp_path / "spin.csv"
    assert cli.run(["spin-entropy", "--theta", "0.7", "--gamma", "0", "--no-convergence",
                    "--out", str(out)]) == 0
    assert out.read_text().split("\n")[1] == "0.7,0,0,1,0,0,1728,true"


def test_packet_norm_defect_is_a_numerical_error():
    psi = sh.gaussian_packet(0.5, 1.0, 4)
    with pytest.raises(wp.NumericalError, match="packet norm"):
        sh.SpinorPacket(grid=psi.grid, amps=2.0 * psi.amps, mass=1.0)
