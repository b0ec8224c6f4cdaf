import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss

from relqi import wavepacket as wp

RNG = np.random.default_rng(515)


def test_single_node_grid_carries_total_mass():
    spec = wp.GaussianSpec(center=[0.1, -0.2, 0.3], widths=[0.5, 0.7, 1.1])
    grid = wp.gauss_grid(spec, 1, wp.Measure.PLAIN)
    assert grid.n == 1
    np.testing.assert_allclose(grid.nodes[0], spec.center, atol=1e-14)
    mass = np.pi**1.5 * np.prod(spec.widths)
    assert grid.weights[0] == pytest.approx(mass, rel=1e-12)


def test_target_gaussian_norm_is_exact():
    spec = wp.GaussianSpec.isotropic(0.8)
    for n in (1, 4, 8, 12):
        grid = wp.gauss_grid(spec, n, wp.Measure.PLAIN)
        amp = np.exp(-np.sum(grid.nodes**2, axis=1) / (2 * 0.8**2))
        amp = amp / np.sqrt(np.pi**1.5 * 0.8**3)
        assert wp.norm(grid, amp) == pytest.approx(1.0, abs=1e-8)


def test_first_moment_matches_center():
    spec = wp.GaussianSpec(center=[0.3, 0.0, -1.2], widths=[0.4, 0.4, 0.9])
    grid = wp.gauss_grid(spec, 8, wp.Measure.PLAIN)
    amp = wp.normalize(grid, np.exp(
        -np.sum((grid.nodes - spec.center) ** 2 / (2 * spec.widths**2), axis=1)
    ))
    mean = np.einsum("n,n,nc->c", grid.weights, np.abs(amp) ** 2, grid.nodes)
    np.testing.assert_allclose(mean, spec.center, atol=1e-8)


def test_inner_product_normalization_and_parity():
    spec = wp.GaussianSpec.isotropic(1.3)
    grid = wp.gauss_grid(spec, 10, wp.Measure.PLAIN)
    f = wp.normalize(grid, np.exp(-np.sum(grid.nodes**2, axis=1) / (2 * 1.3**2)))
    assert wp.inner_product(grid, f, f) == pytest.approx(1.0, abs=1e-8)
    g = wp.normalize(grid, grid.nodes[:, 0] * f)  # odd in k_x
    assert abs(wp.inner_product(grid, f, g)) < 1e-10


def test_inner_product_against_refined_grid_oracle():
    spec = wp.GaussianSpec.isotropic(0.9)
    coarse = wp.gauss_grid(spec, 8, wp.Measure.PLAIN)
    fine = wp.gauss_grid(spec, 32, wp.Measure.PLAIN)

    def smooth_pair(grid):
        k = grid.nodes
        env = np.exp(-np.sum(k**2, axis=1) / (2 * 0.9**2))
        f = env * (1.0 + 0.3 * k[:, 0]) * np.cos(0.4 * k[:, 1])
        g = env * np.exp(0.25j * k[:, 2]) * (0.5 - 0.2 * k[:, 1])
        return f, g

    f_c, g_c = smooth_pair(coarse)
    f_f, g_f = smooth_pair(fine)
    val_c = wp.inner_product(coarse, f_c, g_c)
    val_f = wp.inner_product(fine, f_f, g_f)
    assert abs(val_c - val_f) / abs(val_f) < 1e-6


def test_normalize_idempotent_and_homogeneous():
    spec = wp.GaussianSpec.isotropic(0.6)
    grid = wp.gauss_grid(spec, 6, wp.Measure.PLAIN)
    f = np.exp(-np.sum(grid.nodes**2, axis=1) / (2 * 0.6**2)) * (1 + 0j)
    unit = wp.normalize(grid, f)
    np.testing.assert_allclose(wp.normalize(grid, unit), unit, atol=1e-12)
    np.testing.assert_allclose(wp.normalize(grid, 3.0 * f), unit, atol=1e-12)


def test_gaussian_normalization_constant_is_analytic():
    delta = 0.45
    spec = wp.GaussianSpec.isotropic(delta)
    grid = wp.gauss_grid(spec, 10, wp.Measure.PLAIN)
    raw = np.exp(-np.sum(grid.nodes**2, axis=1) / (2 * delta**2))
    n_numeric = 1.0 / wp.norm(grid, raw)
    n_analytic = (np.pi**1.5 * delta**3) ** -0.5
    assert n_numeric == pytest.approx(n_analytic, rel=1e-8)


def test_invariant_weights_fold_measure_factor():
    spec = wp.GaussianSpec.beam(50.0, 0.5, 2.0)
    plain = wp.gauss_grid(spec, 6, wp.Measure.PLAIN)
    inv = wp.gauss_grid(spec, 6, wp.Measure.INVARIANT, mass=0.0)
    k0 = np.linalg.norm(inv.nodes, axis=1)
    np.testing.assert_allclose(
        inv.weights, plain.weights / (wp.TWO_PI_CUBED * 2.0 * k0), rtol=1e-12
    )
    massive = wp.gauss_grid(wp.GaussianSpec.isotropic(0.5), 6, wp.Measure.INVARIANT, mass=2.0)
    np.testing.assert_allclose(massive.k0(), np.sqrt(4.0 + np.sum(massive.nodes**2, axis=1)))


def test_cross_convention_rejected():
    spec = wp.GaussianSpec.isotropic(1.0)
    plain = wp.gauss_grid(spec, 4, wp.Measure.PLAIN)
    inv = wp.gauss_grid(spec, 4, wp.Measure.INVARIANT, mass=1.0)
    with pytest.raises(ValueError, match="convention"):
        wp.ensure_same_grid(plain, inv)
    shifted = wp.gauss_grid(wp.GaussianSpec.isotropic(1.1), 4, wp.Measure.PLAIN)
    with pytest.raises(ValueError, match="different grids"):
        wp.ensure_same_grid(plain, shifted)
    wp.ensure_same_grid(plain, wp.gauss_grid(spec, 4, wp.Measure.PLAIN))


def test_construction_audits():
    with pytest.raises(ValueError, match="widths"):
        wp.GaussianSpec.isotropic(-1.0)
    with pytest.raises(ValueError, match="nodes_per_axis"):
        wp.gauss_grid(wp.GaussianSpec.isotropic(1.0), 0, wp.Measure.PLAIN)
    with pytest.raises(ValueError, match="positive"):
        wp.MomentumGrid(nodes=np.zeros((2, 3)), weights=np.array([1.0, -1.0]),
                        convention=wp.Measure.PLAIN)
    with pytest.raises(ValueError, match="finite"):
        wp.MomentumGrid(nodes=np.zeros((1, 3)), weights=np.array([np.nan]),
                        convention=wp.Measure.PLAIN)
    grid = wp.gauss_grid(wp.GaussianSpec.isotropic(1.0), 5, wp.Measure.PLAIN)
    assert np.all(grid.weights > 0) and np.all(np.isfinite(grid.weights))
    with pytest.raises(ValueError, match="zero"):
        wp.normalize(grid, np.zeros(grid.n))


def test_grid_immutability():
    grid = wp.gauss_grid(wp.GaussianSpec.isotropic(1.0), 4, wp.Measure.PLAIN)
    with pytest.raises(ValueError):
        grid.nodes[0, 0] = 5.0
    with pytest.raises(ValueError):
        grid.weights[0] = 5.0


# Largest gaps to numpy's rules by node count: nodes absolute, weights relative.  Each is
# about twice the gap the rule shows.  At 186 Gauss-Laguerre nodes numpy's own weights are
# off by up to 3.3e-11 relative, against 1.1e-12 here (a 40-digit oracle rule).
NUMPY_RULES = {"Gauss-Hermite": hermgauss, "Gauss-Laguerre": laggauss}
NUMPY_GAPS = {
    "Gauss-Hermite": {1: (5e-16, 5e-16), 2: (5e-16, 5e-16), 12: (2e-15, 1.2e-14),
                      24: (9e-15, 6e-14), 93: (4e-14, 5e-13), 186: (8e-14, 1.3e-12)},
    "Gauss-Laguerre": {1: (5e-16, 5e-16), 2: (5e-16, 5e-16), 12: (1.5e-14, 6e-14),
                       24: (6e-14, 5e-13), 93: (6e-13, 2e-12), 186: (2.6e-12, 6.4e-11)},
}
RULE_CASES = [(name, n) for name in NUMPY_GAPS for n in NUMPY_GAPS[name]]


def exact_moment(name, k):
    """The integral of x^k against the weight function of the `name` rule."""
    if name == "Gauss-Laguerre":
        return float(math.factorial(k))
    return math.gamma((k + 1) / 2) if k % 2 == 0 else 0.0


@pytest.mark.parametrize("name, n", RULE_CASES)
def test_rule_integrates_its_moments_exactly(name, n):
    # an n-node Gauss rule is exact up to degree 2n - 1
    x, w = wp._gauss_rule(name, n)
    for k in range(min(10, 2 * n - 1) + 1):
        moment = math.fsum(float(wi) * float(xi) ** k for xi, wi in zip(x, w))
        assert moment == pytest.approx(exact_moment(name, k), rel=1e-14, abs=0.0), k


@pytest.mark.parametrize("name, n", RULE_CASES)
def test_rule_matches_numpy(name, n):
    x, w = wp._gauss_rule(name, n)
    x_np, w_np = NUMPY_RULES[name](n)
    node_gap, weight_gap = NUMPY_GAPS[name][n]
    np.testing.assert_allclose(x, x_np, rtol=0.0, atol=node_gap)
    np.testing.assert_allclose(w, w_np, rtol=weight_gap, atol=0.0)


@pytest.mark.parametrize("n", NUMPY_GAPS["Gauss-Hermite"])
def test_hermite_rule_is_exactly_mirror_symmetric(n):
    x, w = wp._gauss_rule("Gauss-Hermite", n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0)


def test_rule_breakdowns_are_numerical_errors():
    # the smallest weight underflows
    with pytest.raises(wp.NumericalError, match="Gauss-Hermite rule breaks down at 389 nodes"):
        wp._gauss_rule("Gauss-Hermite", 389)
    assert wp._gauss_rule("Gauss-Hermite", 388)[1][0] > 0.0
    with pytest.raises(ValueError, match="nodes_per_axis"):
        wp._gauss_rule("Gauss-Laguerre", 0)
    with pytest.raises(wp.NumericalError, match="no eigenvalue"):
        wp._golub_welsch([math.nan, 0.0], [1.0], 1.0)
