"""The streamed, mirror-folded Gauss-Hermite rules: the kernels evaluated once per orbit.

The rule blocks of spin_half._packet_blocks are checked against gauss_grid
and against a fold of the full rule written here, and the moments of
spin_half.wigner_moments against the unfolded wigner_kernel, summed node
by node with math.fsum.
"""

import math

import numpy as np
import pytest

from relqi import entangle as ent
from relqi import geometry as geo
from relqi import spin_half as sh
from relqi import wavepacket as wp
from relqi.wavepacket import Measure
import helpers

DELTA, MASS = 0.7, 1.0

# (beta, theta) of spin_half.boost_for_angle and the axes that fold
BOOSTS = {
    "xz_plane": ((0.6, 0.4), (1,)),
    "z_axis": ((0.6, 0.0), (0, 1)),
    "identity": ((0.0, 0.4), (0, 1, 2)),
}

CASES = [(convention, n, name)
         for convention in (Measure.PLAIN, Measure.INVARIANT)
         for n in (7, 12, 24)
         for name in BOOSTS]


def mixture_pair_error(probs, units):
    """Helstrom error (1 - |r|)/2 of the spin pair fixed by r = sum_n p_n u_n.

    `probs` (n,) sum to 1 and `units` (n, 3) are the unit vectors
    u_n = W_n e_z of an unfolded grid.  The error is evaluated in the
    variance form sum_n p_n |u_n - r|^2 / (2 (1 + |r|)), with the spread
    shifted to the node c of largest probability:
    sum_n p_n |u_n - c|^2 - |r - c|^2, exactly 0 when every u_n is equal.
    """
    c = units[np.argmax(probs)]
    d = units - c
    shift = probs @ d
    spread = probs @ np.sum(d * d, axis=1) - shift @ shift
    return float(0.5 * max(0.0, spread) / (1.0 + np.linalg.norm(c + shift)))


def _images(nodes, k):
    """Index of the mirror image q_k -> -q_k of every node."""
    index = {tuple(q): i for i, q in enumerate(nodes)}
    mirrored = nodes.copy()
    mirrored[:, k] = -mirrored[:, k]
    return np.array([index[tuple(q)] for q in mirrored])


@pytest.mark.parametrize("convention, n, name", CASES)
def test_unfolded_kernel_is_mirror_equivariant(convention, n, name):
    # The folded nodes stand for their images exactly: the on-shell and
    # time-axis checks on the kept nodes see every value of the full grid.
    (beta, theta), axes = BOOSTS[name]
    lam = sh.boost_for_angle(beta, theta)
    assert geo.mirror_axes(lam) == axes
    nodes, _, _, probs = helpers.packet_rule(DELTA, MASS, n, convention)
    p4, rots = geo.wigner_rotation_batch(lam, nodes, MASS)
    for k in axes:
        image = _images(nodes, k)
        m = np.ones(3)
        m[k] = -1.0
        np.testing.assert_array_equal(probs[image], probs)
        np.testing.assert_array_equal(rots[image], m[:, None] * rots * m)
        np.testing.assert_array_equal(p4[image, 1:], m * p4[:, 1:])


@pytest.mark.parametrize("convention, n, name", CASES)
def test_folded_values_match_unfolded(convention, n, name):
    (beta, theta), axes = BOOSTS[name]
    lam = sh.boost_for_angle(beta, theta)
    probs, rots = sh.wigner_kernel(lam, DELTA, MASS, n, convention)
    folded_probs = helpers.packet_rule(DELTA, MASS, n, convention, axes)[3]
    assert len(folded_probs) < len(probs)
    assert folded_probs.sum() == pytest.approx(1.0, rel=1e-14)
    # math.fsum: the einsum of bloch_map accumulates 24^3 terms in order (2e-14)
    t = np.array([[math.fsum(probs * rots[:, i, j]) for j in range(3)] for i in range(3)])
    d, _ = sh.wigner_moments(lam, DELTA, MASS, n, convention)
    np.testing.assert_allclose(np.eye(3) + d, t, rtol=1e-14, atol=1e-15)
    # D_ij flips sign under the reflection of a folded axis k when exactly
    # one of i, j is k: those entries are exactly 0
    flipped = np.array([k in axes for k in range(3)])
    odd = (flipped[:, None] | flipped[None, :]) & ~np.eye(3, dtype=bool)
    assert np.all(d[odd] == 0.0)
    if convention is Measure.PLAIN:
        full = mixture_pair_error(probs, rots[:, :, 2])
        folded = sh.boosted_pair(DELTA, MASS, beta, theta, n)[2]
        assert folded == pytest.approx(full, rel=1e-14, abs=0.0)
    else:
        full = 1.0 - 0.5 * probs @ np.sum((rots - t) ** 2, axis=(1, 2))
        folded = ent.boosted_singlet(lam, DELTA, MASS, n)[0]
        assert folded == pytest.approx(full, rel=1e-14, abs=0.0)


def test_generic_boost_folds_nothing():
    lam = geo.boost_from_velocity([0.3, -0.4, 0.5])
    assert geo.mirror_axes(lam) == ()
    nodes, _, _, probs = helpers.packet_rule(DELTA, MASS, 6)
    d, _ = sh.wigner_moments(lam, DELTA, MASS, 6)
    assert nodes.shape == (6**3, 3) and np.all(d != 0.0)
    np.testing.assert_array_equal(probs, sh.wigner_kernel(lam, DELTA, MASS, 6)[0])


MOMENT_BOOSTS = {**{name: sh.boost_for_angle(*bt) for name, (bt, _) in BOOSTS.items()},
                 "generic": geo.boost_from_velocity([0.3, -0.4, 0.5])}


@pytest.mark.parametrize("convention", [Measure.PLAIN, Measure.INVARIANT])
@pytest.mark.parametrize("n", [7, 12, 24])
@pytest.mark.parametrize("name", MOMENT_BOOSTS)
def test_wigner_moments_match_unfolded_fsum(convention, n, name):
    # D = T - I and s = <sin^2(omega/2)> = <(3 - tr W)/4>, node by node over
    # the full grid of wigner_kernel, each entry summed exactly by math.fsum
    lam = MOMENT_BOOSTS[name]
    probs, rots = sh.wigner_kernel(lam, DELTA, MASS, n, convention)
    excess = rots - np.eye(3)
    expected = np.array([[math.fsum(probs * excess[:, i, j]) for j in range(3)]
                         for i in range(3)])
    d, s = sh.wigner_moments(lam, DELTA, MASS, n, convention)
    np.testing.assert_allclose(d, expected, rtol=1e-14, atol=0.0)
    sin2 = 0.25 * (3.0 - np.trace(rots, axis1=1, axis2=2))
    assert s == pytest.approx(math.fsum(probs * sin2), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("convention", [Measure.PLAIN, Measure.INVARIANT])
@pytest.mark.parametrize("n", [7, 12, 24])
def test_unfolded_rule_is_the_gauss_grid_rule(convention, n):
    # the stream builds gauss_grid's nodes and weights bit for bit, block by
    # block; only the normalization is summed in another order
    nodes, weights, profile, probs = helpers.packet_rule(DELTA, MASS, n, convention)
    grid = wp.gauss_grid(wp.GaussianSpec.isotropic(DELTA), n, convention, mass=MASS)
    np.testing.assert_array_equal(nodes, grid.nodes)
    np.testing.assert_array_equal(weights, grid.weights)
    h = wp.normalize(grid, np.exp(-np.sum(grid.nodes**2, axis=1) / (2.0 * DELTA * DELTA)))
    np.testing.assert_allclose(profile, h, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(probs, grid.weights * h**2, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("convention", [Measure.PLAIN, Measure.INVARIANT])
@pytest.mark.parametrize("n", [7, 12, 24])
@pytest.mark.parametrize("axes", [(1,), (0, 1), (0, 1, 2)])
def test_folded_rule_keeps_one_node_per_mirror_orbit(convention, n, axes):
    nodes, weights, _, probs = helpers.packet_rule(DELTA, MASS, n, convention)
    keep = np.all(nodes[:, axes] >= 0.0, axis=1)
    images = 2.0 ** np.sum(nodes[keep][:, axes] > 0.0, axis=1)
    blocks = list(sh._packet_blocks(DELTA, MASS, n, convention, axes))
    assert max(len(block[0]) for block in blocks) <= sh._WIGNER_BLOCK
    folded = [np.concatenate(parts) for parts in zip(*blocks)]
    np.testing.assert_array_equal(folded[0], nodes[keep])
    np.testing.assert_array_equal(folded[1], weights[keep])
    np.testing.assert_allclose(folded[3], probs[keep] * images, rtol=1e-15, atol=0.0)
    assert math.fsum(folded[3]) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("part", ["nodes", "weights"])
def test_asymmetric_rule_raises_from_the_symmetry_check(monkeypatch, part):
    x, w = wp._gauss_rule("Gauss-Hermite", 8)
    x, w = x.copy(), w.copy()
    if part == "nodes":
        x[0] *= 1.0 + 1e-15
    else:
        w[-1] *= 1.0 + 1e-15
    monkeypatch.setattr(sh, "_gauss_rule", lambda name, n: (x, w))
    with pytest.raises(wp.NumericalError, match="not mirror-symmetric"):
        sh.wigner_moments(sh.boost_for_angle(0.6, 0.4), DELTA, MASS, 8)
    # a rule that folds nothing needs no symmetry
    d, _ = sh.wigner_moments(geo.boost_from_velocity([0.3, -0.4, 0.5]), DELTA, MASS, 8)
    assert np.all(np.isfinite(d))
