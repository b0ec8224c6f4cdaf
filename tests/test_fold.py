"""The streamed, mirror-folded Gauss-Hermite rules: the kernels evaluated once per orbit.

The rule blocks of spin_half._packet_blocks are checked against gauss_grid's
nodes, against the products of the 1-D Gauss-Hermite weights and against a
fold of the full rule written here.  The folded axes are the k with
tau_k == 0 of the boost tau = tanh(xi/2) n, and the moments of
spin_half.wigner_moments are checked against the unfolded rule's Wigner
rotations of the float Lorentz matrix (helpers.unfolded_kernel), summed
node by node with math.fsum.
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

DELTA = 0.7  # delta/m

# (beta, theta) of helpers.angle_boost and the axes that fold, the zeros of tau
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
    # The folded nodes stand for their images exactly: where tau_k == 0 the
    # image of a node under the reflection of axis k has its probability and
    # the quaternion S q, S = -1 on the two vector components other than k,
    # bit for bit, so the on-shell checks on the kept nodes see every node.
    (beta, theta), axes = BOOSTS[name]
    tau = helpers.angle_boost(beta, theta)[0]
    assert tuple(k for k in range(3) if tau[k] == 0.0) == axes
    nodes, probs = helpers.packet_rule(DELTA, n, convention)
    quats = geo.boost_quaternions(tau, nodes)
    for k in axes:
        image = _images(nodes, k)
        signs = np.full(4, -1.0)
        signs[[k, 3]] = 1.0
        np.testing.assert_array_equal(probs[image], probs)
        np.testing.assert_array_equal(quats[:, image], signs[:, None] * quats)


@pytest.mark.parametrize("convention, n, name", CASES)
def test_folded_values_match_unfolded(convention, n, name):
    (beta, theta), axes = BOOSTS[name]
    tau, lam = helpers.angle_boost(beta, theta)
    probs, rots = helpers.unfolded_kernel(lam, DELTA, n, convention)
    folded_probs = helpers.packet_rule(DELTA, n, convention, axes)[1]
    assert len(folded_probs) < len(probs)
    assert folded_probs.sum() == pytest.approx(1.0, rel=1e-14)
    # math.fsum: an einsum over the rotations accumulates 24^3 terms in order (2e-14)
    t = np.array([[math.fsum(probs * rots[:, i, j]) for j in range(3)] for i in range(3)])
    d, _ = sh.wigner_moments(tau, DELTA, n, convention)
    np.testing.assert_allclose(np.eye(3) + d, t, rtol=1e-14, atol=1e-15)
    # D_ij flips sign under the reflection of a folded axis k when exactly
    # one of i, j is k: those entries are exactly 0
    flipped = np.array([k in axes for k in range(3)])
    odd = (flipped[:, None] | flipped[None, :]) & ~np.eye(3, dtype=bool)
    assert np.all(d[odd] == 0.0)
    if convention is Measure.PLAIN:
        full = mixture_pair_error(probs, rots[:, :, 2])
        folded = sh.boosted_pair(tau, DELTA, n)[2]
        assert folded == pytest.approx(full, rel=1e-14, abs=0.0)
    else:
        full = 1.0 - 0.5 * probs @ np.sum((rots - t) ** 2, axis=(1, 2))
        folded = ent.boosted_singlet(tau, DELTA, n)[0]
        assert folded == pytest.approx(full, rel=1e-14, abs=0.0)


def test_generic_boost_folds_nothing():
    tau = helpers.boost([0.3, -0.4, 0.5])[0]
    assert np.all(tau != 0.0)
    nodes = helpers.packet_rule(DELTA, 6)[0]
    d, _ = sh.wigner_moments(tau, DELTA, 6)
    assert nodes.shape == (6**3, 3) and np.all(d != 0.0)


MOMENT_BOOSTS = {**{name: helpers.angle_boost(*bt) for name, (bt, _) in BOOSTS.items()},
                 "generic": helpers.boost([0.3, -0.4, 0.5])}


@pytest.mark.parametrize("convention", [Measure.PLAIN, Measure.INVARIANT])
@pytest.mark.parametrize("n", [7, 12, 24])
@pytest.mark.parametrize("name", MOMENT_BOOSTS)
def test_wigner_moments_match_unfolded_fsum(convention, n, name):
    # D = T - I and s = <sin^2(omega/2)> = <(3 - tr W)/4>, node by node over
    # the full grid of helpers.unfolded_kernel, each entry summed exactly by math.fsum
    tau, lam = MOMENT_BOOSTS[name]
    probs, rots = helpers.unfolded_kernel(lam, DELTA, n, convention)
    excess = rots - np.eye(3)
    expected = np.array([[math.fsum(probs * excess[:, i, j]) for j in range(3)]
                         for i in range(3)])
    d, s = sh.wigner_moments(tau, DELTA, n, convention)
    np.testing.assert_allclose(d, expected, rtol=1e-14, atol=0.0)
    sin2 = 0.25 * (3.0 - np.trace(rots, axis1=1, axis2=2))
    assert s == pytest.approx(math.fsum(probs * sin2), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("convention", [Measure.PLAIN, Measure.INVARIANT])
@pytest.mark.parametrize("n", [7, 12, 24])
def test_unfolded_rule_is_the_gauss_grid_rule(convention, n):
    # the stream builds gauss_grid's nodes bit for bit, block by block, and
    # its probabilities are the products of the 1-D Gauss-Hermite weights
    # (over the energy, INVARIANT), normalized here by math.fsum
    nodes, probs = helpers.packet_rule(DELTA, n, convention)
    grid = wp.gauss_grid(wp.GaussianSpec.isotropic(DELTA), n, convention, mass=1.0)
    np.testing.assert_array_equal(nodes, grid.nodes)
    _, w = wp._gauss_rule("Gauss-Hermite", n)
    products = np.multiply.outer(np.multiply.outer(w, w), w).ravel()
    if convention is Measure.INVARIANT:
        products = products / np.sqrt(1.0 + np.sum(nodes**2, axis=1))
    np.testing.assert_allclose(probs, products / math.fsum(products), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("convention", [Measure.PLAIN, Measure.INVARIANT])
@pytest.mark.parametrize("n", [7, 12, 24])
@pytest.mark.parametrize("axes", [(1,), (0, 1), (0, 1, 2)])
def test_folded_rule_keeps_one_node_per_mirror_orbit(convention, n, axes):
    nodes, masses = (np.concatenate(parts)
                     for parts in zip(*sh._packet_blocks(DELTA, n, convention, ())))
    keep = np.all(nodes[:, axes] >= 0.0, axis=1)
    images = 2.0 ** np.sum(nodes[keep][:, axes] > 0.0, axis=1)
    blocks = list(sh._packet_blocks(DELTA, n, convention, axes))
    assert max(len(block[0]) for block in blocks) <= sh._WIGNER_BLOCK
    folded = [np.concatenate(parts) for parts in zip(*blocks)]
    np.testing.assert_array_equal(folded[0], nodes[keep])
    np.testing.assert_array_equal(folded[1], masses[keep] * images)
    assert math.fsum(folded[1]) == pytest.approx(math.fsum(masses), rel=1e-14)


@pytest.mark.parametrize("axes", [(1,), (0, 1), (0, 1, 2)])
def test_fold_of_a_subnormal_width_selects_on_the_unit_rule(axes):
    # at delta = 5e-324 every delta x rounds to -0, 0 or one subnormal step:
    # the fold keeps the nodes with x >= 0, so the PLAIN masses, which hold
    # no delta, are those of any other width
    tiny, unit = ([np.concatenate(parts) for parts in zip(*sh._packet_blocks(
        delta, 12, Measure.PLAIN, axes))] for delta in (5e-324, DELTA))
    np.testing.assert_array_equal(tiny[1], unit[1])


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
        sh.wigner_moments(helpers.angle_boost(0.6, 0.4)[0], DELTA, 8)
    # a rule that folds nothing needs no symmetry
    d, _ = sh.wigner_moments(helpers.boost([0.3, -0.4, 0.5])[0], DELTA, 8)
    assert np.all(np.isfinite(d))
