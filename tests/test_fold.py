"""Mirror folding of the Gauss-Hermite grids: the kernels evaluated once per orbit."""

import math

import numpy as np
import pytest

from relqi import entangle as ent
from relqi import geometry as geo
from relqi import photon as ph
from relqi import qmatrix as qm
from relqi import spin_half as sh
from relqi import wavepacket as wp
from relqi.wavepacket import Measure

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
    nodes, probs = sh._packet_nodes(DELTA, MASS, n, convention)
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
    folded_probs, quats, odd = sh.folded_wigner_kernel(lam, DELTA, MASS, n, convention)
    assert len(folded_probs) < len(probs)
    assert folded_probs.sum() == pytest.approx(1.0, rel=1e-14)
    # math.fsum: the einsum of bloch_map accumulates 24^3 terms in order (2e-14)
    t = np.array([[math.fsum(probs * rots[:, i, j]) for j in range(3)] for i in range(3)])
    folded_t = np.where(odd, 0.0, geo.bloch_map(folded_probs, geo.quaternion_rotations(quats)))
    np.testing.assert_allclose(folded_t, t, rtol=1e-14, atol=1e-15)
    if convention is Measure.PLAIN:
        full = qm.mixture_pair_error(probs, rots[:, :, 2])
        folded = sh.boosted_pair_error(DELTA, MASS, beta, theta, n)
        assert folded == pytest.approx(full, rel=1e-14, abs=0.0)
    else:
        full = 1.0 - 0.5 * probs @ np.sum((rots - t) ** 2, axis=(1, 2))
        folded = ent.boosted_singlet(lam, DELTA, MASS, n)[0]
        assert folded == pytest.approx(full, rel=1e-14, abs=0.0)


def test_generic_boost_folds_nothing():
    lam = geo.boost_from_velocity([0.3, -0.4, 0.5])
    assert geo.mirror_axes(lam) == ()
    probs, quats, odd = sh.folded_wigner_kernel(lam, DELTA, MASS, 6)
    assert quats.shape == (6**3, 4) and not odd.any()
    np.testing.assert_array_equal(probs, sh._packet_nodes(DELTA, MASS, 6, Measure.PLAIN)[1])


def test_beam_grid_does_not_fold_along_its_axis():
    beam = ph.gaussian_beam(100.0, 0.1, 1.0, +1, 8)
    probs = beam.grid.weights * np.abs(beam.profile) ** 2
    nodes, folded = wp.fold(beam.grid.nodes, probs, (0, 1))
    assert len(folded) == 8**3 // 4
    assert folded.sum() == pytest.approx(probs.sum(), rel=1e-14)
    assert np.all(nodes[:, :2] >= 0.0)
    with pytest.raises(ValueError, match="not mirror-symmetric along z"):
        wp.fold(beam.grid.nodes, probs, (2,))


def test_fold_rejects_asymmetric_probabilities():
    nodes, probs = sh._packet_nodes(DELTA, MASS, 4, Measure.PLAIN)
    skewed = probs * (1.0 + 1e-15 * (nodes[:, 0] > 0.0))
    wp.fold(nodes, skewed, (1, 2))
    with pytest.raises(ValueError, match="along x"):
        wp.fold(nodes, skewed, (0,))
