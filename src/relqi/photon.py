"""Photon polarization on momentum wave packets.

Polarization is a momentum-attached (transverse) degree of freedom, so no
exact reduced density matrix exists; what is measurable is the POVM built
from the transverse parts of the Cartesian axes.  For each node k the
helicity basis is eps_pm(k) = R(khat) (1, +-i, 0)/sqrt(2) with R the
standard rotation, and the measurement vector attached to a real direction
d is its transverse projection b_d(k) = d - (d.khat) khat.  The effective
3x3 polarization matrix rho_mn = integral dmu |f|^2 alpha_m alpha_n^*
coincides entry by entry with the tomographic reconstruction from POVM
expectation values; the tests check the two routes against each other.

Circular beams need neither route: with P_T the transverse projector and
[khat]_x the cross-product matrix, helicity +-1 beams of one profile are
(<P_T> +- i[<khat>]_x)/2, with Helstrom error (1 - |<khat>|)/2.  The beam
and an observer moving along z are axially symmetric, so <P_T> is diagonal,
fixed by <sin^2 theta>, and <khat'> is <cos theta'> e_z, with cos theta'
from aberration node by node.  One photon kernel, `_beam_means`, takes both
means on a 2-D Gauss-Hermite x Gauss-Laguerre rule in (k_z, k_r^2), and
`circular_density`, `circular_pair_error` and `doppler_report` are short
functions of it.  `sweep_values`, `circular_density_values` and
`doppler_report` give `relqi.cli` plain Python floats, lists and dicts.

Boosts transport nodes along L k with the invariant-measure weights and the
helicity amplitudes unchanged (the transported 3-vector is the standard
rotation of the old one, which fixes the residual little-group phase to
zero); pure spatial rotations act on polarization vectors exactly.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry, qmatrix
from .wavepacket import (GaussianSpec, Measure, MomentumGrid, NumericalError, _gauss_rule,
                         ensure_same_grid, gauss_grid, inner_product, normalize)

DEFAULT_NODES_PER_AXIS = 12

EPS_PLUS_STD = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
EPS_MINUS_STD = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0)

_AXES = np.eye(3)


def directions(nodes) -> np.ndarray:
    """Unit directions khat = k / |k| of (n, 3) photon momenta."""
    return nodes / np.linalg.norm(nodes, axis=1)[:, None]


def helicity_vectors_batch(khats):
    """Right/left circular polarization vectors attached to each row of `khats`."""
    rots = geometry.standard_rotation_batch(khats)
    return rots @ EPS_PLUS_STD, rots @ EPS_MINUS_STD


def transversal_b(direction, khat):
    """Transverse part of a real unit direction and its longitudinal coefficient.

    Returns (b, ell) with b = direction - ell * khat, ell = direction . khat,
    so |b|^2 + ell^2 = 1 and b . khat = 0.  `khat` is one unit vector or an
    (n, 3) stack of them, for which b is (n, 3) and ell (n,).
    """
    direction = np.asarray(direction, dtype=float)
    khat = np.asarray(khat, dtype=float)
    for v in (direction, khat):
        if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-10):
            raise ValueError("direction and khat must be unit vectors")
    ell = khat @ direction
    return direction - ell[..., None] * khat, ell


@dataclass(frozen=True)
class PhotonPacket:
    """Scalar profile and per-node helicity amplitudes on an invariant grid."""

    grid: MomentumGrid
    profile: np.ndarray    # (n,) complex
    helicity: np.ndarray   # (n, 2) complex, unit norm per node

    def __post_init__(self):
        profile = np.ascontiguousarray(self.profile, dtype=complex)
        helicity = np.ascontiguousarray(self.helicity, dtype=complex)
        if self.grid.convention is not Measure.INVARIANT:
            raise ValueError("photon packets require the INVARIANT measure convention")
        if self.grid.mass != 0.0:
            raise ValueError("photon grids must be massless")
        if profile.shape != (self.grid.n,) or helicity.shape != (self.grid.n, 2):
            raise ValueError("profile/helicity shapes do not match the grid")
        node_norm = np.sum(np.abs(helicity) ** 2, axis=1)
        if np.abs(node_norm - 1.0).max() > 1e-10:
            raise ValueError("per-node helicity amplitudes must be normalized")
        total = np.real(inner_product(self.grid, profile, profile))
        if abs(total - 1.0) > 1e-8:
            raise NumericalError(f"profile norm {total:.12g} differs from 1")
        profile.setflags(write=False)
        helicity.setflags(write=False)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "helicity", helicity)

    def alpha_vectors(self) -> np.ndarray:
        """Geometrical polarization 3-vector at every node."""
        eps_p, eps_m = helicity_vectors_batch(directions(self.grid.nodes))
        return self.helicity[:, :1] * eps_p + self.helicity[:, 1:] * eps_m


def _beam_axis(k_mean: float, delta_z: float, delta_r: float, nodes_per_axis: int):
    """Gauss-Hermite nodes k_mean + delta_z t and weights along a beam, after its checks."""
    if k_mean <= 0.0 or delta_z <= 0.0 or delta_r <= 0.0:
        raise ValueError("k_mean and widths must be positive")
    if k_mean <= 5.0 * delta_z:
        raise ValueError("k_mean must exceed 5 * delta_z to keep nodes forward")
    if k_mean < 5.0 * delta_r:
        # attributed to the first caller outside relqi, whichever public function it called
        frame, level = sys._getframe(1), 2
        while frame is not None and frame.f_globals.get("__name__", "").startswith("relqi."):
            frame, level = frame.f_back, level + 1
        # the message names the beam, so that each beam warns once
        warnings.warn(f"k_mean {k_mean:.12g} < 5 * delta_r {delta_r:.12g}: beam is far from "
                      "paraxial", stacklevel=level)
    t, w = _gauss_rule("Gauss-Hermite", nodes_per_axis)
    k_z = k_mean + delta_z * t
    if np.any(k_z <= 0.0):
        raise ValueError("beam grid reaches zero or backward momenta")
    return k_z, w


def gaussian_beam(
    k_mean: float,
    delta_z: float,
    delta_r: float,
    helicity: int = +1,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
) -> PhotonPacket:
    """Cylindrical Gaussian beam along +z in the circular state `helicity` +-1.

    Requires k_mean > 5 delta_z so the grid stays in the forward cone; a
    beam with k_mean < 5 delta_r triggers a warning (the paraxial picture
    degrades).  Raises ValueError unless `helicity` is +1 or -1.
    """
    if helicity not in (1, -1):
        raise ValueError("helicity must be +1 or -1")
    _beam_axis(k_mean, delta_z, delta_r, nodes_per_axis)
    grid = gauss_grid(GaussianSpec.beam(k_mean, delta_z, delta_r),
                      nodes_per_axis, Measure.INVARIANT, mass=0.0)
    k = grid.nodes
    f = np.exp(
        -((k[:, 2] - k_mean) ** 2) / (2.0 * delta_z**2)
        - (k[:, 0] ** 2 + k[:, 1] ** 2) / (2.0 * delta_r**2)
    ).astype(complex)
    f = normalize(grid, f)
    hel = np.zeros((grid.n, 2), dtype=complex)
    hel[:, 0 if helicity > 0 else 1] = 1.0
    return PhotonPacket(grid=grid, profile=f, helicity=hel)


@dataclass(frozen=True)
class PolarizationPOVM:
    """Momentum-diagonal POVM elements for the x, y, z directions.

    Each element is stored as its per-node transverse vector; the three
    expectation values sum to one on every transverse state by construction.
    """

    grid: MomentumGrid
    bvecs: np.ndarray    # (3, n, 3) real

    def _weights2(self, packet: PhotonPacket) -> np.ndarray:
        ensure_same_grid(self.grid, packet.grid)
        return self.grid.weights * np.abs(packet.profile) ** 2

    def probabilities(self, packet: PhotonPacket) -> np.ndarray:
        """(p_x, p_y, p_z) on a packet."""
        w2 = self._weights2(packet)
        alpha = packet.alpha_vectors()
        overlaps = np.einsum("mnc,nc->mn", self.bvecs, alpha)
        return np.einsum("n,mn->m", w2, np.abs(overlaps) ** 2).real

    def expectation(self, packet: PhotonPacket, direction) -> float:
        """Expectation of the element attached to a (possibly complex) direction.

        The direction is normalized; its transverse part per node is the
        same linear combination of the stored vectors.
        """
        d = np.asarray(direction, dtype=complex)
        d = d / np.linalg.norm(d)
        w2 = self._weights2(packet)
        alpha = packet.alpha_vectors()
        b_d = np.einsum("m,mnc->nc", d, self.bvecs)
        overlaps = np.einsum("nc,nc->n", b_d.conj(), alpha)
        return float(np.sum(w2 * np.abs(overlaps) ** 2))

    def completeness_residual(self, packet: PhotonPacket) -> float:
        return float(abs(self.probabilities(packet).sum() - 1.0))


def build_povm(grid: MomentumGrid) -> PolarizationPOVM:
    """Transverse-projection POVM elements for the Cartesian directions."""
    if grid.convention is not Measure.INVARIANT:
        raise ValueError("polarization POVMs require an INVARIANT-convention grid")
    khat = directions(grid.nodes)
    bvecs = np.stack([transversal_b(axis, khat)[0] for axis in _AXES])
    return PolarizationPOVM(grid=grid, bvecs=bvecs)


def effective_density(psi: PhotonPacket) -> np.ndarray:
    """3x3 polarization matrix integral dmu |f|^2 alpha alpha^dagger."""
    w2 = psi.grid.weights * np.abs(psi.profile) ** 2
    alpha = psi.alpha_vectors()
    return qmatrix.hermitize(np.einsum("n,nm,nc->mc", w2, alpha, alpha.conj()))


def effective_density_tomography(psi: PhotonPacket) -> np.ndarray:
    """Polarization matrix rebuilt from POVM expectation values only.

    Diagonals come from the axis elements; off-diagonal entries from the
    combination elements along (m + n)/sqrt(2) and (m - i n)/sqrt(2).
    """
    povm = build_povm(psi.grid)
    diag = povm.probabilities(psi)
    rho = np.diag(diag).astype(complex)
    for m in range(3):
        for n in range(m + 1, 3):
            base = 0.5 * (diag[m] + diag[n])
            re = povm.expectation(psi, _AXES[m] + _AXES[n]) - base
            im = povm.expectation(psi, _AXES[m] - 1j * _AXES[n]) - base
            rho[m, n] = re + 1j * im
            rho[n, m] = re - 1j * im
    return rho


def boost_photon(lam: np.ndarray, psi: PhotonPacket) -> PhotonPacket:
    """Transport a packet through a boost.

    Nodes move to the spatial part of L k; the invariant-measure weights and
    the profile values ride along unchanged, and so do the helicity
    amplitudes (polarization vectors follow the standard-rotation transport).
    """
    k = psi.grid.nodes
    k4 = np.concatenate([np.linalg.norm(k, axis=1)[:, None], k], axis=1)
    k4_out = k4 @ np.asarray(lam, dtype=float).T
    if np.any(k4_out[:, 0] <= 0.0):
        raise ValueError("transported photon energies are not positive")
    grid = MomentumGrid(
        nodes=k4_out[:, 1:],
        weights=psi.grid.weights,
        convention=Measure.INVARIANT,
        mass=0.0,
    )
    return PhotonPacket(grid=grid, profile=psi.profile, helicity=psi.helicity)


def rotate_packet(rot: np.ndarray, psi: PhotonPacket) -> PhotonPacket:
    """Rotate a packet exactly: nodes and polarization 3-vectors by `rot`."""
    rot = np.asarray(rot, dtype=float)
    nodes = psi.grid.nodes @ rot.T
    grid = MomentumGrid(
        nodes=nodes,
        weights=psi.grid.weights,
        convention=Measure.INVARIANT,
        mass=0.0,
    )
    alpha = psi.alpha_vectors() @ rot.T
    eps_p, eps_m = helicity_vectors_batch(directions(nodes))
    hel = np.stack(
        [
            np.einsum("nc,nc->n", eps_p.conj(), alpha),
            np.einsum("nc,nc->n", eps_m.conj(), alpha),
        ],
        axis=1,
    )
    return PhotonPacket(grid=grid, profile=psi.profile, helicity=hel)


def _beam_means(k_mean, delta_z, delta_r, nodes_per_axis, speeds):
    """<sin^2 theta> at rest, and the pair (1 - <cos theta'>, 1 + <cos theta'>) per speed.

    The one photon kernel: the 2-D rule of a gaussian_beam, Gauss-Hermite
    in k_z times Gauss-Laguerre in k_r^2 / delta_r^2, whose weights absorb
    the beam envelope, with p = w_z w_x / |k| (invariant measure)
    normalised to 1.  The azimuth is averaged exactly, so any mean of an
    axially symmetric function of k is a sum over p.  For an observer
    moving at speed v along z, aberration gives 1 -+ cos theta' =
    (1 +- v)(|k| -+ k_z) / (|k| - v k_z), and |k| - k_z = k_r^2 / (|k| + k_z):
    every mean sums positive terms.
    Raises NumericalError when the smallest Laguerre weight underflows
    (from 196 nodes) and, before any node is squared, when the outermost
    |k|^2 overflows or the innermost k_z^2 is below the normal floats.
    """
    if any(abs(v) >= 1.0 for v in speeds):
        raise ValueError("observer speed must satisfy |v| < 1")
    k_z, w_z = _beam_axis(k_mean, delta_z, delta_r, nodes_per_axis)
    x, w_x = _gauss_rule("Gauss-Laguerre", nodes_per_axis)
    k_z_min, k_z_max = float(k_z[0]), float(k_z[-1])
    if not math.isfinite(k_z_max * k_z_max + delta_r * delta_r * float(x[-1])):
        raise NumericalError("|k|^2 overflows: the beam's momenta are too large for floats")
    if k_z_min * k_z_min < sys.float_info.min:
        raise NumericalError("k_z^2 underflows: the beam's momenta are too small for floats")
    k_z = k_z[:, None]
    k_r2 = delta_r * delta_r * x
    k = np.sqrt(k_z * k_z + k_r2)
    p = w_z[:, None] * w_x / k
    p /= p.sum()
    means = []
    for v in speeds:
        doppler = k - v * k_z
        minus = np.sum(p * (1.0 + v) * (k_r2 / (k + k_z)) / doppler)
        plus = np.sum(p * (1.0 - v) * (k + k_z) / doppler)
        means.append((float(minus), float(plus)))
    return float(np.sum(p * k_r2 / (k * k))), means


def circular_density(
    k_mean: float,
    delta_z: float,
    delta_r: float,
    helicity: int = +1,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
) -> np.ndarray:
    """Effective 3x3 polarization matrix of gaussian_beam, from the photon kernel.

    The beam is axially symmetric, so rho = (P +- i c [e_z]_x)/2 with
    P = diag(1 - S/2, 1 - S/2, S), S = <sin^2 theta> and c = <cos theta>,
    both from _beam_means at rest; the entries that vanish by symmetry are
    exactly 0.  Raises ValueError unless `helicity` is +1 or -1.
    """
    if helicity not in (1, -1):
        raise ValueError("helicity must be +1 or -1")
    s, ((minus, _),) = _beam_means(k_mean, delta_z, delta_r, nodes_per_axis, (0.0,))
    half_c = 0.5 * (1.0 - minus) * helicity
    rho = np.diag([0.5 - 0.25 * s, 0.5 - 0.25 * s, 0.5 * s]).astype(complex)
    rho[0, 1], rho[1, 0] = complex(0.0, -half_c), complex(0.0, half_c)
    return rho


def _doppler_factor(v: float) -> float:
    """(1 + v)/(1 - v): the leading-order scale of the pair error seen at speed v along z."""
    return (1.0 + v) / (1.0 - v)


def circular_density_values(k_mean, delta_z, delta_r, helicity, nodes_per_axis) -> dict:
    """circular_density as the nested lists rho_re and rho_im of a report."""
    rho = circular_density(k_mean, delta_z, delta_r, helicity, nodes_per_axis)
    return {"rho_re": rho.real.tolist(), "rho_im": rho.imag.tolist()}


def sweep_values(k_mean, delta_z, delta_r, v, nodes_per_axis) -> dict:
    """p_error, circular_pair_error at one resolution, and its delta_r / k_mean -> 0 limit.

    A ValueError that the rule raises carries that closed form, which needs
    no rule, as its `values`, so that a failed sweep row still prints it.
    """
    ratio = delta_r / (2.0 * k_mean)
    closed_form = {"p_error_closed_form": _doppler_factor(v) * (ratio * ratio)}
    try:
        p_error = circular_pair_error(k_mean, delta_z, delta_r, nodes_per_axis, v)
    except ValueError as exc:
        exc.values = closed_form
        raise
    return {"p_error": p_error, **closed_form}


def circular_pair_error(
    k_mean: float,
    delta_z: float,
    delta_r: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
    v: float = 0.0,
) -> float:
    """Helstrom error between the two circular beams of a common profile.

    `v` is the speed of an observer moving along z; at v = 0 the beams are
    compared in their rest frame.  The error (1 - |<cos theta'>|)/2 is the
    smaller of the two means of _beam_means, halved.  Strictly positive for
    any finite radial spread; tends to (1 + v)/(1 - v) delta_r^2 / (4 k_mean^2)
    as delta_r / k_mean -> 0.
    """
    _, (means,) = _beam_means(k_mean, delta_z, delta_r, nodes_per_axis, (v,))
    return 0.5 * min(means)


def orthogonality_audit(psi1: PhotonPacket, psi2: PhotonPacket) -> float:
    """Helstrom error of the two effective polarization matrices."""
    ensure_same_grid(psi1.grid, psi2.grid)
    return qmatrix.helstrom_error(effective_density(psi1), effective_density(psi2))


def doppler_report(
    k_mean: float,
    delta_z: float,
    delta_r: float,
    v: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
) -> dict:
    """Distinguishability of the circular pair for an observer moving along z.

    Returns pe_rest, pe_boosted, their ratio and the closed_form_ratio
    (1 + v)/(1 - v).  Positive v (observer receding along the propagation
    axis) redshifts the beam and scales the error by that law at leading
    order; negative v shrinks it by the same law.  Both errors come from
    one call of the photon kernel.
    """
    _, means = _beam_means(k_mean, delta_z, delta_r, nodes_per_axis, (0.0, v))
    pe_rest, pe_boosted = (0.5 * min(pair) for pair in means)
    return {"pe_rest": pe_rest, "pe_boosted": pe_boosted,
            "ratio": pe_boosted / pe_rest if pe_rest > 0.0 else math.nan,
            "closed_form_ratio": _doppler_factor(v)}
