"""Photon polarization on momentum wave packets.

Polarization is a momentum-attached (transverse) degree of freedom, so no
exact reduced density matrix exists; what is measurable is the POVM built
from the transverse parts of the Cartesian axes.  For each node k the
helicity basis is eps_pm(k) = R(khat) (1, +-i, 0)/sqrt(2) with R the
standard rotation, and the measurement vector attached to a real direction
d is its transverse projection b_d(k) = d - (d.khat) khat.  A packet is its
grid and the helicity amplitudes f_pm(k), one (n, 2) array, and its
polarization vector at k is alpha = f_+ eps_+ + f_- eps_-.  wavepacket
checks the amplitudes, builds a beam's Gaussian profile and traces the
momentum out; this module adds the helicity factor, the massless rule and
the standard-rotation action.  The effective 3x3 polarization matrix
rho_mn = integral dmu alpha_m alpha_n^*, the momentum trace of alpha,
coincides entry by entry with the tomographic reconstruction from POVM
expectation values; the tests check the two routes against each other.

Circular beams need neither route: with P_T the transverse projector and
[khat]_x the cross-product matrix, helicity +-1 beams of one profile are
(<P_T> +- i[<khat>]_x)/2, with Helstrom error (1 - |<khat>|)/2.  The beam
and an observer moving along z are axially symmetric, so <P_T> is diagonal,
fixed by <sin^2 theta>, and <khat'> is <cos theta'> e_z, with cos theta'
from aberration node by node.  One photon kernel, `_beam_means`, takes both
means on a 2-D Gauss-Hermite x Gauss-Laguerre rule in (k_z, k_r^2), and
`circular_density_values`, `circular_pair_error` and `doppler_report` are
short functions of it.  The kernel works on Python floats with `math` and
reads no numpy, so these functions and `sweep_values` give `relqi.cli`
plain Python floats, lists and dicts without loading numpy
(relqi._numpy).  The 3-D beam, its POVM and the helicity basis build the
numpy arrays they compute with inside each call.
Every node k_z = k_mean + delta_z t of a beam's Gauss-Hermite rule is
forward exactly when k_mean > beam_reach(n) delta_z, with beam_reach the
rule's outermost node: `_beam_axis` refuses any other beam with a
ValueError, and `relqi.cli` makes the same check before any row, at the
most nodes per axis it evaluates.

Boosts transport nodes along L k with the invariant-measure weights and the
helicity amplitudes unchanged (the transported 3-vector is the standard
rotation of the old one, which fixes the residual little-group phase to
zero); pure spatial rotations act on polarization vectors exactly.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings

from . import geometry
from ._numpy import np
from .wavepacket import (DEFAULT_NODES_PER_AXIS, GaussianSpec, Measure, MomentumGrid,
                         NumericalError, Record, _gauss_floats, checked_amplitudes,
                         ensure_same_grid, gaussian_profile, momentum_trace)


def directions(nodes) -> np.ndarray:
    """Unit directions khat = k / |k| of (n, 3) photon momenta."""
    return nodes / np.linalg.norm(nodes, axis=1)[:, None]


def helicity_vectors_batch(khats):
    """Right/left circular polarization vectors attached to each row of `khats`: the standard
    rotations R(khat) of (1, +-i, 0)/sqrt(2)."""
    rots = geometry.standard_rotation_batch(khats)
    eps_plus, eps_minus = np.array([[1.0, 1.0j, 0.0], [1.0, -1.0j, 0.0]]) / np.sqrt(2.0)
    return rots @ eps_plus, rots @ eps_minus


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


class PhotonPacket(Record):
    """Helicity amplitudes f_pm(k) on a massless invariant grid: (n, 2) complex, columns
    helicity +1 and -1."""

    __slots__ = ("grid", "amps")

    def __init__(self, grid: MomentumGrid, amps: np.ndarray):
        super().__init__(grid=grid, amps=amps)

    def __post_init__(self):
        if self.grid.convention is not Measure.INVARIANT:
            raise ValueError("photon packets require the INVARIANT measure convention")
        if self.grid.mass != 0.0:
            raise ValueError("photon grids must be massless")
        object.__setattr__(self, "amps", checked_amplitudes(self.grid.weights, self.amps,
                                                            (self.grid.n, 2)))

    def alpha_vectors(self) -> np.ndarray:
        """Polarization 3-vector f_+ eps_+ + f_- eps_- at every node."""
        eps_p, eps_m = helicity_vectors_batch(directions(self.grid.nodes))
        return self.amps[:, :1] * eps_p + self.amps[:, 1:] * eps_m


def beam_reach(nodes_per_axis: int) -> float:
    """The outermost node t of the Gauss-Hermite rule: 3.89 at 12 nodes, 6.016 at 24.

    Every node k_z = k_mean + delta_z t of a beam on that rule is forward
    exactly when k_mean > beam_reach(nodes_per_axis) * delta_z: the rule is
    mirrored exactly, so its innermost node is -t.
    """
    return _gauss_floats("Gauss-Hermite", nodes_per_axis)[0][-1]


def _beam_axis(k_mean: float, delta_z: float, delta_r: float, nodes_per_axis: int):
    """Gauss-Hermite nodes k_mean + delta_z t and weights along a beam, after its checks, as
    float tuples.  A node at k_z <= 0, k_mean <= beam_reach(nodes_per_axis) * delta_z,
    raises ValueError."""
    if k_mean <= 0.0 or delta_z <= 0.0 or delta_r <= 0.0:
        raise ValueError("k_mean and widths must be positive")
    t, w = _gauss_floats("Gauss-Hermite", nodes_per_axis)
    if not k_mean > t[-1] * delta_z:
        raise ValueError(f"k_mean must exceed {t[-1]:.12g} * delta_z: the outermost of "
                         f"{nodes_per_axis} beam nodes reaches zero or backward momenta")
    if k_mean < 5.0 * delta_r:
        # attributed to the first caller outside relqi, whichever public function it called
        frame, level = sys._getframe(1), 2
        while frame is not None and frame.f_globals.get("__name__", "").startswith("relqi."):
            frame, level = frame.f_back, level + 1
        # the message names the beam, so that each beam warns once
        warnings.warn(f"k_mean {k_mean:.12g} < 5 * delta_r {delta_r:.12g}: beam is far from "
                      "paraxial", stacklevel=level)
    return tuple(k_mean + delta_z * ti for ti in t), w


def gaussian_beam(
    k_mean: float,
    delta_z: float,
    delta_r: float,
    helicity: int = +1,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
) -> PhotonPacket:
    """Cylindrical Gaussian beam along +z in the circular state `helicity` +-1.

    Requires k_mean > beam_reach(nodes_per_axis) * delta_z, which keeps every
    node forward (_beam_axis); k_mean < 5 delta_r warns (the paraxial picture
    degrades).  Raises ValueError unless `helicity` is +1 or -1.
    """
    if helicity not in (1, -1):
        raise ValueError("helicity must be +1 or -1")
    _beam_axis(k_mean, delta_z, delta_r, nodes_per_axis)
    grid, h = gaussian_profile(GaussianSpec.beam(k_mean, delta_z, delta_r), nodes_per_axis,
                               Measure.INVARIANT)
    amps = np.zeros((grid.n, 2), dtype=complex)
    amps[:, 0 if helicity > 0 else 1] = h
    return PhotonPacket(grid=grid, amps=amps)


class PolarizationPOVM(Record):
    """Momentum-diagonal POVM elements for the x, y, z directions.

    Each element is stored as its per-node transverse vector, bvecs (3, n, 3)
    real; the three expectation values sum to one on every transverse state
    by construction.
    """

    __slots__ = ("grid", "bvecs")

    def __init__(self, grid: MomentumGrid, bvecs: np.ndarray):
        super().__init__(grid=grid, bvecs=bvecs)

    def probabilities(self, packet: PhotonPacket) -> np.ndarray:
        """(p_x, p_y, p_z) on a packet: the expectations of the three axis elements."""
        return np.array([self.expectation(packet, axis) for axis in np.eye(3)])

    def expectation(self, packet: PhotonPacket, direction) -> float:
        """Expectation of the element attached to a (possibly complex) direction.

        The direction is normalized; its transverse part per node is the
        same linear combination of the stored vectors.
        """
        d = np.asarray(direction, dtype=complex)
        d = d / np.linalg.norm(d)
        ensure_same_grid(self.grid, packet.grid)
        b_d = np.einsum("m,mnc->nc", d, self.bvecs)
        overlaps = np.einsum("nc,nc->n", b_d.conj(), packet.alpha_vectors())
        return float(np.sum(self.grid.weights * np.abs(overlaps) ** 2))

    def completeness_residual(self, packet: PhotonPacket) -> float:
        return float(abs(self.probabilities(packet).sum() - 1.0))


def build_povm(grid: MomentumGrid) -> PolarizationPOVM:
    """Transverse-projection POVM elements for the Cartesian directions."""
    if grid.convention is not Measure.INVARIANT:
        raise ValueError("polarization POVMs require an INVARIANT-convention grid")
    khat = directions(grid.nodes)
    bvecs = np.stack([transversal_b(axis, khat)[0] for axis in np.eye(3)])
    return PolarizationPOVM(grid=grid, bvecs=bvecs)


def effective_density(psi: PhotonPacket) -> np.ndarray:
    """3x3 polarization matrix integral dmu alpha alpha^dagger."""
    return momentum_trace(psi.grid.weights, psi.alpha_vectors())


def effective_density_tomography(psi: PhotonPacket) -> np.ndarray:
    """Polarization matrix rebuilt from POVM expectation values only.

    Diagonals come from the axis elements; off-diagonal entries from the
    combination elements along (m + n)/sqrt(2) and (m - i n)/sqrt(2).
    """
    povm = build_povm(psi.grid)
    diag = povm.probabilities(psi)
    rho = np.diag(diag).astype(complex)
    axes = np.eye(3)
    for m in range(3):
        for n in range(m + 1, 3):
            base = 0.5 * (diag[m] + diag[n])
            re = povm.expectation(psi, axes[m] + axes[n]) - base
            im = povm.expectation(psi, axes[m] - 1j * axes[n]) - base
            rho[m, n] = re + 1j * im
            rho[n, m] = re - 1j * im
    return rho


def boost_photon(lam: np.ndarray, psi: PhotonPacket) -> PhotonPacket:
    """Transport a packet through a boost.

    Nodes move to the spatial part of L k; the invariant-measure weights and
    the helicity amplitudes ride along unchanged (polarization vectors
    follow the standard-rotation transport).
    """
    k4 = np.concatenate([psi.grid.k0()[:, None], psi.grid.nodes], axis=1)
    k4_out = k4 @ np.asarray(lam, dtype=float).T
    if np.any(k4_out[:, 0] <= 0.0):
        raise ValueError("transported photon energies are not positive")
    return PhotonPacket(grid=psi.grid.with_nodes(k4_out[:, 1:]), amps=psi.amps)


def rotate_packet(rot: np.ndarray, psi: PhotonPacket) -> PhotonPacket:
    """Rotate a packet exactly: nodes and polarization 3-vectors by `rot`."""
    rot = np.asarray(rot, dtype=float)
    grid = psi.grid.with_nodes(psi.grid.nodes @ rot.T)
    alpha = psi.alpha_vectors() @ rot.T
    eps = np.conj(helicity_vectors_batch(directions(grid.nodes)))  # (2, n, 3)
    return PhotonPacket(grid=grid, amps=np.einsum("hnc,nc->nh", eps, alpha))


@functools.lru_cache(maxsize=2)
def _beam_rule(k_z, w_z, k_r2, w_x):
    """<sin^2 theta> and the node tuples p, k_r^2 / (|k| + k_z), |k| and k_z of a beam's rule.

    The 2-D rule of _beam_means, node by node, from the nodes k_z and
    k_r^2 and the weights of its two 1-D rules (float tuples), with
    p = w_z w_x / |k| normalised to 1.  The rows of a sweep over speeds
    share one beam, so the last two rules (a row's n and 2n) are cached:
    32 bytes a node and tuple, about 4.9 MB at 195 nodes per axis, the most
    before the Gauss-Laguerre rule breaks down.
    """
    z = [kz for kz in k_z for _ in k_r2]
    r2 = k_r2 * len(k_z)
    k = [math.sqrt(kz * kz + x) for kz, x in zip(z, r2)]
    p = [w / kk for w, kk in zip([wz * wx for wz in w_z for wx in w_x], k)]
    total = math.fsum(p)
    p = [pi / total for pi in p]
    sin2 = math.fsum([pi * x / (kk * kk) for pi, x, kk in zip(p, r2, k)])
    a = [x / (kk + kz) for x, kk, kz in zip(r2, k, z)]
    return sin2, tuple(p), tuple(a), tuple(k), tuple(z)


def _beam_means(k_mean, delta_z, delta_r, nodes_per_axis, speeds):
    """<sin^2 theta> at rest, and the pair (1 - <cos theta'>, 1 + <cos theta'>) per speed.

    The one photon kernel: the 2-D rule of a gaussian_beam, Gauss-Hermite
    in k_z times Gauss-Laguerre in k_r^2 / delta_r^2, whose weights absorb
    the beam envelope, with p = w_z w_x / |k| (invariant measure)
    normalised to 1 (_beam_rule).  The azimuth is averaged exactly, so any
    mean of an axially symmetric function of k is a sum over p.  For an
    observer moving at speed v along z, aberration gives 1 -+ cos theta' =
    (1 +- v)(|k| -+ k_z) / (|k| - v k_z), and |k| - k_z = k_r^2 / (|k| + k_z):
    every mean sums positive terms, in floats with math.fsum, which rounds
    the exact sum once.
    Raises NumericalError when the smallest Laguerre weight underflows
    (from 196 nodes) and, before any node is squared, when the outermost
    |k|^2 overflows or the innermost k_z^2 is below the normal floats.
    """
    if any(abs(v) >= 1.0 for v in speeds):
        raise ValueError("observer speed must satisfy |v| < 1")
    k_z, w_z = _beam_axis(k_mean, delta_z, delta_r, nodes_per_axis)
    x, w_x = _gauss_floats("Gauss-Laguerre", nodes_per_axis)
    if not math.isfinite(k_z[-1] * k_z[-1] + delta_r * delta_r * x[-1]):
        raise NumericalError("|k|^2 overflows: the beam's momenta are too large for floats")
    if k_z[0] * k_z[0] < sys.float_info.min:
        raise NumericalError("k_z^2 underflows: the beam's momenta are too small for floats")
    sin2, p, a, k, z = _beam_rule(k_z, w_z, tuple(delta_r * delta_r * xi for xi in x), w_x)
    means = []
    for v in speeds:
        up, down = 1.0 + v, 1.0 - v
        minus = math.fsum([pi * up * ai / (kk - v * kz) for pi, ai, kk, kz in zip(p, a, k, z)])
        plus = math.fsum([pi * down * (kk + kz) / (kk - v * kz) for pi, kk, kz in zip(p, k, z)])
        means.append((minus, plus))
    return sin2, means


def circular_density_values(k_mean, delta_z, delta_r, helicity, nodes_per_axis) -> dict:
    """The effective 3x3 polarization matrix of gaussian_beam, from the photon kernel, as the
    nested float lists rho_re and rho_im (its real and imaginary parts) of a report.

    The beam is axially symmetric, so rho = (P +- i c [e_z]_x)/2 with
    P = diag(1 - S/2, 1 - S/2, S), S = <sin^2 theta> and c = <cos theta>,
    both from _beam_means at rest; the entries that vanish by symmetry are
    exactly 0.  Raises ValueError unless `helicity` is +1 or -1.
    """
    if helicity not in (1, -1):
        raise ValueError("helicity must be +1 or -1")
    s, ((minus, _),) = _beam_means(k_mean, delta_z, delta_r, nodes_per_axis, (0.0,))
    half_c = 0.5 * (1.0 - minus) * helicity
    transverse = 0.5 - 0.25 * s
    return {"rho_re": [[transverse, 0.0, 0.0], [0.0, transverse, 0.0], [0.0, 0.0, 0.5 * s]],
            "rho_im": [[0.0, -half_c, 0.0], [half_c, 0.0, 0.0], [0.0, 0.0, 0.0]]}


def _doppler_factor(v: float) -> float:
    """(1 + v)/(1 - v): the leading-order scale of the pair error seen at speed v along z."""
    return (1.0 + v) / (1.0 - v)


def sweep_values(k_mean, delta_z, delta_r, v, nodes_per_axis) -> dict:
    """p_error, circular_pair_error at one resolution, and its closed form p_error_closed_form.

    The closed form (1 + v)/(1 - v) delta_r^2 / (4 k_mean^2) is the limit
    where both delta_r / k_mean -> 0 and delta_z / k_mean -> 0: at a fixed
    delta_z / k_mean the relative gap p_error / p_error_closed_form - 1
    levels off near 2.5 (delta_z / k_mean)^2 as delta_r falls (2.5e-6 at the
    defaults k_mean = 100, delta_z = 0.1).  A ValueError that the rule raises
    carries the closed form, which needs no rule, as its `values`, so that a
    failed sweep row still prints it.
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
    as delta_r / k_mean and delta_z / k_mean -> 0 (sweep_values).
    """
    _, (means,) = _beam_means(k_mean, delta_z, delta_r, nodes_per_axis, (v,))
    return 0.5 * min(means)


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
