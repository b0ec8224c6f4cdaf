"""Massive spin-1/2 wave packets under Lorentz boosts.

A packet is a two-component spinor amplitude on a PLAIN-convention momentum
grid.  Boosts transport each node q to the spatial part of L q, rotate the
spinor by the SU(2) Wigner rotation of the little group at q, multiply by
the energy-ratio prefactor sqrt(q0 / (Lq)0), and scale the weight by the
inverse Jacobian (Lq)0 / q0, so the quadrature norm is conserved exactly
and no resampling or interpolation ever happens.

Sweeps never build a boosted packet.  Tracing out the momentum of a
boosted packet with node probabilities p_n = w_n |h_n|^2 is the
random-unitary channel with Bloch matrix T = sum_n p_n W_n, the momentum
average of the 3x3 Wigner rotations (`wigner_kernel`).  Every sweep
observable is a short function of one kernel, `wigner_moments`: D = T - I
and s = <sin^2(omega/2)>, both linear in the second moment of the Wigner
quaternions.  The boosted spin-up and spin-down states are (I +- r.sigma)/2
with r = e_z + D e_z.  Each observable costs O(N) time in the N grid nodes;
its only O(N) memory is the rule cache, since the kernel works on blocks
of geometry._WIGNER_BLOCK nodes.  The kernel evaluates the quaternions
once per mirror orbit of the grid: the packet is centred on 0, so every
axis whose reflection commutes with the boost is folded, which keeps half
the nodes for a boost in the x-z plane, a quarter for a boost along z and
an eighth for the identity.  One LRU cache, `_packet_nodes`, holds the
16 most recently used rules, full or folded.

`sweep_values` returns the values of one sweep row at one resolution; the
n/2n convergence check of the row is made in `relqi.cli`.

The dimensionless boost-mixing parameter is
gamma_parameter = (width / mass) * (1 - sqrt(1 - beta^2)) / beta;
boost directions for sweeps lie in the x-z plane at angle theta from z
(the azimuth is immaterial by symmetry).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from . import geometry, qmatrix, wavepacket
from .wavepacket import GaussianSpec, Measure, MomentumGrid, gauss_grid, inner_product, normalize

DEFAULT_NODES_PER_AXIS = 12


@dataclass(frozen=True)
class SpinorPacket:
    """Two-component spinor amplitudes on a PLAIN momentum grid."""

    grid: MomentumGrid
    amps: np.ndarray   # (n, 2) complex
    mass: float

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=complex)
        if self.grid.convention is not Measure.PLAIN:
            raise ValueError("spinor packets require the PLAIN measure convention")
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.grid.mass != self.mass:
            raise ValueError("grid mass does not match the packet mass")
        if amps.shape != (self.grid.n, 2):
            raise ValueError("amplitudes must have shape (n_nodes, 2)")
        nrm = self.norm(amps)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"packet norm {nrm:.12g} differs from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self, amps=None) -> float:
        a = self.amps if amps is None else amps
        return float(np.sqrt(np.real(inner_product(self.grid, a, a))))


def gaussian_packet(
    delta: float,
    mass: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
    spinor=(1.0, 0.0),
) -> SpinorPacket:
    """Zero-centered isotropic Gaussian profile times a fixed spinor."""
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    grid = gauss_grid(GaussianSpec.isotropic(delta), nodes_per_axis, Measure.PLAIN, mass=mass)
    profile = np.exp(-np.sum(grid.nodes**2, axis=1) / (2.0 * delta * delta))
    spinor = np.asarray(spinor, dtype=complex)
    spinor = spinor / np.linalg.norm(spinor)
    amps = profile[:, None] * spinor[None, :]
    amps /= np.sqrt(np.real(inner_product(grid, amps, amps)))
    return SpinorPacket(grid=grid, amps=amps, mass=mass)


def boost_packet(lam: np.ndarray, psi: SpinorPacket) -> SpinorPacket:
    """Apply a Lorentz transformation to a packet (node transport, no resampling)."""
    p4_out, wigner = geometry.wigner_su2_batch(lam, psi.grid.nodes, psi.mass)
    q0 = psi.grid.k0()
    p0 = p4_out[:, 0]
    amps = np.sqrt(q0 / p0)[:, None] * np.einsum("nij,nj->ni", wigner, psi.amps)
    grid = MomentumGrid(
        nodes=p4_out[:, 1:],
        weights=psi.grid.weights * (p0 / q0),
        convention=Measure.PLAIN,
        mass=psi.mass,
    )
    return SpinorPacket(grid=grid, amps=amps, mass=psi.mass)


def reduced_spin_density(psi: SpinorPacket) -> np.ndarray:
    """2x2 spin state obtained by integrating out the momentum."""
    tau = np.einsum("n,ni,nj->ij", psi.grid.weights, psi.amps, psi.amps.conj())
    return qmatrix.hermitize(tau)


# Serializes the rule cache, so that rows in several threads build each rule once.
_GRID_LOCK = threading.Lock()


@functools.lru_cache(maxsize=16)
def _packet_nodes(delta, mass, nodes_per_axis, convention, axes):
    """Read-only nodes and probabilities p_n = w_n |h_n|^2 of the Gaussian packet.

    The full rule for `axes` == (), else its wavepacket.fold over the mirror
    `axes` (a tuple), taken from the cached full rule.  `axes` has no default:
    the cache would key a call without it apart from the same call with ().
    """
    if axes:
        return wavepacket.fold(*_packet_nodes(delta, mass, nodes_per_axis, convention, ()), axes)
    grid = gauss_grid(GaussianSpec.isotropic(delta), nodes_per_axis, convention, mass=mass)
    profile = normalize(grid, np.exp(-np.sum(grid.nodes**2, axis=1) / (2.0 * delta * delta)))
    probs = grid.weights * profile**2
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-8:
        raise wavepacket.NumericalError(f"node probabilities sum to {total:.12g}, not 1")
    probs.setflags(write=False)
    return grid.nodes, probs


def wigner_kernel(
    lam: np.ndarray,
    delta: float,
    mass: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
    convention: Measure = Measure.PLAIN,
):
    """Node probabilities and Wigner rotations of a boosted Gaussian packet.

    The packet is the zero-centered isotropic profile
    h = exp(-|p|^2 / (2 delta^2)), normalized under `convention`.  Returns
    (p, W): the (n,) probabilities p_n = w_n |h_n|^2 (read-only) and the
    (n, 3, 3) rotations W_n of the little group of `lam` at the nodes, from
    the closed-form SL(2,C) kernel geometry.wigner_rotation_batch.
    Tracing out the momentum of the boosted packet is the channel
    rho -> sum_n p_n U_n rho U_n^dagger, whose Bloch matrix is
    geometry.bloch_map(p, W).

    The nodes and probabilities depend only on (delta, mass, nodes_per_axis,
    convention), and one cache holds the 16 most recently used full or
    folded rules, so a sweep builds one grid per resolution and checks its
    probability sum once.
    """
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    with _GRID_LOCK:
        nodes, probs = _packet_nodes(delta, mass, nodes_per_axis, convention, ())
    _, rots = geometry.wigner_rotation_batch(lam, nodes, mass)
    return probs, rots


def wigner_moments(
    lam: np.ndarray,
    delta: float,
    mass: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
    convention: Measure = Measure.PLAIN,
):
    """D = T - I and s = <sin^2(omega/2)> of the boosted packet of wigner_kernel.

    With q_n = (x, y, z, w) the unit Wigner quaternion of W_n (rotation
    angle omega_n), W_n - I is quadratic in q_n, so T - I is linear in the
    4x4 second moment M = sum_n p_n q_n q_n^T:
    D_ij = 2 (M_ij - delta_ij s) - 2 eps_ijk M_wk with s = M_xx + M_yy + M_zz.
    Each diagonal entry is summed as -2 times the other two M_kk, a sum of
    positive terms.

    The quaternions are evaluated once per mirror orbit of the grid
    (wavepacket.fold over geometry.mirror_axes(lam); the packet is centred
    on 0 along every axis, and a boost in a generic direction folds
    nothing).  The image of a node under the reflection of a folded axis k
    carries the quaternion S q, with S = -1 on the two vector components
    other than k, so the full-grid M is invariant under M -> S M S: M is
    replaced by (M + S M S)/2, exact in floating point, which keeps its
    even entries and sets the odd ones to exactly 0.  M is summed block by
    block over geometry.wigner_quaternion_blocks.
    """
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    axes = geometry.mirror_axes(lam)
    with _GRID_LOCK:
        nodes, probs = _packet_nodes(delta, mass, nodes_per_axis, convention, axes)
    # the ten distinct entries, each a sum of per-block pairwise sums
    rows, cols = np.triu_indices(4)
    upper = np.zeros(len(rows))
    for block, _, q in geometry.wigner_quaternion_blocks(lam, nodes, mass):
        qp = q * probs[block]
        upper += [np.sum(q[i] * qp[j]) for i, j in zip(rows, cols)]
    m = np.empty((4, 4))
    m[rows, cols] = m[cols, rows] = upper
    for k in axes:
        signs = np.full(4, -1.0)
        signs[[k, 3]] = 1.0
        m = 0.5 * (m + signs[:, None] * m * signs)
    mxx, myy, mzz = np.diag(m)[:3]
    wx, wy, wz = 2.0 * m[3, :3]
    d = 2.0 * m[:3, :3] + np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    d[np.diag_indices(3)] = -2.0 * np.array([myy + mzz, mxx + mzz, mxx + myy])
    return d, float(mxx + myy + mzz)


def _boosted_pair(lam, delta, mass, nodes_per_axis):
    """(tau_up, tau_down, Helstrom error) of a boosted spin-up/spin-down pair.

    The boosted states are (I +- r.sigma)/2 with r = T e_z = e_z + D e_z.
    Their Helstrom error (1 - |r|)/2 is taken as
    (1 - |r|^2) / (2 (1 + |r|)) = (-2 D_zz - |D e_z|^2) / (2 (1 + |r|)),
    where -2 D_zz = 4 <x^2 + y^2> sums positive terms, so the error keeps
    its relative accuracy in the small-error (Gamma^2) regime.
    """
    d, _ = wigner_moments(lam, delta, mass, nodes_per_axis)
    dz = d[:, 2]
    r = dz + (0.0, 0.0, 1.0)
    p_error = max(0.0, float(-2.0 * dz[2] - dz @ dz) / (2.0 * (1.0 + np.linalg.norm(r))))
    r_sigma = r[0] * qmatrix.SIGMA_X + r[1] * qmatrix.SIGMA_Y + r[2] * qmatrix.SIGMA_Z
    return 0.5 * (qmatrix.ID2 + r_sigma), 0.5 * (qmatrix.ID2 - r_sigma), p_error


def gamma_parameter(delta: float, mass: float, beta: float) -> float:
    """(delta/mass) (1 - sqrt(1 - beta^2)) / beta, continued to 0 at beta = 0.

    Evaluated as (delta/mass) beta / (1 + sqrt(1 - beta^2)), which does not
    cancel at small beta.
    """
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return (delta / mass) * beta / (1.0 + np.sqrt(1.0 - beta * beta))


def beta_for_gamma(gamma: float, delta_over_m: float) -> float:
    """Invert gamma_parameter for beta at fixed delta/mass.

    With t = gamma / (delta/m) = tan(phi/2) and beta = sin(phi), the
    inverse is beta = 2t / (1 + t^2).  Requires gamma < delta/mass, since
    (1 - sqrt(1 - b^2))/b < 1.
    """
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    t = gamma / delta_over_m
    if t >= 1.0:
        raise ValueError(
            f"gamma {gamma:.6g} unreachable at delta/m = {delta_over_m:.6g}"
        )
    return 2.0 * t / (1.0 + t * t)


def boost_for_angle(beta: float, theta: float) -> np.ndarray:
    """Boost with speed beta at angle theta from z, in the x-z plane."""
    velocity = beta * np.array([np.sin(theta), 0.0, np.cos(theta)])
    return geometry.boost_from_velocity(velocity)


def boosted_pair_densities(delta, mass, beta, theta, nodes_per_axis=DEFAULT_NODES_PER_AXIS):
    """Reduced spin states of boosted spin-up and spin-down Gaussian packets."""
    return _boosted_pair(boost_for_angle(beta, theta), delta, mass, nodes_per_axis)[:2]


def boosted_pair_error(delta, mass, beta, theta, nodes_per_axis=DEFAULT_NODES_PER_AXIS) -> float:
    """Helstrom error for the boosted images of the orthogonal spin pair."""
    return _boosted_pair(boost_for_angle(beta, theta), delta, mass, nodes_per_axis)[2]


def sweep_values(theta: float, gamma: float, delta_over_m: float, nodes_per_axis: int) -> dict:
    """beta, spin entropy and pair error of a unit-mass packet at (theta, gamma).

    Gamma is inverted for beta at the fixed delta_over_m; an unreachable
    gamma raises ValueError.
    """
    beta = beta_for_gamma(gamma, delta_over_m)
    p_error = _boosted_pair(boost_for_angle(beta, theta), delta_over_m, 1.0, nodes_per_axis)[2]
    # tau_up has eigenvalues (1 +- |r|)/2 = 1 - p_error, p_error; taking them
    # from the variance form keeps the small one accurate at small Gamma
    entropy = qmatrix.entropy(np.diag([1.0 - p_error, p_error]))
    return {"beta": beta, "entropy_bits": entropy, "p_error": p_error}
