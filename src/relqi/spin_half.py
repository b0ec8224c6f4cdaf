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
with r = e_z + D e_z; `boosted_pair` returns both and their Helstrom
error.  Each observable costs O(N) time in the N grid nodes and
O(block + n) memory at any resolution: `_packet_blocks` streams the
packet's quadrature rule, built from the cached 1-D Gauss-Hermite rule, in
blocks of _WIGNER_BLOCK nodes through one geometry.wigner_quaternion_map,
and no n^3 grid is built or cached.  The rule is folded over every mirror
axis whose reflection commutes with the boost (the packet is centred on 0):
half the nodes are kept for a boost in the x-z plane, a quarter for a
boost along z and an eighth for the identity.

`sweep_values` returns the values of one sweep row at one resolution; the
n/2n convergence check of the row is made in `relqi.cli`.

The dimensionless boost-mixing parameter is
gamma_parameter = (width / mass) * (1 - sqrt(1 - beta^2)) / beta;
boost directions for sweeps lie in the x-z plane at angle theta from z
(the azimuth is immaterial by symmetry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, qmatrix, wavepacket
from .wavepacket import TWO_PI_CUBED, GaussianSpec, Measure, MomentumGrid, _gauss_rule, gauss_grid

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
        nrm = wavepacket.norm(self.grid, amps)
        if abs(nrm - 1.0) > 1e-8:
            raise wavepacket.NumericalError(f"packet norm {nrm:.12g} differs from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


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
    amps /= wavepacket.norm(grid, amps)
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


# Nodes per block of the packet rules: no per-node array, (n,) or (n, 4), is
# longer, so the scratch of a row is about 1 MB at any grid size.
_WIGNER_BLOCK = 2048


def _packet_blocks(delta, mass, nodes_per_axis, convention, axes):
    """The quadrature rule of the Gaussian packet of wigner_kernel, in blocks.

    Yields (nodes, weights, profile, probs) for consecutive blocks of
    gauss_grid's tensor Gauss-Hermite rule, in its C order, built from the
    cached 1-D rule: the (b, 3) nodes, their PLAIN or INVARIANT weights w_n,
    the normalized profile h_n and the probabilities p_n = m_n w_n h_n^2.
    A block is a run of whole z lines of at most _WIGNER_BLOCK nodes
    (one line, when a line is longer).  Along each mirror axis k in `axes`
    only the nodes with q_k >= 0 are kept, and the multiplicity m_n doubles
    for each such k with q_k > 0, so that sum_n p_n f(q_n) is the full
    rule's sum for any f even under those reflections.  The profile
    exp(-|q|^2 / (2 delta^2)) is normalized by one scalar,
    Z = sum_n m_n w_n h_n^2, taken in a streaming pass before the first
    block.  Nothing of size n^3 is built or kept: every array is O(block + n).

    Raises NumericalError when a 1-D weight is not finite and positive or,
    for nonempty `axes`, when the 1-D rule is not exactly mirror-symmetric
    (x == -x[::-1], w == w[::-1]), and, after the last block, when the
    probabilities do not sum to 1 within 1e-8.
    """
    x, w = _gauss_rule("Gauss-Hermite", nodes_per_axis)
    if axes and not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])):
        raise wavepacket.NumericalError(
            f"the Gauss-Hermite rule at {nodes_per_axis} nodes is not mirror-symmetric")
    q, wq = delta * x, delta * w * np.exp(x * x)
    if not np.all(np.isfinite(wq) & (wq > 0.0)):
        raise wavepacket.NumericalError(
            f"the Gauss-Hermite rule breaks down at {nodes_per_axis} nodes")
    half = q >= 0.0
    (px, wx, mx), (py, wy, my), (pz, wz, mz) = (
        (q[half], wq[half], np.where(q[half] > 0.0, 2.0, 1.0)) if k in axes
        else (q, wq, np.ones(nodes_per_axis)) for k in range(3))
    # z lines per block; line l holds the nodes (px[i], py[j], pz), (i, j) = divmod(l, len(py))
    lines = max(1, _WIGNER_BLOCK // len(pz))
    starts = range(0, len(px) * len(py), lines)

    def block(start):
        i, j = np.divmod(np.arange(start, min(start + lines, starts.stop)), len(py))
        r2 = ((px[i] * px[i] + py[j] * py[j])[:, None] + pz * pz).ravel()
        weights = ((wx[i] * wy[j])[:, None] * wz).ravel()
        if convention is Measure.INVARIANT:
            weights = weights / (TWO_PI_CUBED * 2.0 * np.sqrt(mass * mass + r2))
        h = np.exp(-r2 / (2.0 * delta * delta))
        return i, j, weights, h, ((mx[i] * my[j])[:, None] * mz).ravel()

    norm = np.sqrt(sum(float(np.sum(weights * (h * h) * mult))
                       for _, _, weights, h, mult in map(block, starts)))
    total = 0.0
    for i, j, weights, h, mult in map(block, starts):
        nodes = np.empty((len(i), len(pz), 3))
        nodes[..., 0], nodes[..., 1], nodes[..., 2] = px[i, None], py[j, None], pz
        profile = h / norm
        probs = weights * profile**2 * mult
        total += float(np.sum(probs))
        yield nodes.reshape(-1, 3), weights, profile, probs
    if not abs(total - 1.0) <= 1e-8:
        raise wavepacket.NumericalError(f"node probabilities sum to {total:.12g}, not 1")


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
    (p, W): the (n,) probabilities p_n = w_n |h_n|^2 and the (n, 3, 3)
    rotations W_n of the little group of `lam` at the nodes of the full
    (unfolded) rule, from geometry.wigner_rotation_batch.
    Tracing out the momentum of the boosted packet is the channel
    rho -> sum_n p_n U_n rho U_n^dagger, whose Bloch matrix is
    geometry.bloch_map(p, W).
    """
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    nodes, _, _, probs = (np.concatenate(parts) for parts in zip(
        *_packet_blocks(delta, mass, nodes_per_axis, convention, ())))
    return probs, geometry.wigner_rotation_batch(lam, nodes, mass)[1]


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

    The quaternions are evaluated once per mirror orbit of the grid: the
    rule is folded over geometry.mirror_axes(lam) (the packet is centred on
    0 along every axis, and a boost in a generic direction folds nothing).
    The image of a node under the reflection of a folded axis k carries the
    quaternion S q, with S = -1 on the two vector components other than k,
    so the full-grid M is invariant under M -> S M S: M is replaced by
    (M + S M S)/2, exact in floating point, which keeps its even entries
    and sets the odd ones to exactly 0.  The rule's blocks pass through one
    geometry.wigner_quaternion_map of `lam`, and M adds each block's
    (q p) q^T, so a call holds O(block + n) memory at any resolution.
    """
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    axes = geometry.mirror_axes(lam)
    wigner = geometry.wigner_quaternion_map(lam, mass)
    m = np.zeros((4, 4))
    for nodes, _, _, probs in _packet_blocks(delta, mass, nodes_per_axis, convention, axes):
        q = wigner(nodes)[1]
        m += (q * probs) @ q.T
    for k in axes:
        signs = np.full(4, -1.0)
        signs[[k, 3]] = 1.0
        m = 0.5 * (m + signs[:, None] * m * signs)
    mxx, myy, mzz = np.diag(m)[:3]
    wx, wy, wz = 2.0 * m[3, :3]
    d = 2.0 * m[:3, :3] + np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    d[np.diag_indices(3)] = -2.0 * np.array([myy + mzz, mxx + mzz, mxx + myy])
    return d, float(mxx + myy + mzz)


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


def boosted_pair(delta, mass, beta, theta, nodes_per_axis):
    """(tau_up, tau_down, Helstrom error) of a boosted spin-up/spin-down Gaussian pair.

    The boost has speed beta at angle theta from z (boost_for_angle).  The
    boosted states are (I +- r.sigma)/2 with r = T e_z = e_z + D e_z.
    Their Helstrom error (1 - |r|)/2 is taken as
    (1 - |r|^2) / (2 (1 + |r|)) = (-2 D_zz - |D e_z|^2) / (2 (1 + |r|)),
    where -2 D_zz = 4 <x^2 + y^2> sums positive terms, so the error keeps
    its relative accuracy in the small-error (Gamma^2) regime.
    """
    d, _ = wigner_moments(boost_for_angle(beta, theta), delta, mass, nodes_per_axis)
    dz = d[:, 2]
    r = dz + (0.0, 0.0, 1.0)
    p_error = max(0.0, float((-2.0 * dz[2] - dz @ dz) / (2.0 * (1.0 + np.linalg.norm(r)))))
    r_sigma = r[0] * qmatrix.SIGMA_X + r[1] * qmatrix.SIGMA_Y + r[2] * qmatrix.SIGMA_Z
    return 0.5 * (qmatrix.ID2 + r_sigma), 0.5 * (qmatrix.ID2 - r_sigma), p_error


def sweep_values(theta: float, gamma: float, delta_over_m: float, nodes_per_axis: int) -> dict:
    """beta, spin entropy and pair error of a unit-mass packet at (theta, gamma).

    Gamma is inverted for beta at the fixed delta_over_m; an unreachable
    gamma raises ValueError.
    """
    beta = beta_for_gamma(gamma, delta_over_m)
    p_error = boosted_pair(delta_over_m, 1.0, beta, theta, nodes_per_axis)[2]
    # tau_up has eigenvalues p_error and 1 - p_error, so its entropy is the binary
    # entropy of p_error; log1p(-p) keeps the digits that a rounded 1 - p loses
    entropy = 0.0 if p_error == 0.0 else -(
        p_error * math.log2(p_error) + (1.0 - p_error) * math.log1p(-p_error) / math.log(2.0))
    return {"beta": beta, "entropy_bits": entropy, "p_error": p_error}
