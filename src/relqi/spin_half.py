"""Massive spin-1/2 wave packets under Lorentz boosts.

A packet is a two-component spinor amplitude on a PLAIN-convention momentum
grid.  Boosts transport each node q to the spatial part of L q, rotate the
spinor by the SU(2) Wigner rotation of the little group at q, multiply by
the energy-ratio prefactor sqrt(q0 / (Lq)0), and scale the weight by the
inverse Jacobian (Lq)0 / q0, so the quadrature norm is conserved exactly
and no resampling or interpolation ever happens.

Sweeps never build a boosted packet or a Lorentz matrix.  Tracing out the
momentum of a boosted packet with node probabilities p_n is the
random-unitary channel with Bloch matrix T = sum_n p_n W_n, the momentum
average of the 3x3 Wigner rotations W_n.  Every sweep observable is a
short function of one kernel, `wigner_moments` of the boost
tau = tanh(xi/2) n and the width delta/m: D = T - I and
s = <sin^2(omega/2)>, both linear in the second moment of the Wigner
quaternions.  The boosted spin-up and spin-down states are
(I +- r.sigma)/2 with r = e_z + D e_z; `boosted_pair` returns both and
their Helstrom error.  Each observable costs O(N) time in the N grid
nodes and O(block + n) memory: `_packet_blocks` streams the packet's rule
from the cached 1-D Gauss-Hermite rule, folded over every axis k with
tau_k = 0, and no n^3 grid is built or cached.

`sweep_values` returns the values of one sweep row at one resolution; the
n/2n convergence check of the row is made in `relqi.cli`.

The dimensionless boost-mixing parameter is
gamma_parameter = (width / mass) tanh(xi/2); boost directions for sweeps
lie in the x-z plane at angle theta from z (the azimuth is immaterial by
symmetry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, qmatrix, wavepacket
from .wavepacket import GaussianSpec, Measure, MomentumGrid, _gauss_rule, gauss_grid

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


def _packet_blocks(delta, nodes_per_axis, convention, axes):
    """The quadrature rule of the zero-centred isotropic Gaussian packet, in blocks.

    Yields (nodes, masses) for runs of whole z lines, at most _WIGNER_BLOCK
    nodes (or one line), of gauss_grid's tensor Gauss-Hermite rule in its C
    order, in units of the mass.  The squared profile exp(-|q|^2 / delta^2)
    is the envelope that the 1-D weights w absorb, so a node q = delta x has
    the mass w_i w_j w_k (over sqrt(1 + |q|^2) if INVARIANT), its
    probability times one factor.  Along each axis in `axes` only x >= 0 is
    kept and the 1-D weights double where x > 0: the masses sum any f even
    under those reflections as the full rule does; the 1-D rule is exactly
    mirror-symmetric by construction (wavepacket._gauss_rule), and checked
    here in O(n).  Every array is O(block + n).  Raises NumericalError,
    before any node is formed, when the rule folds but is not
    mirror-symmetric or its largest |q|^2 overflows (too wide).
    """
    x, w = _gauss_rule("Gauss-Hermite", nodes_per_axis)
    if axes and not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])):
        raise wavepacket.NumericalError(
            f"the Gauss-Hermite rule at {nodes_per_axis} nodes is not mirror-symmetric")
    q_max = delta * float(x[-1])
    if not math.isfinite(3.0 * q_max * q_max):
        raise wavepacket.NumericalError(f"the packet of width {delta:.6g} is too wide for floats")
    half = x >= 0.0
    (px, wx), (py, wy), (pz, wz) = (
        (delta * x[half], np.where(x[half] > 0.0, 2.0, 1.0) * w[half]) if k in axes
        else (delta * x, w) for k in range(3))
    # z lines per block; line l holds the nodes (px[i], py[j], pz), (i, j) = divmod(l, len(py))
    lines, stop = max(1, _WIGNER_BLOCK // len(pz)), len(px) * len(py)
    for start in range(0, stop, lines):
        i, j = np.divmod(np.arange(start, min(start + lines, stop)), len(py))
        nodes = np.empty((len(i), len(pz), 3))
        nodes[..., 0], nodes[..., 1], nodes[..., 2] = px[i, None], py[j, None], pz
        masses = ((wx[i] * wy[j])[:, None] * wz).ravel()
        if convention is Measure.INVARIANT:
            r2 = ((px[i] * px[i] + py[j] * py[j])[:, None] + pz * pz).ravel()
            masses = masses / np.sqrt(1.0 + r2)
        yield nodes.reshape(-1, 3), masses


def wigner_moments(
    tau,
    delta_over_m: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
    convention: Measure = Measure.PLAIN,
):
    """D = T - I and s = <sin^2(omega/2)> of a boosted Gaussian packet of width delta_over_m.

    T = sum_n p_n W_n is the Bloch matrix of the packet of _packet_blocks
    (p_n its masses over their sum Z) with its momentum traced out, W_n the
    Wigner rotation at node n of the boost tau = tanh(xi/2) n, |tau| < 1
    (geometry.boost_quaternions).

    With q_n = (x, y, z, w) the unit Wigner quaternion of W_n (rotation
    angle omega_n), W_n - I is quadratic in q_n, so T - I is linear in the
    4x4 second moment M = sum_n p_n q_n q_n^T:
    D_ij = 2 (M_ij - delta_ij s) - 2 eps_ijk M_wk with s = M_xx + M_yy + M_zz.
    Each diagonal entry is summed as -2 times the other two M_kk, a sum of
    positive terms.

    The quaternions are evaluated once per mirror orbit of the grid: the
    rule is folded over every axis k with tau_k == 0 (the packet is centred
    on 0 along every axis, and a boost in a generic direction folds
    nothing).  The image of a node under the reflection of a folded axis k
    carries the quaternion S q, with S = -1 on the two vector components
    other than k, so the full-grid M is invariant under M -> S M S: M is
    replaced by (M + S M S)/2, exact in floating point, which keeps its even
    entries and sets the odd ones to exactly 0.  One pass adds each block's
    (q m) q^T to M and its masses m to Z, and M is divided by Z at the end.
    """
    tau = np.asarray(tau, dtype=float)
    if not (float(tau @ tau) < 1.0 and delta_over_m > 0.0):
        raise ValueError("the boost needs |tau| = tanh(xi/2) < 1 and the width delta/m > 0")
    axes = tuple(k for k in range(3) if tau[k] == 0.0)
    m, z = np.zeros((4, 4)), 0.0
    for nodes, masses in _packet_blocks(delta_over_m, nodes_per_axis, convention, axes):
        q = geometry.boost_quaternions(tau, nodes)
        m += (q * masses) @ q.T
        z += float(np.sum(masses))
    m /= z
    for k in axes:
        signs = np.full(4, -1.0)
        signs[[k, 3]] = 1.0
        m = 0.5 * (m + signs[:, None] * m * signs)
    mxx, myy, mzz = np.diag(m)[:3]
    wx, wy, wz = 2.0 * m[3, :3]
    d = 2.0 * m[:3, :3] + np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    d[np.diag_indices(3)] = -2.0 * np.array([myy + mzz, mxx + mzz, mxx + myy])
    return d, float(mxx + myy + mzz)


def tanh_half_rapidity(beta: float) -> float:
    """tanh(xi/2) = beta / (1 + sqrt((1 - beta)(1 + beta))) of a speed |beta| < 1."""
    return beta / (1.0 + math.sqrt((1.0 - beta) * (1.0 + beta)))


def gamma_parameter(delta: float, mass: float, beta: float) -> float:
    """(delta/mass) (1 - sqrt(1 - beta^2)) / beta = (delta/mass) tanh(xi/2), 0 at beta = 0."""
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    return (delta / mass) * tanh_half_rapidity(beta)


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


def boosted_pair(tau, delta_over_m, nodes_per_axis):
    """(tau_up, tau_down, Helstrom error) of a boosted spin-up/spin-down Gaussian pair.

    The boosted states of the wigner_moments packet are (I +- r.sigma)/2
    with r = T e_z = e_z + D e_z.  Their Helstrom error (1 - |r|)/2 is taken as
    (1 - |r|^2) / (2 (1 + |r|)) = (-2 D_zz - |D e_z|^2) / (2 (1 + |r|)),
    where -2 D_zz = 4 <x^2 + y^2> sums positive terms, so the error keeps
    its relative accuracy in the small-error (Gamma^2) regime.
    """
    d, _ = wigner_moments(tau, delta_over_m, nodes_per_axis)
    dz = d[:, 2]
    r = dz + (0.0, 0.0, 1.0)
    p_error = max(0.0, float((-2.0 * dz[2] - dz @ dz) / (2.0 * (1.0 + np.linalg.norm(r)))))
    r_sigma = r[0] * qmatrix.SIGMA_X + r[1] * qmatrix.SIGMA_Y + r[2] * qmatrix.SIGMA_Z
    return 0.5 * (qmatrix.ID2 + r_sigma), 0.5 * (qmatrix.ID2 - r_sigma), p_error


def sweep_values(theta: float, gamma: float, delta_over_m: float, nodes_per_axis: int) -> dict:
    """beta, spin entropy and pair error of a packet at (theta, gamma).

    Gamma is delta/m times tanh(xi/2), so the boost is
    tau = (gamma / delta_over_m) (sin theta, 0, cos theta); an unreachable
    gamma raises ValueError.
    """
    beta = beta_for_gamma(gamma, delta_over_m)
    t = gamma / delta_over_m
    p_error = boosted_pair((t * math.sin(theta), 0.0, t * math.cos(theta)), delta_over_m,
                           nodes_per_axis)[2]
    # tau_up has eigenvalues p_error and 1 - p_error, so its entropy is the binary
    # entropy of p_error; log1p(-p) keeps the digits that a rounded 1 - p loses
    entropy = 0.0 if p_error == 0.0 else -(
        p_error * math.log2(p_error) + (1.0 - p_error) * math.log1p(-p_error) / math.log(2.0))
    return {"beta": beta, "entropy_bits": entropy, "p_error": p_error}
