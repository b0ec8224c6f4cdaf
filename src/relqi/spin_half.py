"""Massive spin-1/2 wave packets under Lorentz boosts.

A packet is a two-component spinor amplitude on a PLAIN-convention momentum
grid of positive mass.  wavepacket checks it, builds its Gaussian profile
and traces its momentum out; this module adds the spinor, the mass rule and
the Wigner action.  Boosts transport each node q to the spatial part of
L q, rotate the spinor by the SU(2) Wigner rotation of the little group at
q, multiply by the energy-ratio prefactor sqrt(q0 / (Lq)0), and scale the
weight by the inverse Jacobian (Lq)0 / q0, so the quadrature norm is
conserved exactly and no resampling or interpolation ever happens.

Sweeps never build a boosted packet or a Lorentz matrix.  Tracing out the
momentum of a boosted packet with node probabilities p_n is the
random-unitary channel with Bloch matrix T = sum_n p_n W_n, the momentum
average of the 3x3 Wigner rotations W_n.  Every sweep observable is a
short function of one kernel, `wigner_moments` of the boost
tau = tanh(xi/2) n and the width delta/m: D = T - I and
s = <sin^2(omega/2)>, both linear in the second moment of the Wigner
quaternions.  The boosted spin-up and spin-down states are
(I +- r.sigma)/2 with r = e_z + D e_z; `boosted_pair` returns both and
their Helstrom error.  The entangle rows and the channel audit are closed
forms of s alone (entangle.sweep_values, channel.consistency_check).
Each observable costs O(N) time in the N grid nodes and O(block + n)
memory: `_packet_blocks` streams the packet's rule from the cached 1-D
Gauss-Hermite rule, folded over every axis k with tau_k = 0, and no n^3
grid is built or cached.

For the zero-centred isotropic packet D = -R diag(s, s, 2s) R^T, with R
turning z onto n, so s alone fixes every sweep observable.
`wigner_sin2_mean` takes s from a 1-D rule over the particle rapidity, in
Python floats with `math`; no sweep reads it yet.

`sweep_values` returns the values of one sweep row at one resolution; the
n/2n convergence check of the row is made in `relqi.cli`.

The dimensionless boost-mixing parameter is
gamma_parameter = (width / mass) tanh(xi/2); boost directions for sweeps
lie in the x-z plane at angle theta from z (the azimuth is immaterial by
symmetry).
"""

from __future__ import annotations

import math

from . import geometry, wavepacket
from ._numpy import np
from .wavepacket import (DEFAULT_NODES_PER_AXIS, GaussianSpec, Measure, MomentumGrid, Record,
                         _gauss_floats, checked_amplitudes, gaussian_profile, momentum_trace)


class SpinorPacket(Record):
    """Two-component spinor amplitudes psi_sigma(p), (n, 2) complex, on a PLAIN momentum grid
    of positive mass."""

    __slots__ = ("grid", "amps")

    def __init__(self, grid: MomentumGrid, amps: np.ndarray):
        super().__init__(grid=grid, amps=amps)

    def __post_init__(self):
        if self.grid.convention is not Measure.PLAIN:
            raise ValueError("spinor packets require the PLAIN measure convention")
        if self.grid.mass <= 0.0:
            raise ValueError("mass must be positive")
        object.__setattr__(self, "amps", checked_amplitudes(self.grid.weights, self.amps,
                                                            (self.grid.n, 2)))


def gaussian_packet(
    delta: float,
    mass: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
    spinor=(1.0, 0.0),
) -> SpinorPacket:
    """Zero-centered isotropic Gaussian profile times a fixed spinor."""
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    grid, h = gaussian_profile(GaussianSpec.isotropic(delta), nodes_per_axis, Measure.PLAIN,
                               mass=mass)
    spinor = np.asarray(spinor, dtype=complex)
    return SpinorPacket(grid=grid, amps=h[:, None] * (spinor / np.linalg.norm(spinor)))


def boost_packet(lam: np.ndarray, psi: SpinorPacket) -> SpinorPacket:
    """Apply a Lorentz transformation to a packet (node transport, no resampling)."""
    p4_out, wigner = geometry.wigner_su2_batch(lam, psi.grid.nodes, psi.grid.mass)
    q0 = psi.grid.k0()
    p0 = p4_out[:, 0]
    amps = np.sqrt(q0 / p0)[:, None] * np.einsum("nij,nj->ni", wigner, psi.amps)
    grid = psi.grid.with_nodes(p4_out[:, 1:], psi.grid.weights * (p0 / q0))
    return SpinorPacket(grid=grid, amps=amps)


def reduced_spin_density(psi: SpinorPacket) -> np.ndarray:
    """2x2 spin state obtained by integrating out the momentum."""
    return momentum_trace(psi.grid.weights, psi.amps)


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
    mirror-symmetric by construction (wavepacket._gauss_outcome), and checked
    here in O(n).  Every array is O(block + n).  Raises NumericalError,
    before any node is formed, when the rule folds but is not
    mirror-symmetric or its largest |q|^2 overflows (too wide).
    """
    x, w = (np.array(v) for v in _gauss_floats("Gauss-Hermite", nodes_per_axis))
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
    (geometry.boost_quaternions).  For this zero-centred isotropic packet
    D = -R diag(s, s, 2s) R^T, with R turning z onto n, up to the tensor
    grid's anisotropy: boosted_pair reads D e_z, and the entangle rows and
    the channel audit read s alone.

    With q_n = (x, y, z, w) the unit Wigner quaternion of W_n (rotation
    angle omega_n), both are linear in the 4x4 second moment
    M = sum_n p_n q_n q_n^T: s = M_xx + M_yy + M_zz and
    D_ij = 2 (M_ij - delta_ij s) - 2 eps_ijk M_wk, each diagonal entry
    summed as -2 times the other two M_kk, a sum of positive terms.

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


# The rapidity rule stops at r = sinh(eta) / (delta/m) = 9, where its weight r^2 exp(-r^2)
# is 5e-34.
_RAPIDITY_CUT = 9.0


def _direction_mean(t: float) -> float:
    """f(t), the mean of sin^2(omega/2) over boost directions at t = tanh(xi/2) tanh(eta/2).

    Thomas-Wigner: tan(omega/2) = t sin(theta) / (1 + t cos(theta)), whose
    sin^2 averaged over cos(theta) is
    f(t) = [(1 + t^2) - (1 - t^2)^2 artanh(t) / t] / 4.  That form cancels
    as t -> 0 (5.6e-15 relative at t = 0.1), so below t = 0.25 f is the series
    2t^2/3 - sum_{k>=2} 2 t^(2k) / ((2k+1)(2k-1)(2k-3)) to k = 12, exact to
    rounding there; every term after the first is negative.
    """
    t2 = t * t
    if t >= 0.25:
        return ((1.0 + t2) - ((1.0 - t) * (1.0 + t)) ** 2 * math.atanh(t) / t) / 4.0
    tail = 0.0
    for k in range(12, 1, -1):
        tail = 1.0 / ((2 * k + 1) * (2 * k - 1) * (2 * k - 3)) + t2 * tail
    return 2.0 * t2 * (1.0 / 3.0 - t2 * tail)


def wigner_sin2_mean(tanh_half_xi: float, delta_over_m: float, nodes: int,
                     convention: Measure = Measure.PLAIN):
    """s = <sin^2(omega/2)> of the Gaussian packet of width delta/m boosted by rapidity xi,
    on `nodes` rapidity nodes.

    The packet is wigner_moments', and s does not depend on the boost
    direction n: its D is -R diag(s, s, 2s) R^T, with R turning z onto n.
    s is the mean of f(tanh(xi/2) tanh(eta/2)) (_direction_mean) over the
    particle rapidity eta under the weight sinh^2(eta) cosh(eta)
    exp(-sinh^2(eta) / (delta/m)^2), without the cosh(eta) if INVARIANT.
    The integrand is even in eta and decays super-exponentially, so the
    trapezoid rule converges geometrically (Trefethen & Weideman, SIAM Rev.
    56, 385 (2014)); it runs on (0, asinh(9 delta/m)], and its 2n nodes are
    exactly its n nodes and the midpoints between them.  The nodes are
    delta-scaled, eta = (delta/m) c, with the weights taken in
    r = sinh(eta) / (delta/m) = c sinh(eta) / eta, so that no
    sinh^2(eta) / (delta/m)^2 underflows to 0/0: as delta/m falls, down to
    the subnormals, s tends to its leading term tanh^2(xi/2) (delta/m)^2 / 4.
    Python floats and `math` only, each sum taken by math.fsum.

    Raises ValueError unless 0 <= tanh_half_xi < 1, delta_over_m > 0 and
    nodes >= 1, and NumericalError for a packet too wide for floats
    (delta/m above about 1e307).
    """
    a, d = tanh_half_xi, delta_over_m
    if not (0.0 <= a < 1.0 and d > 0.0 and nodes >= 1):
        raise ValueError("s needs 0 <= tanh(xi/2) < 1, the width delta/m > 0 and nodes >= 1")
    x = _RAPIDITY_CUT * d
    if not math.isfinite(2.0 * x):
        raise wavepacket.NumericalError(f"the packet of width {d:.6g} is too wide for floats")
    h = _RAPIDITY_CUT * (math.asinh(x) / x) / nodes  # the step in c

    def terms(c):
        """(weight, weight * f) at eta = d c; the PLAIN cosh(eta) <= 1 + d r is scaled by
        1 / (1 + d), so that no weight overflows."""
        eta = d * c
        r = c * (math.sinh(eta) / eta) if eta > 0.0 else c
        w = r * r * math.exp(-r * r)
        if convention is Measure.PLAIN:
            w *= math.cosh(eta) / (1.0 + d)
        return w, w * _direction_mean(a * math.tanh(0.5 * eta))

    rule = [terms(j * h) for j in range(1, nodes + 1)]
    return math.fsum(wf for _, wf in rule) / math.fsum(w for w, _ in rule)


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
    x, y, z = r
    r_sigma = np.array([[z, x - 1j * y], [x + 1j * y, -z]])
    return 0.5 * (np.eye(2) + r_sigma), 0.5 * (np.eye(2) - r_sigma), p_error


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
