"""Special-relativistic kinematics: boosts, rotations, Wigner rotations.

Conventions: units c = hbar = 1, metric diag(+,-,-,-), four-vectors ordered
(t, x, y, z).  All transformations are proper orthochronous; the Wigner
kernel rejects any other.  Both rotations are built from unit quaternions,
on (n, 3) stacks (one momentum or direction is a stack of one): the
standard rotation R(khat) of a photon direction, and the Wigner rotation of
a massive particle, the little-group element W(L, p) = B(Lp)^{-1} L B(p)
with B(p) the pure boost taking (m, 0, 0, 0) to p.  Each Wigner
quaternion is one fixed linear map of (p, E + m), normalized node by node,
in one per-node function.  For a pure boost the map is fixed by
tau = tanh(xi/2) n alone: boost_quaternions takes tau, with no Lorentz
matrix, and spin_half.wigner_moments sums the Bloch matrix
T = sum_n p_n W_n of a packet rule from its quaternions.  For a general L,
wigner_quaternion_map splits L into a pure boost and a rotation, checks
the split and applies the map, composed with the rotation, to explicit
momenta; wigner_rotation_batch and wigner_su2_batch read its quaternions.
The 4x4 matrix product is kept only as a test oracle.
"""

from __future__ import annotations

from ._numpy import np
from .wavepacket import NumericalError


def _norm2(v) -> np.ndarray:
    """|v|^2 over the last axis of (..., 3) vectors, summed in index order."""
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2]


def four_momentum(mass: float, momenta) -> np.ndarray:
    """On-shell four-momentum (E, p) with E = sqrt(m^2 + |p|^2).

    `momenta` may be a single 3-vector or an (n, 3) array.
    """
    p = np.asarray(momenta, dtype=float)
    energy = np.sqrt(mass * mass + _norm2(p))
    return np.concatenate([energy[..., None], p], axis=-1)


def lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """Inverse eta L^T eta, eta = diag(1, -1, -1, -1): exact for any Lorentz matrix (batched)."""
    lam, eta = np.asarray(lam, dtype=float), np.diag([1.0, -1.0, -1.0, -1.0])
    return eta @ np.swapaxes(lam, -1, -2) @ eta


def boost_from_velocity(beta) -> np.ndarray:
    """Pure boost with velocity `beta`; maps (1,0,0,0) to (gamma, gamma*beta)."""
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= 1.0:
        raise ValueError(f"superluminal velocity: |beta| = {np.sqrt(b2):.6g}")
    if b2 >= (1.0 - 1e-12):
        raise NumericalError(f"speed too close to 1 for the float boost matrix "
                             f"(1 - beta^2 <= 1e-12): |beta| = {np.sqrt(b2):.17g}")
    lam = np.eye(4)
    if b2 == 0.0:
        return lam
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam[0, 0] = gamma
    lam[0, 1:] = gamma * beta
    lam[1:, 0] = gamma * beta
    lam[1:, 1:] += (gamma - 1.0) * np.outer(beta, beta) / b2
    return lam


def _require_on_shell(p4: np.ndarray, mass: float) -> None:
    energy = p4[..., 0]
    e2 = energy * energy
    sp2 = _norm2(p4[..., 1:])
    if np.any(np.abs(e2 - sp2 - mass * mass) > 1e-10 * (e2 + sp2)) or np.any(energy <= 0.0):
        raise NumericalError("momentum is off shell for the given mass")


def standard_boost(p4, mass: float) -> np.ndarray:
    """Pure boost B(p) with B(p) (m,0,0,0) = p, for on-shell p (batched).

    The spatial block is symmetric (no rotation part).  Raises for momenta
    off shell beyond a relative 1e-10.
    """
    p4 = np.asarray(p4, dtype=float)
    _require_on_shell(p4, mass)
    energy = p4[..., 0]
    sp = p4[..., 1:]
    out = np.zeros(p4.shape[:-1] + (4, 4))
    out[..., 0, 0] = energy / mass
    out[..., 0, 1:] = sp / mass
    out[..., 1:, 0] = sp / mass
    out[..., 1:, 1:] = np.eye(3) + sp[..., :, None] * sp[..., None, :] / (
        mass * (energy + mass)
    )[..., None, None]
    return out


def standard_rotation_batch(khats: np.ndarray) -> np.ndarray:
    """Rotations R(khat) with R(khat) z = khat, for an (n, 3) array of unit vectors.

    R(khat) rotates about z x khat by the polar angle of khat: its quaternion
    is (-k_y, k_x, 0, 1 + k_z), normalized, with 1 + k_z = |k_xy|^2 / (1 + |k_z|)
    below the equator, so that R z = khat to rounding near -z; at khat = -z
    it is 0, and R is pi about x.  Raises ValueError for a khat whose norm
    differs from 1 by more than 1e-10.
    """
    khats = np.asarray(khats, dtype=float)
    if np.any(np.abs(np.linalg.norm(khats, axis=-1) - 1.0) > 1e-10):
        raise ValueError("khat must be a unit vector")
    kx, ky, kz = khats.T
    transverse = kx * kx + ky * ky
    w = np.where(kz < 0.0, transverse / (1.0 + np.abs(kz)), 1.0 + kz)
    quats = np.stack([-ky, kx, np.zeros_like(kz), w], axis=-1)
    quats[~quats.any(axis=-1)] = (1.0, 0.0, 0.0, 0.0)
    return quaternion_rotations(quats / np.linalg.norm(quats, axis=-1, keepdims=True))


def _rotation_quaternion(rots: np.ndarray) -> np.ndarray:
    """Unit quaternions (x, y, z, w), w >= 0, of (..., 3, 3) rotations.

    Shepperd's method: for the unit quaternion q = (x, y, z, w) of a rotation
    R, the symmetric matrix K built from R below equals 4 q q^T, so its row
    p is 4 q_p q.  The row whose pivot is the largest of R_xx, R_yy, R_zz
    and tr R (the largest |q_p|) is normalized, with the sign that makes
    w >= 0.
    """
    r = np.asarray(rots, dtype=float)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    trace = r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    k = np.empty(r.shape[:-2] + (4, 4))
    k[..., :3, :3] = r + np.swapaxes(r, -1, -2)
    k[..., [0, 1, 2], [0, 1, 2]] = 1.0 - trace[..., None] + 2.0 * diag
    k[..., 3, :3] = k[..., :3, 3] = np.stack(
        [r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1]],
        axis=-1,
    )
    k[..., 3, 3] = 1.0 + trace
    pivot = np.argmax(np.concatenate([diag, trace[..., None]], axis=-1), axis=-1)
    q = np.take_along_axis(k, pivot[..., None, None], axis=-2)[..., 0, :]
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    q[q[..., 3] < 0.0] *= -1.0
    return q


def rotations_to_su2(rots: np.ndarray) -> np.ndarray:
    """SU(2) images exp(-i theta n.sigma / 2) of rotations, theta in [0, pi].

    `rots` is one 3x3 rotation or an (..., 3, 3) stack.  Conjugating the
    Pauli vector with the result reproduces the rotation:
    U (v.sigma) U^dagger = (R v).sigma.  The overall sign is fixed by the
    axis-angle convention; it cancels in every density-matrix output.
    With (x, y, z, w) the unit quaternion of R, w >= 0,
    U = w I - i (x, y, z).sigma.
    """
    return _quaternion_su2(_rotation_quaternion(rots))


def _quaternion_su2(quats: np.ndarray) -> np.ndarray:
    """U = w I - i (x, y, z).sigma of (..., 4) unit quaternions (x, y, z, w)."""
    x, y, z, w = np.moveaxis(quats, -1, 0)
    u = np.empty(quats.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = w - 1j * z
    u[..., 0, 1] = -y - 1j * x
    u[..., 1, 0] = y - 1j * x
    u[..., 1, 1] = w + 1j * z
    return u


def quaternion_rotations(quats: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotation matrices of (n, 4) unit quaternions (x, y, z, w)."""
    qx, qy, qz, qw = np.asarray(quats, dtype=float).T
    x2, y2, z2 = qx + qx, qy + qy, qz + qz
    xx, yy, zz = qx * x2, qy * y2, qz * z2
    xy, xz, yz = qx * y2, qx * z2, qy * z2
    wx, wy, wz = qw * x2, qw * y2, qw * z2
    out = np.empty((len(qx), 3, 3))
    out[:, 0, 0] = 1.0 - (yy + zz)
    out[:, 0, 1] = xy - wz
    out[:, 0, 2] = xz + wy
    out[:, 1, 0] = xy + wz
    out[:, 1, 1] = 1.0 - (xx + zz)
    out[:, 1, 2] = yz - wx
    out[:, 2, 0] = xz - wy
    out[:, 2, 1] = yz + wx
    out[:, 2, 2] = 1.0 - (xx + yy)
    return out


def _thomas_map(c0: float, c) -> np.ndarray:
    """The map (q, E + m) -> (-(c x q), c0 (E + m) + c.q) of wigner_quaternion_map."""
    cx, cy, cz = c
    return np.array([[0.0, cz, -cy, 0.0], [-cz, 0.0, cx, 0.0], [cy, -cx, 0.0, 0.0],
                     [cx, cy, cz, c0]])


def _quaternions(linear: np.ndarray, momenta, mass: float):
    """(q4, u): the (b, 4) four-momenta of (b, 3) momenta and the (4, b) unit quaternions,
    rows (x, y, z, w), of `linear` applied to (q, E + m), each normalized on its own.
    Raises NumericalError for a node off shell or too large for floats."""
    try:
        with np.errstate(over="raise"):
            q4 = four_momentum(mass, momenta)
            _require_on_shell(q4, mass)
            u = linear[:, 3:] * (q4[:, 0] + mass)
            for k in range(3):
                u += linear[:, k:k + 1] * q4[:, k + 1]
            return q4, u / np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3])
    except FloatingPointError:
        raise NumericalError("momenta too large for floats in the Wigner kernel") from None


def boost_quaternions(tau, momenta) -> np.ndarray:
    """The (4, b) unit Wigner quaternions at (b, 3) unit-mass momenta of the pure boost
    `tau` = tanh(xi/2) n, |tau| < 1: gamma beta / (gamma + 1) = tau, so its map is
    _thomas_map(1, tau).  Where tau_k == 0 the map is exactly odd in q_k on the two
    vector rows other than k and even on the others: a mirror fold over k is exact."""
    return _quaternions(_thomas_map(1.0, tau), momenta, 1.0)[1]


def wigner_quaternion_map(lam: np.ndarray, momenta, mass: float):
    """The Wigner quaternions of `lam` at (b, 3) momenta q_n.

    Returns (p4, u): the (b, 4) transported four-momenta p_n = L q_n and
    the (4, b) unit quaternions, rows (x, y, z, w), of the spatial blocks
    W_n of the little-group elements B(p_n)^{-1} L B(q_n).

    `lam` is split into B R, with B the pure boost along its
    time column and R a rotation, so that W(L, q) = W(B, R q) R.  With
    A(q) ~ E + m + q.sigma the spinor image of B(q) and A(B) ~ c0 + c.sigma
    (c0 = gamma + 1, c = gamma beta), A(B) A(R q) = x0 + (xr + i xi).sigma
    with x0 = c0 (E + m) + c.R q > 0, xr in the span of c and R q, and
    xi = c x R q orthogonal to it.  Its unitary polar factor, the SU(2)
    image of W(B, R q), is therefore (x0 + i xi.sigma) / |(x0, xi)|, the
    quaternion (-(c x R q), x0) up to a positive factor.  Composed with the
    quaternion of R this is one linear map, u_n ~ A q_n + b (E_n + m), with
    A a 4x3 matrix and b a 4-vector, and u_n is normalized node by node.

    Raises ValueError for a `lam` that is improper or not orthochronous and
    NumericalError when B^{-1} L leaves the time axis beyond 1e-9, both
    before any node is evaluated, and NumericalError when a node is off
    shell or its arithmetic overflows (too large for floats).
    """
    lam = np.asarray(lam, dtype=float)
    if not (np.linalg.det(lam) > 0.0 and lam[0, 0] >= 1.0 - 1e-12):
        raise ValueError("the Lorentz transformation must be proper and orthochronous")
    # lam = B R; r4 = B^{-1} lam fixes the time axis up to rounding
    boost = standard_boost(lam[:, 0], 1.0)
    r4 = lorentz_inverse(boost) @ lam
    defect = max(abs(r4[0, 0] - 1.0), *np.abs(r4[0, 1:]), *np.abs(r4[1:, 0]))
    if defect > 1e-9:
        raise NumericalError(f"little-group elements do not fix the time axis ({defect:.3g})")
    rot = r4[1:, 1:]
    x, y, z, w = _rotation_quaternion(rot)
    # right multiplication by R's quaternion (v, s) -> (s r + w v + v x r, s w - v.r),
    # r = (x, y, z), after the Thomas map of (R q, E + m)
    compose = np.array([[w, z, -y, x], [-z, w, x, y], [y, -x, w, z], [-x, -y, -z, w]])
    # columns 0-2 are A, column 3 is b
    linear = compose @ _thomas_map(boost[0, 0] + 1.0, boost[1:, 0])
    linear[:, :3] = linear[:, :3] @ rot
    q4, u = _quaternions(linear, momenta, mass)
    p4 = q4 @ lam.T
    _require_on_shell(p4, mass)
    return p4, u


def wigner_rotation_batch(lam: np.ndarray, momenta: np.ndarray, mass: float):
    """Little-group rotations W = B(Lp)^{-1} L B(p) of (n, 3) momenta, as 3x3 matrices.

    Returns (p4_out, W): the (n, 4) transported four-momenta and the
    (n, 3, 3) rotations of wigner_quaternion_map, with its checks.
    """
    p4, quats = wigner_quaternion_map(lam, momenta, mass)
    return p4, quaternion_rotations(quats.T)


def wigner_su2_batch(lam: np.ndarray, momenta: np.ndarray, mass: float):
    """Transport momenta through `lam` and return their spin-1/2 Wigner matrices.

    Returns (p4_out, U) where p4_out is the (n, 4) array of transported
    four-momenta and U the (n, 2, 2) stack of SU(2) Wigner rotations
    evaluated at the incoming momenta.  U is built from the quaternions of
    wigner_quaternion_map, divided by their norm with the sign that makes
    w >= 0, as rotations_to_su2 does.
    """
    p4, quats = wigner_quaternion_map(lam, momenta, mass)
    quats = quats.T
    norms = np.copysign(np.linalg.norm(quats, axis=1), quats[:, 3])
    return p4, _quaternion_su2(quats / norms[:, None])
