"""Special-relativistic kinematics: boosts, rotations, Wigner rotations.

Conventions: units c = hbar = 1, metric diag(+,-,-,-), four-vectors ordered
(t, x, y, z).  All transformations are proper orthochronous.  The Wigner
rotation of a massive particle is realized through the little-group
construction W(L, p) = B(Lp)^{-1} L B(p), where B(p) is the pure boost
taking the rest momentum (m, 0, 0, 0) to p.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.transform import Rotation as _Rotation

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_Z_AXIS = np.array([0.0, 0.0, 1.0])


def four_momentum(mass: float, momenta) -> np.ndarray:
    """On-shell four-momentum (E, p) with E = sqrt(m^2 + |p|^2).

    `momenta` may be a single 3-vector or an (n, 3) array.
    """
    p = np.asarray(momenta, dtype=float)
    energy = np.sqrt(mass * mass + np.sum(p * p, axis=-1))
    return np.concatenate([energy[..., None], p], axis=-1)


def minkowski_norm2(p4) -> np.ndarray:
    """Invariant p.p = E^2 - |p|^2 (batched over leading axes)."""
    p4 = np.asarray(p4, dtype=float)
    return p4[..., 0] ** 2 - np.sum(p4[..., 1:] ** 2, axis=-1)


def lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """Inverse via eta L^T eta, exact for any Lorentz matrix (batched)."""
    lam = np.asarray(lam, dtype=float)
    return ETA @ np.swapaxes(lam, -1, -2) @ ETA


def metric_defect(lam: np.ndarray) -> float:
    """max |L^T eta L - eta|, zero for an exact Lorentz matrix."""
    lam = np.asarray(lam, dtype=float)
    return float(np.abs(lam.T @ ETA @ lam - ETA).max())


def is_proper_orthochronous(lam: np.ndarray, tol: float = 1e-12) -> bool:
    lam = np.asarray(lam, dtype=float)
    return (
        metric_defect(lam) < tol
        and np.linalg.det(lam) > 0.0
        and lam[0, 0] >= 1.0 - tol
    )


def boost_from_velocity(beta) -> np.ndarray:
    """Pure boost with velocity `beta`; maps (1,0,0,0) to (gamma, gamma*beta)."""
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 >= (1.0 - 1e-12):
        raise ValueError(f"superluminal velocity: |beta| = {np.sqrt(b2):.6g}")
    lam = np.eye(4)
    if b2 == 0.0:
        return lam
    gamma = 1.0 / np.sqrt(1.0 - b2)
    lam[0, 0] = gamma
    lam[0, 1:] = gamma * beta
    lam[1:, 0] = gamma * beta
    lam[1:, 1:] += (gamma - 1.0) * np.outer(beta, beta) / b2
    return lam


def observer_boost(velocity) -> np.ndarray:
    """Frame change to an observer moving with `velocity`.

    A four-vector with components q in the original frame has components
    observer_boost(v) @ q in the frame of the moving observer; this is the
    inverse of boost_from_velocity(v).
    """
    return boost_from_velocity(-np.asarray(velocity, dtype=float))


def standard_boost(p4, mass: float) -> np.ndarray:
    """Pure boost B(p) with B(p) (m,0,0,0) = p, for on-shell p (batched).

    The spatial block is symmetric (no rotation part).  Raises for momenta
    off shell beyond a relative 1e-10.
    """
    p4 = np.asarray(p4, dtype=float)
    energy = p4[..., 0]
    sp = p4[..., 1:]
    scale = energy * energy + np.sum(sp * sp, axis=-1)
    defect = np.abs(minkowski_norm2(p4) - mass * mass)
    if np.any(defect > 1e-10 * scale) or np.any(energy <= 0.0):
        raise ValueError("momentum is off shell for the given mass")
    out = np.zeros(p4.shape[:-1] + (4, 4))
    out[..., 0, 0] = energy / mass
    out[..., 0, 1:] = sp / mass
    out[..., 1:, 0] = sp / mass
    out[..., 1:, 1:] = np.eye(3) + sp[..., :, None] * sp[..., None, :] / (
        mass * (energy + mass)
    )[..., None, None]
    return out


def wigner_rotation(lam: np.ndarray, p4, mass: float) -> np.ndarray:
    """Little-group rotation W = B(Lp)^{-1} L B(p) as a 3x3 matrix."""
    p4 = np.asarray(p4, dtype=float)
    w4 = _little_group_element(lam, p4, mass)
    return w4[1:, 1:]


def _little_group_element(lam, p4, mass):
    b_in = standard_boost(p4, mass)
    p_out = np.asarray(lam, dtype=float) @ p4
    b_out_inv = lorentz_inverse(standard_boost(p_out, mass))
    w4 = b_out_inv @ lam @ b_in
    defect = max(
        abs(w4[0, 0] - 1.0), float(np.abs(w4[0, 1:]).max()), float(np.abs(w4[1:, 0]).max())
    )
    if defect > 1e-10:
        raise ValueError(f"little-group element does not fix the time axis ({defect:.3g})")
    return w4


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about the (normalized) `axis`, Rodrigues form."""
    axis = np.asarray(axis, dtype=float)
    n = axis / np.linalg.norm(axis)
    k = _skew(n)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _skew(n):
    return np.array(
        [
            [0.0, -n[2], n[1]],
            [n[2], 0.0, -n[0]],
            [-n[1], n[0], 0.0],
        ]
    )


def standard_rotation(khat) -> np.ndarray:
    """Rotation R(khat) with R(khat) z = khat.

    Rotates about the axis z x khat by the polar angle of khat.  Tie-breaks:
    identity at khat = +z, rotation by pi about x at khat = -z.
    """
    khat = np.asarray(khat, dtype=float)
    if abs(np.linalg.norm(khat) - 1.0) > 1e-10:
        raise ValueError("khat must be a unit vector")
    return standard_rotation_batch(khat[None, :])[0]


def standard_rotation_batch(khats: np.ndarray) -> np.ndarray:
    """Vectorized standard_rotation for an (n, 3) array of unit vectors."""
    khats = np.asarray(khats, dtype=float)
    n = khats.shape[0]
    axis = np.cross(np.broadcast_to(_Z_AXIS, khats.shape), khats)
    sin_t = np.linalg.norm(axis, axis=-1)
    cos_t = khats[:, 2]
    out = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    degenerate = sin_t < 1e-15
    flipped = degenerate & (cos_t < 0.0)
    out[flipped] = np.diag([1.0, -1.0, -1.0])
    regular = ~degenerate
    if np.any(regular):
        u = axis[regular] / sin_t[regular, None]
        k = np.zeros((u.shape[0], 3, 3))
        k[:, 0, 1] = -u[:, 2]
        k[:, 0, 2] = u[:, 1]
        k[:, 1, 0] = u[:, 2]
        k[:, 1, 2] = -u[:, 0]
        k[:, 2, 0] = -u[:, 1]
        k[:, 2, 1] = u[:, 0]
        out[regular] = (
            np.eye(3)
            + sin_t[regular, None, None] * k
            + (1.0 - cos_t[regular, None, None]) * (k @ k)
        )
    return out


def rotation_to_su2(rot: np.ndarray) -> np.ndarray:
    """SU(2) image exp(-i theta n.sigma / 2) of a rotation, theta in [0, pi].

    Conjugating the Pauli vector with the result reproduces the rotation:
    U (v.sigma) U^dagger = (R v).sigma.  The overall sign is fixed by the
    axis-angle convention; it cancels in every density-matrix output.
    """
    rot = np.asarray(rot, dtype=float)
    return rotations_to_su2(rot[None, :, :])[0]


def rotations_to_su2(rots: np.ndarray) -> np.ndarray:
    """Vectorized rotation_to_su2 for an (n, 3, 3) stack."""
    rotvec = _Rotation.from_matrix(np.asarray(rots, dtype=float)).as_rotvec()
    rotvec = np.atleast_2d(rotvec)
    theta = np.linalg.norm(rotvec, axis=-1)
    axis = np.zeros_like(rotvec)
    axis[:, 2] = 1.0  # arbitrary axis where theta == 0 (sin term vanishes)
    nz = theta > 0.0
    axis[nz] = rotvec[nz] / theta[nz, None]
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    u = np.empty(rotvec.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * s * axis[..., 2]
    u[..., 0, 1] = -s * axis[..., 1] - 1j * s * axis[..., 0]
    u[..., 1, 0] = s * axis[..., 1] - 1j * s * axis[..., 0]
    u[..., 1, 1] = c + 1j * s * axis[..., 2]
    return u


# Nodes per block of the batched little-group pipeline; bounds its (n, 4, 4)
# temporaries to about 1 MB each at any grid size.
_WIGNER_BLOCK = 8192


def wigner_rotation_batch(lam: np.ndarray, momenta: np.ndarray, mass: float):
    """Transport momenta through `lam` and return their 3x3 Wigner rotations.

    Returns (p4_out, W): the (n, 4) transported four-momenta and the
    (n, 3, 3) spatial blocks W_n of the little-group elements
    B(L q_n)^{-1} L B(q_n) at the incoming momenta q_n.  Raises when a node
    is off shell or an element fails to fix the time axis beyond 1e-9.
    """
    lam = np.asarray(lam, dtype=float)
    q4 = four_momentum(mass, momenta)
    p4 = q4 @ lam.T
    rots = np.empty((q4.shape[0], 3, 3))
    defect = 0.0
    for start in range(0, q4.shape[0], _WIGNER_BLOCK):
        block = slice(start, start + _WIGNER_BLOCK)
        b_in = standard_boost(q4[block], mass)
        b_out_inv = lorentz_inverse(standard_boost(p4[block], mass))
        w4 = b_out_inv @ (lam @ b_in)
        defect = max(
            defect,
            float(np.abs(w4[:, 0, 0] - 1.0).max()),
            float(np.abs(w4[:, 0, 1:]).max()),
            float(np.abs(w4[:, 1:, 0]).max()),
        )
        rots[block] = w4[:, 1:, 1:]
    if defect > 1e-9:
        raise ValueError(f"little-group elements do not fix the time axis ({defect:.3g})")
    return p4, rots


def wigner_su2_batch(lam: np.ndarray, momenta: np.ndarray, mass: float):
    """Transport momenta through `lam` and return their spin-1/2 Wigner matrices.

    Returns (p4_out, U) where p4_out is the (n, 4) array of transported
    four-momenta and U the (n, 2, 2) stack of SU(2) Wigner rotations
    evaluated at the incoming momenta.
    """
    p4, rots = wigner_rotation_batch(lam, momenta, mass)
    return p4, rotations_to_su2(rots)


def bloch_map(probs: np.ndarray, rots: np.ndarray) -> np.ndarray:
    """Bloch matrix T = sum_n p_n W_n of the random-unitary channel."""
    return np.einsum("n,nij->ij", probs, rots)
