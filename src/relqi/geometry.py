"""Special-relativistic kinematics: boosts, rotations, Wigner rotations.

Conventions: units c = hbar = 1, metric diag(+,-,-,-), four-vectors ordered
(t, x, y, z).  All transformations are proper orthochronous.  The Wigner
rotation of a massive particle is realized through the little-group
construction W(L, p) = B(Lp)^{-1} L B(p), where B(p) is the pure boost
taking the rest momentum (m, 0, 0, 0) to p.
"""

from __future__ import annotations

import numpy as np

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


def _require_on_shell(p4: np.ndarray, mass: float) -> None:
    energy = p4[..., 0]
    scale = energy * energy + np.sum(p4[..., 1:] ** 2, axis=-1)
    defect = np.abs(minkowski_norm2(p4) - mass * mass)
    if np.any(defect > 1e-10 * scale) or np.any(energy <= 0.0):
        raise ValueError("momentum is off shell for the given mass")


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


def wigner_rotation(lam: np.ndarray, p4, mass: float) -> np.ndarray:
    """Little-group rotation W = B(Lp)^{-1} L B(p) as a 3x3 matrix.

    Raises for a momentum off shell beyond a relative 1e-10, as
    standard_boost does.
    """
    p4 = np.asarray(p4, dtype=float)
    _require_on_shell(p4, mass)
    return wigner_rotation_batch(lam, p4[None, 1:], mass)[1][0]


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about the (normalized) `axis`, Rodrigues form."""
    axis = np.asarray(axis, dtype=float)
    n = axis / np.linalg.norm(axis)
    k = _skew(n)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _skew(n):
    """Cross-product matrices [n]_x of (..., 3) vectors."""
    zero = np.zeros(np.shape(n)[:-1])
    return np.stack(
        [
            np.stack([zero, -n[..., 2], n[..., 1]], axis=-1),
            np.stack([n[..., 2], zero, -n[..., 0]], axis=-1),
            np.stack([-n[..., 1], n[..., 0], zero], axis=-1),
        ],
        axis=-2,
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
        k = _skew(axis[regular] / sin_t[regular, None])
        out[regular] = (
            np.eye(3)
            + sin_t[regular, None, None] * k
            + (1.0 - cos_t[regular, None, None]) * (k @ k)
        )
    return out


def rotations_to_su2(rots: np.ndarray) -> np.ndarray:
    """SU(2) images exp(-i theta n.sigma / 2) of rotations, theta in [0, pi].

    `rots` is one 3x3 rotation or an (..., 3, 3) stack.  Conjugating the
    Pauli vector with the result reproduces the rotation:
    U (v.sigma) U^dagger = (R v).sigma.  The overall sign is fixed by the
    axis-angle convention; it cancels in every density-matrix output.

    Shepperd's method: for the unit quaternion q = (x, y, z, w) of a rotation
    R, the symmetric matrix K built from R below equals 4 q q^T, so its row
    p is 4 q_p q.  The row whose pivot is the largest of R_xx, R_yy, R_zz
    and tr R (the largest |q_p|) is normalized, with the sign that makes
    w >= 0; then U = w I - i (x, y, z).sigma.
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
    x, y, z, w = np.moveaxis(q, -1, 0)
    u = np.empty(r.shape[:-2] + (2, 2), dtype=complex)
    u[..., 0, 0] = w - 1j * z
    u[..., 0, 1] = -y - 1j * x
    u[..., 1, 0] = y - 1j * x
    u[..., 1, 1] = w + 1j * z
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
