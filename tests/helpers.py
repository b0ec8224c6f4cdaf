"""Test-only helpers: random states and channels, reference channels,
density-matrix and Lorentz-matrix checks, explicit rotations, the
one-particle spin marginal of a pair amplitude, a packet's whole
quadrature rule and its Wigner rotations, a boost as tau = tanh(xi/2) n and
as a Lorentz matrix, the parsed flags that the CLI's sweep rows read, a
40-digit decimal oracle for Wigner rotations, and the environment of a
fresh interpreter that imports the relqi under test.
"""

import argparse
import math
import os
from decimal import Decimal, localcontext

import numpy as np

import relqi
from relqi import entangle, geometry, photon, qmatrix, spin_half, wavepacket
from relqi.wavepacket import Measure

# the identity and the Pauli matrices
ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def check_density_matrix(rho, tol: float = 1e-10, subnormalized: bool = False) -> None:
    """Raise unless rho is Hermitian, PSD and unit-trace within `tol`.

    With subnormalized=True any trace in (0, 1 + tol] is accepted, for
    conditional states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(qmatrix.hermitize(rho))
    if eigs.min() < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3g}")
    tr = float(np.real(np.trace(rho)))
    if subnormalized:
        if not (0.0 < tr <= 1.0 + tol):
            raise ValueError(f"subnormalized trace {tr:.6g} outside (0, 1]")
    elif abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr:.6g} differs from 1")


def identity_channel(dim: int = 2) -> qmatrix.QubitChannel:
    return qmatrix.QubitChannel(kraus=[np.eye(dim, dtype=complex)])


def transpose_map(dim: int = 2) -> qmatrix.QubitChannel:
    """The transpose map, the standard positive-but-not-CP control case."""
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[j * dim + i, i * dim + j] = 1.0
    return qmatrix.QubitChannel(superop=s)


def depolarizing_channel(p: float) -> qmatrix.QubitChannel:
    """rho -> (1 - p) rho + p I/2 tr(rho), in Kraus form."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    return qmatrix.QubitChannel(
        kraus=[
            np.sqrt(1.0 - 0.75 * p) * ID2,
            0.5 * np.sqrt(p) * SIGMA_X,
            0.5 * np.sqrt(p) * SIGMA_Y,
            0.5 * np.sqrt(p) * SIGMA_Z,
        ]
    )


def random_cptp_channel(rng: np.random.Generator, dim: int = 2,
                        n_kraus: int = 3) -> qmatrix.QubitChannel:
    """Random CPTP channel from a Haar-ish isometry (QR of a Ginibre block)."""
    a = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(a)
    return qmatrix.QubitChannel(kraus=[q[i * dim:(i + 1) * dim, :] for i in range(n_kraus)])


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random full-rank density matrix G G^dagger / tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def minkowski_norm2(p4) -> np.ndarray:
    """Invariant p.p = E^2 - |p|^2 (batched over leading axes)."""
    p4 = np.asarray(p4, dtype=float)
    return p4[..., 0] ** 2 - geometry._norm2(p4[..., 1:])


def metric_defect(lam: np.ndarray) -> float:
    """max |L^T eta L - eta|, zero for an exact Lorentz matrix."""
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    lam = np.asarray(lam, dtype=float)
    return float(np.abs(lam.T @ eta @ lam - eta).max())


def is_proper_orthochronous(lam: np.ndarray, tol: float = 1e-12) -> bool:
    lam = np.asarray(lam, dtype=float)
    return (
        metric_defect(lam) < tol
        and np.linalg.det(lam) > 0.0
        and lam[0, 0] >= 1.0 - tol
    )


def rotation_about(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about the (normalized) `axis`, Rodrigues form."""
    axis = np.asarray(axis, dtype=float)
    x, y, z = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def gauss_rule(name: str, nodes_per_axis: int):
    """The 1-D rule of wavepacket._gauss_floats as numpy arrays (nodes, weights)."""
    return tuple(np.array(v) for v in wavepacket._gauss_floats(name, nodes_per_axis))


def circular_density(k_mean, delta_z, delta_r, helicity=+1, nodes_per_axis=12) -> np.ndarray:
    """photon.circular_density_values as a complex 3x3 matrix."""
    values = photon.circular_density_values(k_mean, delta_z, delta_r, helicity, nodes_per_axis)
    rho = np.array(values["rho_re"], dtype=complex)
    rho.imag = values["rho_im"]
    return rho


def single_spin_density(state: entangle.TwoParticleAmplitude, particle: int = 1) -> np.ndarray:
    """2x2 marginal of one particle's spin."""
    rho = entangle.spin_spin_density(state)
    side = "right" if particle == 1 else "left"
    return qmatrix.partial_trace(rho, (2, 2), side=side)


def row_args(resolution: int, tolerance: float = 1e-6) -> argparse.Namespace:
    """The flags that relqi.cli's sweep rows (_row, _sweep_row) and _refine read."""
    return argparse.Namespace(resolution=resolution, tolerance=tolerance)


def packet_rule(delta_over_m: float, nodes_per_axis: int,
                convention: Measure = Measure.PLAIN, axes=()):
    """(nodes, probs) of spin_half._packet_blocks: the blocks concatenated and
    the masses divided by their math.fsum."""
    blocks = spin_half._packet_blocks(delta_over_m, nodes_per_axis, convention, axes)
    nodes, masses = (np.concatenate(parts) for parts in zip(*blocks))
    return nodes, masses / math.fsum(masses)


def unfolded_kernel(lam, delta_over_m: float, nodes_per_axis: int,
                    convention: Measure = Measure.PLAIN):
    """(probs, W): the probabilities of the whole (unfolded) packet rule and the
    (n, 3, 3) Wigner rotations of the Lorentz matrix `lam` at its nodes (unit
    mass); T = sum_n p_n W_n."""
    nodes, probs = packet_rule(delta_over_m, nodes_per_axis, convention)
    return probs, geometry.wigner_rotation_batch(lam, nodes, 1.0)[1]


def boost(velocity):
    """(tau, lam) of the pure boost with `velocity`: tau = tanh(xi/2) n, the boost
    input of spin_half.wigner_moments, and the float Lorentz matrix that the
    library oracles (boost_packet, boost_pair, unfolded_kernel) take."""
    v = np.asarray(velocity, dtype=float)
    return v / (1.0 + np.sqrt(1.0 - v @ v)), geometry.boost_from_velocity(v)


def angle_boost(beta: float, theta: float):
    """boost(velocity) of speed beta at angle theta from z, in the x-z plane."""
    return boost(beta * np.array([np.sin(theta), 0.0, np.cos(theta)]))


def _product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _decimal_boost(p, mass):
    """Pure boost taking (mass, 0, 0, 0) to (E, p); the boost to (E, -p) is its inverse."""
    energy = (mass * mass + sum(x * x for x in p)).sqrt()
    out = [[energy / mass] + [x / mass for x in p]]
    for i in range(3):
        out.append([p[i] / mass] + [(i == j) + p[i] * p[j] / (mass * (energy + mass))
                                    for j in range(3)])
    return out


def decimal_wigner(tau, quat, momenta, mass):
    """Wigner rotations of B(Lq)^-1 L B(q) as a 4x4 product in 40-digit decimal.

    L is the pure boost of `tau` = tanh(xi/2) n, taken exactly: with
    t = |tau|, gamma beta = 2 tau / (1 - t^2), so that beta = 2t / (1 + t^2)
    carries no rounding of a float beta.  It is followed (on the right) by
    the rotation of the quaternion `quat` = (x, y, z, w) unless it is None;
    every float input is taken as exact.  Returns the (n, 3, 3) rotations
    and their (n, 4) unit quaternions (x, y, z, w), each rounded to float
    once, with the quaternion's sign unspecified.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        tau = [Decimal(float(c)) for c in tau]
        t2 = sum(c * c for c in tau)
        lam = _decimal_boost([2 * c / (1 - t2) for c in tau], Decimal(1))
        if quat is not None:
            x, y, z, w = (Decimal(float(c)) for c in quat)
            s = 2 / (x * x + y * y + z * z + w * w)
            lam = _product(lam, [
                [1, 0, 0, 0],
                [0, 1 - s * (y * y + z * z), s * (x * y - w * z), s * (x * z + w * y)],
                [0, s * (x * y + w * z), 1 - s * (x * x + z * z), s * (y * z - w * x)],
                [0, s * (x * z - w * y), s * (y * z + w * x), 1 - s * (x * x + y * y)]])
        m = Decimal(float(mass))
        rots, quats = [], []
        for q in momenta:
            lam_b = _product(lam, _decimal_boost([Decimal(float(c)) for c in q], m))
            w4 = _product(_decimal_boost([-m * row[0] for row in lam_b[1:]], m), lam_b)
            r = [row[1:] for row in w4[1:]]
            # K = 4 q q^T; its row with the largest diagonal entry is 4 q_k q, q_k farthest from 0
            trace = r[0][0] + r[1][1] + r[2][2]
            axial = [r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1]]
            k = [[r[i][j] + r[j][i] if i != j else 1 - trace + 2 * r[i][i] for j in range(3)]
                 + [axial[i]] for i in range(3)] + [axial + [1 + trace]]
            row = k[max(range(4), key=lambda i: k[i][i])]
            norm = sum(c * c for c in row).sqrt()
            rots.append([[float(c) for c in line] for line in r])
            quats.append([float(c / norm) for c in row])
    return np.array(rots), np.array(quats)


def decimal_moments(tau, delta_over_m: float, nodes_per_axis: int,
                    convention: Measure = Measure.PLAIN):
    """(D, s) of spin_half.wigner_moments on the same, unfolded, packet rule, each
    node's quaternion from decimal_wigner and every entry of the second moment
    M = sum_n p_n q_n q_n^T by math.fsum."""
    nodes, probs = packet_rule(delta_over_m, nodes_per_axis, convention)
    q = decimal_wigner(tau, None, nodes, 1.0)[1]
    m = np.array([[math.fsum(probs * q[:, i] * q[:, j]) for j in range(4)] for i in range(4)])
    wx, wy, wz = 2.0 * m[3, :3]
    d = 2.0 * m[:3, :3] + np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    d[np.diag_indices(3)] = -2.0 * np.array([m[1, 1] + m[2, 2], m[0, 0] + m[2, 2],
                                             m[0, 0] + m[1, 1]])
    return d, math.fsum(np.diag(m)[:3])


def fresh_env() -> dict:
    """Environment of a fresh interpreter that imports the relqi these tests import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(relqi.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
