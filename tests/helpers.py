"""Test-only helpers: random states and channels, reference channels,
density-matrix and Lorentz-matrix checks, explicit rotations, the
one-particle spin marginal of a pair amplitude, a packet's whole
quadrature rule and the parsed flags that the CLI's sweep rows read.
"""

import argparse

import numpy as np

from relqi import entangle, geometry, qmatrix, spin_half
from relqi.wavepacket import Measure


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
            np.sqrt(1.0 - 0.75 * p) * qmatrix.ID2,
            0.5 * np.sqrt(p) * qmatrix.SIGMA_X,
            0.5 * np.sqrt(p) * qmatrix.SIGMA_Y,
            0.5 * np.sqrt(p) * qmatrix.SIGMA_Z,
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
    eta = geometry.ETA
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
    n = axis / np.linalg.norm(axis)
    k = geometry._skew(n)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def single_spin_density(state: entangle.TwoParticleAmplitude, particle: int = 1) -> np.ndarray:
    """2x2 marginal of one particle's spin."""
    rho = entangle.spin_spin_density(state)
    side = "right" if particle == 1 else "left"
    return qmatrix.partial_trace(rho, (2, 2), side=side)


def row_args(resolution: int, tolerance: float = 1e-6, no_convergence: bool = False,
             delta_over_m: float = 1.0) -> argparse.Namespace:
    """The flags that relqi.cli's row builders (_spin_row, _entangle_row) read."""
    return argparse.Namespace(resolution=resolution, tolerance=tolerance,
                              no_convergence=no_convergence, delta_over_m=delta_over_m)


def packet_rule(delta: float, mass: float, nodes_per_axis: int,
                convention: Measure = Measure.PLAIN, axes=()):
    """(nodes, weights, profile, probs) of spin_half._packet_blocks, the blocks concatenated."""
    blocks = spin_half._packet_blocks(delta, mass, nodes_per_axis, convention, axes)
    return tuple(np.concatenate(parts) for parts in zip(*blocks))
