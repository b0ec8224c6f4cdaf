"""Finite-dimensional density-matrix algebra.

Partial traces, von Neumann entropy (base 2, bits), the Helstrom
minimum-error probability, qubit channels in Kraus/superoperator form,
Choi matrices, and complete-positivity certification.

Conventions: superoperators act on column-stacked vec(rho); the Choi matrix
of a channel is built from the unnormalized maximally entangled operator,
so a trace-preserving qubit channel has Choi trace 2.
"""

from __future__ import annotations

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _vec(mat):
    return np.asarray(mat).reshape(-1, order="F")


def _unvec(v, dim):
    return np.asarray(v).reshape((dim, dim), order="F")


def hermitize(mat: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2; removes rounding-level anti-Hermitian noise."""
    mat = np.asarray(mat, dtype=complex)
    return 0.5 * (mat + mat.conj().T)


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
    eigs = np.linalg.eigvalsh(hermitize(rho))
    if eigs.min() < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3g}")
    tr = float(np.real(np.trace(rho)))
    if subnormalized:
        if not (0.0 < tr <= 1.0 + tol):
            raise ValueError(f"subnormalized trace {tr:.6g} outside (0, 1]")
    elif abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr:.6g} differs from 1")


def partial_trace(rho, dims, side: str = "left") -> np.ndarray:
    """Trace out one tensor factor of a (dA*dB) x (dA*dB) matrix.

    `dims` is (dA, dB); `side` names the factor that is traced out
    ("left" for A, "right" for B).
    """
    rho = np.asarray(rho, dtype=complex)
    d_a, d_b = dims
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"shape {rho.shape} does not factorize as {dims}")
    r = rho.reshape(d_a, d_b, d_a, d_b)
    if side == "left":
        return np.einsum("ijil->jl", r)
    if side == "right":
        return np.einsum("ijkj->ik", r)
    raise ValueError("side must be 'left' or 'right'")


def entropy(rho, psd_tol: float = 1e-10) -> float:
    """von Neumann entropy -sum(lam * log2(lam)) in bits.

    Eigenvalues in [-psd_tol, 1e-14] are treated as exact zeros (quadrature
    noise); anything more negative raises.
    """
    rho = np.asarray(rho, dtype=complex)
    eigs = np.linalg.eigvalsh(hermitize(rho))
    if eigs.min() < -psd_tol:
        raise ValueError(f"negative eigenvalue {eigs.min():.3g} beyond tolerance")
    eigs = eigs[eigs > 1e-14]
    return max(0.0, float(-(eigs @ np.log2(eigs))))


def helstrom_error(rho1, rho2) -> float:
    """Minimum error probability 1/2 - ||rho1 - rho2||_1 / 4.

    The trace norm is evaluated as the sum of absolute eigenvalues of the
    Hermitian difference.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError("states must have equal dimensions")
    eigs = np.linalg.eigvalsh(hermitize(rho1 - rho2))
    return min(0.5, max(0.0, float(0.5 - 0.25 * np.abs(eigs).sum())))


def mixture_pair_error(probs, units, odd=(False, False, False)) -> float:
    """Helstrom error (1 - |r|)/2 of the pair fixed by r = sum_n p_n u_n.

    `probs` (n,) sum to 1; `units` (n, 3) are unit vectors.  Spins:
    u_n = W_n e_z, the pair is (I +- r.sigma)/2 and r.sigma has eigenvalues
    +-|r|.  Circular photons: u_n = khat_n, the pair is (<P_T> +- i[r]_x)/2
    and rho+ - rho- = i[r]_x has eigenvalues 0, +-|r|.  Since |u_n| = 1 the
    error equals sum_n p_n |u_n - r|^2 / (2 (1 + |r|)), the variance form
    evaluated here: it keeps its relative accuracy at small errors.

    The spread is shifted to the node c of largest probability:
    sum_n p_n |u_n - c|^2 - |r - c|^2, which is exactly 0 when every u_n is
    equal.  `odd` marks the components of r that vanish because `probs`
    and `units` come from a rule folded over mirror axes (wavepacket.fold):
    they are set to 0 in r and in c, so that |u_n - c|^2 is even under
    the reflections and the folded sum equals the full one.
    """
    even = np.where(odd, 0.0, 1.0)
    c = units[np.argmax(probs)] * even
    d = units - c
    shift = (probs @ d) * even
    spread = probs @ np.sum(d * d, axis=1) - shift @ shift
    return float(0.5 * max(0.0, spread) / (1.0 + np.linalg.norm(c + shift)))


class QubitChannel:
    """Linear map on small density matrices, Kraus or superoperator backed.

    Both representations are available; the missing one is derived on
    demand (Kraus operators exist only for completely positive maps).
    """

    def __init__(self, kraus=None, superop=None):
        if kraus is None and superop is None:
            raise ValueError("provide Kraus operators or a superoperator")
        self._kraus = None if kraus is None else [np.asarray(k, dtype=complex) for k in kraus]
        self._superop = None if superop is None else np.asarray(superop, dtype=complex)
        if self._kraus is not None:
            self.dim = self._kraus[0].shape[0]
        else:
            self.dim = int(round(np.sqrt(self._superop.shape[0])))

    @classmethod
    def from_superoperator(cls, mat) -> "QubitChannel":
        return cls(superop=mat)

    def superoperator(self) -> np.ndarray:
        """Column-stacking superoperator sum_k conj(K_k) (x) K_k."""
        if self._superop is None:
            d = self.dim
            s = np.zeros((d * d, d * d), dtype=complex)
            for k in self._kraus:
                s += np.kron(k.conj(), k)
            self._superop = s
        return self._superop

    def kraus_operators(self):
        """Kraus form, derived from the Choi eigendecomposition if needed."""
        if self._kraus is None:
            self._kraus = kraus_from_choi(choi_matrix(self), dim=self.dim)
        return self._kraus

    def apply(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if self._kraus is not None:
            out = np.zeros_like(rho)
            for k in self._kraus:
                out += k @ rho @ k.conj().T
            return out
        return _unvec(self._superop @ _vec(rho), self.dim)

    __call__ = apply

    def is_trace_preserving(self, tol: float = 1e-10) -> bool:
        if self._kraus is not None:
            acc = sum(k.conj().T @ k for k in self._kraus)
        else:
            choi = choi_matrix(self)
            acc = partial_trace(choi, (self.dim, self.dim), side="right")
        return bool(np.abs(acc - np.eye(self.dim)).max() <= tol)


def choi_matrix(channel: QubitChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) channel(|i><j|)."""
    d = channel.dim
    choi = np.zeros((d * d, d * d), dtype=complex)
    basis = np.eye(d, dtype=complex)
    for i in range(d):
        for j in range(d):
            block = channel.apply(np.outer(basis[i], basis[j].conj()))
            choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
    return choi


def is_completely_positive(channel: QubitChannel, tol: float = 1e-10):
    """(CP verdict, minimum Choi eigenvalue)."""
    eigs = np.linalg.eigvalsh(hermitize(choi_matrix(channel)))
    min_eig = float(eigs.min())
    return min_eig >= -tol, min_eig


def kraus_from_choi(choi, dim: int = 2, tol: float = 1e-10):
    """Kraus operators of a positive Choi matrix; raises if it is not PSD."""
    choi = np.asarray(choi, dtype=complex)
    eigs, vecs = np.linalg.eigh(hermitize(choi))
    if eigs.min() < -tol:
        raise ValueError(f"Choi matrix is not positive (min eig {eigs.min():.3g})")
    ops = []
    for lam, v in zip(eigs, vecs.T):
        if lam > tol:
            ops.append(np.sqrt(lam) * v.reshape(dim, dim).T)
    return ops


def identity_channel(dim: int = 2) -> QubitChannel:
    return QubitChannel(kraus=[np.eye(dim, dtype=complex)])


def transpose_map(dim: int = 2) -> QubitChannel:
    """The transpose map, the standard positive-but-not-CP control case."""
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[j * dim + i, i * dim + j] = 1.0
    return QubitChannel(superop=s)


def depolarizing_channel(p: float) -> QubitChannel:
    """rho -> (1 - p) rho + p I/2 tr(rho), in Kraus form."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must lie in [0, 1]")
    return QubitChannel(
        kraus=[
            np.sqrt(1.0 - 0.75 * p) * ID2,
            0.5 * np.sqrt(p) * SIGMA_X,
            0.5 * np.sqrt(p) * SIGMA_Y,
            0.5 * np.sqrt(p) * SIGMA_Z,
        ]
    )


def random_cptp_channel(rng: np.random.Generator, dim: int = 2, n_kraus: int = 3) -> QubitChannel:
    """Random CPTP channel from a Haar-ish isometry (QR of a Ginibre block)."""
    a = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, _ = np.linalg.qr(a)
    return QubitChannel(kraus=[q[i * dim:(i + 1) * dim, :] for i in range(n_kraus)])


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random full-rank density matrix G G^dagger / tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
