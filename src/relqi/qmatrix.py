"""Finite-dimensional density-matrix algebra.

Partial traces, von Neumann entropy (base 2, bits), the Helstrom
minimum-error probability, qubit channels stored as their Choi matrices,
and complete-positivity certification.

Conventions: superoperators act on column-stacked vec(rho); the Choi matrix
of a channel is built from the unnormalized maximally entangled operator,
so a trace-preserving qubit channel has Choi trace 2.
"""

from __future__ import annotations

from ._numpy import np

PSD_TOL = 1e-10  # eigenvalues down to -PSD_TOL are quadrature noise around 0
CHANNEL_TOL = 1e-12  # the CP and TP checks of a channel


def hermitize(mat: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2; removes rounding-level anti-Hermitian noise."""
    mat = np.asarray(mat, dtype=complex)
    return 0.5 * (mat + mat.conj().T)


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


def entropy(rho) -> float:
    """von Neumann entropy -sum(lam * log2(lam)) in bits, from rho's spectrum.

    Eigenvalues in [-PSD_TOL, 1e-14] are treated as exact zeros (quadrature
    noise); anything more negative raises.
    """
    eigs = np.linalg.eigvalsh(hermitize(rho))
    if eigs.min() < -PSD_TOL:
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


class QubitChannel:
    """Linear map on d x d matrices, stored as its Choi matrix C.

    C[(i, a), (j, b)] = Phi(|i><j|)[a, b] is built from exactly one of
    `kraus` (sum_k K_k[a, i] conj(K_k[b, j])) or `superop`, the (d^2, d^2)
    column-stacking superoperator S[a + d b, i + d j]; all else reads C.
    """

    def __init__(self, kraus=None, superop=None):
        if (kraus is None) == (superop is None):
            raise ValueError("provide exactly one of kraus= and superop=")
        self._kraus = None if kraus is None else [np.asarray(k, dtype=complex) for k in kraus]
        if superop is None:
            self.dim = d = self._kraus[0].shape[0]
            choi = sum(np.multiply.outer(k.T, k.T.conj()) for k in self._kraus)
        else:
            superop = np.asarray(superop, dtype=complex)
            self.dim = d = int(round(np.sqrt(superop.shape[0])))
            if superop.shape != (d * d, d * d):
                raise ValueError(f"superoperator shape {superop.shape} is not (d^2, d^2)")
            choi = superop.reshape(d, d, d, d).transpose(3, 1, 2, 0)
        self._choi = choi.reshape(d * d, d * d).copy()
        self._choi.setflags(write=False)

    def superoperator(self) -> np.ndarray:
        """Column-stacking superoperator, sum_k conj(K_k) (x) K_k for a Kraus form."""
        d = self.dim
        return self._choi.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)

    def kraus_operators(self):
        """The Kraus operators given, else those of the Choi eigendecomposition."""
        return self._kraus if self._kraus is not None else kraus_from_choi(self._choi, self.dim)

    def apply(self, rho) -> np.ndarray:
        d = self.dim
        rho = np.asarray(rho, dtype=complex)
        return np.einsum("ij,iajb->ab", rho, self._choi.reshape(d, d, d, d))

    __call__ = apply

    def is_trace_preserving(self) -> bool:
        """Whether the partial trace of C is I within CHANNEL_TOL."""
        acc = partial_trace(self._choi, (self.dim, self.dim), side="right")
        return bool(np.abs(acc - np.eye(self.dim)).max() <= CHANNEL_TOL)


def choi_matrix(channel: QubitChannel) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) channel(|i><j|), read-only."""
    return channel._choi


def is_completely_positive(channel: QubitChannel):
    """(CP verdict, minimum Choi eigenvalue); CP when that is at least -CHANNEL_TOL."""
    eigs = np.linalg.eigvalsh(hermitize(choi_matrix(channel)))
    min_eig = float(eigs.min())
    return min_eig >= -CHANNEL_TOL, min_eig


def kraus_from_choi(choi, dim: int = 2):
    """Kraus operators of a PSD Choi matrix (none for eigenvalues <= PSD_TOL); else raises."""
    choi = np.asarray(choi, dtype=complex)
    eigs, vecs = np.linalg.eigh(hermitize(choi))
    if eigs.min() < -PSD_TOL:
        raise ValueError(f"Choi matrix is not positive (min eig {eigs.min():.3g})")
    ops = []
    for lam, v in zip(eigs, vecs.T):
        if lam > PSD_TOL:
            ops.append(np.sqrt(lam) * v.reshape(dim, dim).T)
    return ops
