"""Two-particle spin-1/2 states: boosts, spin-spin reductions, concurrence.

Amplitudes g(sigma1, sigma2, p1, p2) live on a product of two
INVARIANT-convention grids (massive particles, invariant measure).  Boosts
act on each particle separately: nodes transport, invariant weights ride
along unchanged, and each spin index is rotated by the SU(2) Wigner matrix
of its own momentum.  Entanglement is quantified by the Wootters
concurrence of the 4x4 spin-spin reduction.

Sweeps never build the (n1, n2) pair amplitude or a Lorentz matrix.  For
the singlet times a product of identical Gaussian profiles, the boosted
spin-spin state is fixed by the Bloch matrix T = sum_n p_n W_n of one
particle: its correlation tensor is -T T^T and its marginals stay
maximally mixed.  T and the concurrence (|T|_F^2 - 1)/2 are short
functions of the moments (D, s) of spin_half.wigner_moments on the
INVARIANT grid, so a sweep row costs O(N) time and O(block + n) memory in
the N = n^3 nodes of one particle's grid, not O(N^2); the z boost
tau = (0, 0, tanh(xi/2)) of a row evaluates W_n on a quarter of them, one
node per mirror orbit.  `sweep_values` returns the values of one sweep row
at one resolution; the n/2n convergence check is made in `relqi.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, qmatrix, spin_half
from .wavepacket import GaussianSpec, Measure, MomentumGrid, NumericalError, gauss_grid, normalize

DEFAULT_NODES_PER_AXIS = 8

SINGLET = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) / np.sqrt(2.0)

_YY = np.kron(qmatrix.SIGMA_Y, qmatrix.SIGMA_Y)

# sigma_k (x) sigma_l for k, l in x, y, z, shape (3, 3, 4, 4)
_PAULI_PAIRS = np.array([
    [np.kron(a, b) for b in (qmatrix.SIGMA_X, qmatrix.SIGMA_Y, qmatrix.SIGMA_Z)]
    for a in (qmatrix.SIGMA_X, qmatrix.SIGMA_Y, qmatrix.SIGMA_Z)
])


@dataclass(frozen=True)
class TwoParticleAmplitude:
    """Spin-resolved amplitude over a product momentum grid."""

    grid1: MomentumGrid
    grid2: MomentumGrid
    g: np.ndarray   # (n1, n2, 2, 2) complex, indices (p1, p2, sigma1, sigma2)

    def __post_init__(self):
        g = np.ascontiguousarray(self.g, dtype=complex)
        for grid in (self.grid1, self.grid2):
            if grid.convention is not Measure.INVARIANT:
                raise ValueError("two-particle states use the INVARIANT convention")
            if grid.mass <= 0.0:
                raise ValueError("two-particle grids must carry a positive mass")
        if g.shape != (self.grid1.n, self.grid2.n, 2, 2):
            raise ValueError("amplitude shape does not match the product grid")
        total = np.einsum("n,m,nmab,nmab->", self.grid1.weights, self.grid2.weights,
                          g, g.conj())
        nrm = float(np.sqrt(np.real(total)))
        if abs(nrm - 1.0) > 1e-8:
            raise NumericalError(f"state norm {nrm:.12g} differs from 1")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)


def bell_gaussian(
    delta: float,
    mass: float,
    nodes_per_axis: int = DEFAULT_NODES_PER_AXIS,
) -> TwoParticleAmplitude:
    """Spin singlet times a product of zero-centered Gaussian profiles.

    Centered in the rest frame where the total mean momentum vanishes;
    the rest-frame spin-spin reduction is the singlet projector.  Both
    particles share one grid and one profile.
    """
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    grid = gauss_grid(GaussianSpec.isotropic(delta), nodes_per_axis, Measure.INVARIANT, mass=mass)
    h = normalize(grid, np.exp(-np.sum(grid.nodes**2, axis=1) / (2.0 * delta**2)))
    g = h[:, None, None, None] * h[None, :, None, None] * SINGLET[None, None, :, :]
    return TwoParticleAmplitude(grid1=grid, grid2=grid, g=g)


def boost_pair(lam: np.ndarray, state: TwoParticleAmplitude) -> TwoParticleAmplitude:
    """Boost both particles: node transport plus per-node Wigner rotations."""
    mass = state.grid1.mass
    p4_1, u1 = geometry.wigner_su2_batch(lam, state.grid1.nodes, mass)
    p4_2, u2 = geometry.wigner_su2_batch(lam, state.grid2.nodes, state.grid2.mass)
    g = np.einsum("nab,mcd,nmbd->nmac", u1, u2, state.g)
    grid1 = MomentumGrid(nodes=p4_1[:, 1:], weights=state.grid1.weights,
                         convention=Measure.INVARIANT, mass=mass)
    grid2 = MomentumGrid(nodes=p4_2[:, 1:], weights=state.grid2.weights,
                         convention=Measure.INVARIANT, mass=state.grid2.mass)
    return TwoParticleAmplitude(grid1=grid1, grid2=grid2, g=g)


def spin_spin_density(state: TwoParticleAmplitude) -> np.ndarray:
    """4x4 spin-spin state, both momenta integrated out."""
    rho = np.einsum(
        "n,m,nmab,nmcd->abcd",
        state.grid1.weights,
        state.grid2.weights,
        state.g,
        state.g.conj(),
    ).reshape(4, 4)
    return qmatrix.hermitize(rho)


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Taken from the singular values of sqrt(rho) (Y x Y) sqrt(rho)^*, which
    keep their absolute accuracy near a pure state (the eigenvalues of
    rho rho~ do not); negative eigenvalues of rho are clipped to 0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("concurrence is defined for 4x4 density matrices")
    mu, vecs = np.linalg.eigh(qmatrix.hermitize(rho))
    root = (vecs * np.sqrt(np.clip(mu, 0.0, None))) @ vecs.conj().T
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def boosted_singlet(tau, delta_over_m: float, nodes_per_axis: int = DEFAULT_NODES_PER_AXIS):
    """Concurrence and 4x4 spin-spin state of the boosted bell_gaussian singlet.

    Both particles share the Bloch matrix T = I + D of the Gaussian of
    width delta_over_m boosted by tau (spin_half.wigner_moments), so the state is
    (I - sum_kl (T T^T)_kl sigma_k (x) sigma_l)/4.  Its concurrence
    (|T|_F^2 - 1)/2 is taken as max(0, 1 - 4 s + |D|_F^2 / 2), since
    tr D = -4 s: the deficit from 1 without forming |T|_F^2 near 3.
    """
    d, s = spin_half.wigner_moments(tau, delta_over_m, nodes_per_axis, Measure.INVARIANT)
    t = np.eye(3) + d
    rho = 0.25 * (np.eye(4) - np.einsum("kl,klab->ab", t @ t.T, _PAULI_PAIRS))
    return max(0.0, 1.0 - 4.0 * s + 0.5 * float(np.sum(d * d))), rho


def sweep_values(delta_over_m: float, beta: float, nodes_per_axis: int) -> dict:
    """Concurrence and marginal entropy of the singlet at (delta/m, beta), boosted along z."""
    tau = (0.0, 0.0, spin_half.tanh_half_rapidity(beta))
    conc, rho = boosted_singlet(tau, delta_over_m, nodes_per_axis)
    marginal = qmatrix.partial_trace(rho, (2, 2), side="right")
    return {"concurrence": conc, "entropy_of_marginal_bits": qmatrix.entropy(marginal)}
