"""Two-particle spin-1/2 states: boosts, spin-spin reductions, concurrence.

Amplitudes g(sigma1, sigma2, p1, p2) live on one INVARIANT-convention grid
(massive particles, invariant measure) that both momenta range over, so
the pair nodes are its node pairs.  Boosts act on each particle separately:
nodes transport, invariant weights ride along unchanged, and each spin
index is rotated by the SU(2) Wigner matrix of its own momentum.
wavepacket checks the amplitude, builds its Gaussian profile and traces
both momenta out; this module adds the singlet, the mass rule and the
Wigner action.
Entanglement is quantified by the Wootters concurrence of the 4x4
spin-spin reduction.

Sweeps never build the (n, n) pair amplitude, a Lorentz matrix or the
4x4 spin-spin state.  For the singlet times a product of identical
Gaussian profiles, that state is fixed by the Bloch matrix T of one
particle: its correlation tensor is -T T^T and its marginals stay I/2, one
bit with no eigen-solve.  For a z boost T = diag(1 - s, 1 - s, 1 - 2s),
so the concurrence is max(0, (1 - s)(1 - 3s)) in the one scalar
s = <sin^2(omega/2)> of spin_half.wigner_moments on the INVARIANT grid
(sweep_values).  A sweep row costs O(N) time and O(block + n) memory in
the N = n^3 nodes of one particle's grid, not O(N^2); the z boost
tau = (0, 0, tanh(xi/2)) of a row evaluates W_n on a quarter of them, one
node per mirror orbit.
`sweep_values` returns the values of one sweep row at one resolution; the
n/2n convergence check is made in `relqi.cli`.
"""

from __future__ import annotations

from . import geometry, qmatrix, spin_half
from ._numpy import np
from .wavepacket import (GaussianSpec, Measure, MomentumGrid, Record, checked_amplitudes,
                         gaussian_profile, momentum_trace)


class TwoParticleAmplitude(Record):
    """Spin-resolved amplitude g(p1, p2) of two particles on one momentum grid: (n, n, 2, 2)
    complex, indices (p1, p2, sigma1, sigma2)."""

    __slots__ = ("grid", "g")

    def __init__(self, grid: MomentumGrid, g: np.ndarray):
        super().__init__(grid=grid, g=g)

    def __post_init__(self):
        if self.grid.convention is not Measure.INVARIANT:
            raise ValueError("two-particle states use the INVARIANT convention")
        if self.grid.mass <= 0.0:
            raise ValueError("two-particle grids must carry a positive mass")
        n, w = self.grid.n, self.grid.weights
        object.__setattr__(self, "g", checked_amplitudes(np.outer(w, w).ravel(), self.g,
                                                         (n, n, 2, 2), "state"))


def bell_gaussian(delta: float, mass: float, nodes_per_axis: int) -> TwoParticleAmplitude:
    """Spin singlet times a product of zero-centered Gaussian profiles.

    Centered in the rest frame where the total mean momentum vanishes;
    the rest-frame spin-spin reduction is the singlet projector.  Both
    particles share one grid and one profile.  The amplitude holds
    (nodes_per_axis^3)^2 pair nodes, so every caller names its node count.
    """
    if delta <= 0.0 or mass <= 0.0:
        raise ValueError("width and mass must be positive")
    grid, h = gaussian_profile(GaussianSpec.isotropic(delta), nodes_per_axis, Measure.INVARIANT,
                               mass=mass)
    singlet = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) / np.sqrt(2.0)
    g = h[:, None, None, None] * h[None, :, None, None] * singlet[None, None, :, :]
    return TwoParticleAmplitude(grid=grid, g=g)


def boost_pair(lam: np.ndarray, state: TwoParticleAmplitude) -> TwoParticleAmplitude:
    """Boost both particles: node transport plus per-node Wigner rotations.

    Both particles sit on the same nodes, so one Wigner matrix u_n per node
    rotates the spin of either particle at p = node n.
    """
    p4, u = geometry.wigner_su2_batch(lam, state.grid.nodes, state.grid.mass)
    g = np.einsum("nab,mcd,nmbd->nmac", u, u, state.g)
    return TwoParticleAmplitude(grid=state.grid.with_nodes(p4[:, 1:]), g=g)


def spin_spin_density(state: TwoParticleAmplitude) -> np.ndarray:
    """4x4 spin-spin state, both momenta integrated out over the node pairs."""
    w = state.grid.weights
    return momentum_trace(np.outer(w, w).ravel(), state.g.reshape(-1, 4))


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
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    lam = np.linalg.svd(root @ np.kron(sigma_y, sigma_y) @ root.conj(), compute_uv=False)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def sweep_values(delta_over_m: float, beta: float, nodes_per_axis: int) -> dict:
    """Concurrence and marginal entropy of the singlet at (delta/m, beta), boosted along z.

    Both particles share the Bloch matrix T = diag(1 - s, 1 - s, 1 - 2s) of
    the Gaussian of width delta/m boosted by tau = (0, 0, tanh(xi/2)), with
    s = <sin^2(omega/2)> from spin_half.wigner_moments on the INVARIANT
    grid, so the concurrence (|T|_F^2 - 1)/2 is max(0, (1 - s)(1 - 3s)).
    The marginal entropy is exactly one bit: tracing either spin out of any
    (I - sum_kl C_kl sigma_k (x) sigma_l)/4 leaves I/2.
    """
    tau = (0.0, 0.0, spin_half.tanh_half_rapidity(beta))
    _, s = spin_half.wigner_moments(tau, delta_over_m, nodes_per_axis, Measure.INVARIANT)
    return {"concurrence": max(0.0, (1.0 - s) * (1.0 - 3.0 * s)),
            "entropy_of_marginal_bits": 1.0}
