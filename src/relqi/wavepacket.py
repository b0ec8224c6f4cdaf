"""Momentum-space quadrature grids and the amplitudes of Gaussian wave packets.

Integrals over momentum space are discretized with tensor-product
Gauss-Hermite rules mapped to the center and widths of a target Gaussian,
so integrands of Gaussian-times-polynomial type are exact up to the rule's
degree (2n - 1 per axis) and smooth integrands converge geometrically.

Two measure conventions are supported and recorded on every grid:

* PLAIN      -- d^3p, the nonrelativistic-style normalization of massive
                single-particle amplitudes;
* INVARIANT  -- d^3k / ((2 pi)^3 2 k^0), the Lorentz-invariant measure,
                with k^0 = sqrt(mass^2 + |k|^2) folded into the weights.

Every quadrature sum has a fixed order, numpy's pairwise reduction on the
grids and `math.fsum` (exact, rounded once) in the photon kernel, so a
given grid and integrand give bit-identical results on every run.

The 1-D Gauss-Hermite and Gauss-Laguerre rules are built once per node
count by Golub-Welsch in the standard library's `math`, with no LAPACK
eigen-solve, and cached as float tuples, a rule that breaks down as its
reason (`_gauss_outcome`, read through `_gauss_floats`).  The photon beam
kernel reads the tuples and needs no numpy.  `gauss_grid` builds its n^3
tensor grid from them on every call, and the massive-spin kernel streams
its folded 3-D rule from them block by block (spin_half._packet_blocks)
without building the grid, its probabilities products of the 1-D weights
and the packet width in its nodes only; each turns the tuples into the
numpy arrays it computes with.  No convergence check lives here: whether a
value has converged (recomputed at twice the nodes per axis) is decided
by one rule in `relqi.cli`.

The packet classes of spin_half, photon and entangle add only their
physics to one amplitude layer here: `checked_amplitudes` checks every
packet, `gaussian_profile` builds every packet's grid and Gaussian
amplitude, and `momentum_trace` integrates the momentum out of any
amplitude.  Transports move a grid with MomentumGrid.with_nodes, which
checks the moved grid again, so only gauss_grid calls MomentumGrid.

Every packet, grid and profile is a `Record`: a slotted class whose
fields `__init__` binds once and checks in `__post_init__`, and which
refuses any later assignment.
"""

from __future__ import annotations

import enum
import functools
import math

from . import qmatrix
from ._numpy import np

TWO_PI_CUBED = (2.0 * math.pi) ** 3
DEFAULT_NODES_PER_AXIS = 12  # every kernel's default, and every subcommand's --resolution


class NumericalError(ValueError):
    """A numerical method broke down on valid input (a rule, a defect check)."""


class Measure(enum.Enum):
    PLAIN = "plain"
    INVARIANT = "invariant"


class Record:
    """A value whose fields are bound once: assigning or deleting one later raises AttributeError.

    A subclass lists its fields in __slots__ and binds them in __init__
    through Record.__init__, which then runs the subclass's checks,
    __post_init__.  A check that normalizes a field rebinds it with
    object.__setattr__.
    """

    __slots__ = ()

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record without checks keeps them as given."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class GaussianSpec(Record):
    """Center and per-axis widths of a target Gaussian profile.

    Widths are those of the amplitude exp(-(k - c)^2 / (2 width^2)); the
    squared profile then has envelope exp(-(k - c)^2 / width^2), which is
    exactly the envelope the quadrature weights absorb.
    """

    __slots__ = ("center", "widths")

    def __init__(self, center: np.ndarray, widths: np.ndarray):
        super().__init__(center=center, widths=widths)

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        widths = np.asarray(self.widths, dtype=float).reshape(3)
        if np.any(widths <= 0.0):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def isotropic(cls, width: float) -> "GaussianSpec":
        """Zero-centred profile of equal width along every axis."""
        return cls(center=np.zeros(3), widths=np.full(3, float(width)))

    @classmethod
    def beam(cls, k_mean: float, delta_z: float, delta_r: float) -> "GaussianSpec":
        """Cylindrical beam profile around k_mean z (radial width delta_r)."""
        return cls(center=np.array([0.0, 0.0, float(k_mean)]),
                   widths=np.array([float(delta_r), float(delta_r), float(delta_z)]))


class MomentumGrid(Record):
    """Quadrature nodes (n, 3) and weights (n,) under a declared measure convention."""

    __slots__ = ("nodes", "weights", "convention", "mass")

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, convention: Measure,
                 mass: float = 0.0):
        super().__init__(nodes=nodes, weights=weights, convention=convention, mass=mass)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3:
            raise ValueError("nodes must be an (n, 3) array")
        if weights.shape != (nodes.shape[0],):
            raise ValueError("node and weight counts differ")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise ValueError("grid contains non-finite entries")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if self.mass < 0.0:
            raise ValueError("mass must be nonnegative")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def k0(self) -> np.ndarray:
        """Per-node on-shell energies sqrt(mass^2 + |k|^2)."""
        return np.sqrt(self.mass * self.mass + np.sum(self.nodes * self.nodes, axis=1))

    def with_nodes(self, nodes: np.ndarray, weights: np.ndarray | None = None) -> "MomentumGrid":
        """This grid moved to `nodes` (and `weights`, if given), checked again as a new grid."""
        return type(self)(nodes, self.weights if weights is None else weights, self.convention,
                          self.mass)


# The symmetric Jacobi matrix of each family's three-term recurrence at n nodes: its
# diagonal, its off-diagonal and mu0, the integral of the weight function.
_JACOBI_MATRICES = {
    "Gauss-Hermite": lambda n: ([0.0] * n, [math.sqrt(0.5 * k) for k in range(1, n)],
                                math.sqrt(math.pi)),
    "Gauss-Laguerre": lambda n: ([2.0 * k + 1.0 for k in range(n)],
                                 [float(k) for k in range(1, n)], 1.0),
}


def _golub_welsch(diag, off, mu0):
    """Ascending nodes and weights of the Gauss rule of a symmetric Jacobi matrix.

    Golub & Welsch, Math. Comp. 23, 221 (1969): the nodes are the
    eigenvalues of the matrix, and each weight is mu0 times the square of
    the first component of its unit eigenvector.  The eigenvalues come from
    implicit QL with Wilkinson shifts (tqli of Numerical Recipes), whose
    plane rotations are applied to the first row of the eigenvector matrix
    only: O(n) memory and O(n^2) time.  Raises NumericalError when an
    eigenvalue is not found in 30 iterations.
    """
    n = len(diag)
    d, e, z = list(diag), list(off) + [0.0], [1.0] + [0.0] * (n - 1)
    for l in range(n):
        for _ in range(30):
            m = l  # the matrix splits below the first negligible off-diagonal entry from l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0.0:  # f = g = 0 after an underflow: split here and sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]
            else:
                d[l] -= p
                e[l], e[m] = g, 0.0
        else:
            raise NumericalError(f"QL finds no eigenvalue of the {n}-node Jacobi matrix")
    pairs = sorted(zip(d, z))
    return [x for x, _ in pairs], [mu0 * v * v for _, v in pairs]


@functools.lru_cache(maxsize=8)
def _gauss_outcome(name: str, nodes_per_axis: int):
    """The nodes and weights of the `name` rule as float tuples, or the reason it breaks down.

    lru_cache keeps no exception, so a rule that breaks down is cached as
    its reason, and each node count is built once per process either way.
    """
    x, w = _golub_welsch(*_JACOBI_MATRICES[name](nodes_per_axis))
    if name == "Gauss-Hermite":
        x = [0.5 * (a - b) for a, b in zip(x, reversed(x))]
        w = [0.5 * (a + b) for a, b in zip(w, reversed(w))]
    if not all(0.0 < v < math.inf for v in w):
        return f"the {name} rule breaks down at {nodes_per_axis} nodes"
    return tuple(x), tuple(w)


def _gauss_floats(name: str, nodes_per_axis: int):
    """Nodes and weights of the `name` rule as float tuples, built once per node count.

    Golub-Welsch on the family's Jacobi matrix.  The Gauss-Hermite rule is
    mirrored exactly, x -> (x - x reversed)/2 and w -> (w + w reversed)/2,
    so that folding it over x -> -x is exact.  Raises NumericalError when a
    weight is not finite and positive, as when the smallest weight
    underflows: Gauss-Hermite from 389 nodes, Gauss-Laguerre from 196.
    """
    if nodes_per_axis < 1:
        raise ValueError("nodes_per_axis must be >= 1")
    outcome = _gauss_outcome(name, nodes_per_axis)
    if isinstance(outcome, str):
        raise NumericalError(outcome)
    return outcome


def ensure_same_grid(a: MomentumGrid, b: MomentumGrid) -> None:
    """Raise unless two grids share nodes, weights, mass and measure convention."""
    if a.convention is not b.convention:
        raise ValueError(
            f"measure conventions differ: {a.convention.value} vs {b.convention.value}"
        )
    same = a.mass == b.mass and np.array_equal(a.nodes, b.nodes)
    if not (same and np.array_equal(a.weights, b.weights)):
        raise ValueError("amplitudes live on different grids")


def gauss_grid(
    spec: GaussianSpec,
    nodes_per_axis: int,
    convention: Measure,
    mass: float = 0.0,
) -> MomentumGrid:
    """Tensor-product Gauss-Hermite grid targeted at `spec`.

    The weights absorb the Gaussian envelope exp(-(k-c)^2 / width^2) and,
    for the INVARIANT convention, the measure factor 1 / ((2 pi)^3 2 k^0),
    so that sum_i w_i g(k_i) approximates the integral of g under the
    declared measure for integrands with the target envelope.
    """
    x, w = (np.array(v) for v in _gauss_floats("Gauss-Hermite", nodes_per_axis))
    axes_nodes = []
    axes_weights = []
    for c, width in zip(spec.center, spec.widths):
        axes_nodes.append(c + width * x)
        axes_weights.append(width * w * np.exp(x * x))
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
    wx, wy, wz = np.meshgrid(*axes_weights, indexing="ij")
    weights = (wx * wy * wz).reshape(-1)
    if convention is Measure.INVARIANT:
        k0 = np.sqrt(mass * mass + np.sum(nodes * nodes, axis=1))
        if np.any(k0 <= 0.0):
            raise ValueError("invariant-measure grid contains a zero-energy node")
        weights = weights / (TWO_PI_CUBED * 2.0 * k0)
    return MomentumGrid(nodes=nodes, weights=weights, convention=convention, mass=mass)


def gaussian_profile(spec: GaussianSpec, nodes_per_axis: int, convention: Measure,
                     mass: float = 0.0) -> tuple[MomentumGrid, np.ndarray]:
    """(grid, h): gauss_grid(spec, ...) and h = exp(-|(k - c) / width|^2 / 2) on it, normalized."""
    grid = gauss_grid(spec, nodes_per_axis, convention, mass)
    u = (grid.nodes - spec.center) / spec.widths
    return grid, normalize(grid, np.exp(-0.5 * np.sum(u * u, axis=1)))


def checked_amplitudes(weights: np.ndarray, amps, shape: tuple,
                       state: str = "packet") -> np.ndarray:
    """`amps` as a read-only contiguous complex array of `shape` and unit norm.

    The norm weighs each of the len(weights) leading entries (a node or a
    node pair) by its weight.  A norm off 1 by more than 1e-8, or not a
    number, raises NumericalError naming the `state` norm; another shape,
    ValueError.
    """
    amps = np.ascontiguousarray(amps, dtype=complex)
    if amps.shape != shape:
        raise ValueError(f"amplitudes must have shape {shape}, not {amps.shape}")
    flat = amps.reshape(len(weights), -1)
    nrm = math.sqrt(float(weights @ np.sum(flat.real**2 + flat.imag**2, axis=1)))
    if not abs(nrm - 1.0) <= 1e-8:
        raise NumericalError(f"{state} norm {nrm:.12g} differs from 1")
    amps.setflags(write=False)
    return amps


def momentum_trace(weights: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """sum_n w_n a_n a_n^dagger of (n, d) amplitudes, Hermitized: the momentum integrated out."""
    return qmatrix.hermitize(np.einsum("n,ni,nj->ij", weights, amps, amps.conj()))


def inner_product(grid: MomentumGrid, f: np.ndarray, g: np.ndarray) -> complex:
    """<f, g> = sum_i w_i conj(f_i) g_i, summing any trailing component axes."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape or f.shape[0] != grid.n:
        raise ValueError("amplitude shapes do not match the grid")
    vals = (f.conj() * g).reshape(grid.n, -1).sum(axis=1)
    return complex(np.sum(grid.weights * vals))


def norm(grid: MomentumGrid, f: np.ndarray) -> float:
    return float(np.sqrt(np.real(inner_product(grid, f, f))))


def normalize(grid: MomentumGrid, f: np.ndarray) -> np.ndarray:
    """Scale amplitudes to unit norm; raises on zero input."""
    n = norm(grid, f)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize amplitudes with zero or non-finite norm")
    return np.asarray(f) / n
