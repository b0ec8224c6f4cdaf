"""Momentum-space quadrature grids for Gaussian wave packets.

Integrals over momentum space are discretized with tensor-product
Gauss-Hermite rules mapped to the center and widths of a target Gaussian,
so integrands of Gaussian-times-polynomial type are exact up to the rule's
degree (2n - 1 per axis) and smooth integrands converge geometrically.

Two measure conventions are supported and recorded on every grid:

* PLAIN      -- d^3p, the nonrelativistic-style normalization of massive
                single-particle amplitudes;
* INVARIANT  -- d^3k / ((2 pi)^3 2 k^0), the Lorentz-invariant measure,
                with k^0 = sqrt(mass^2 + |k|^2) folded into the weights.

Quadrature sums use numpy's fixed (pairwise) reduction order, so a given
grid and integrand give bit-identical results on every run.

A grid centred on 0 along an axis has nodes and weights exactly symmetric
under the reflection of that axis; `fold` keeps one node per mirror orbit
with the orbit's total probability, for integrands even under it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

TWO_PI_CUBED = (2.0 * np.pi) ** 3


class NumericalError(ValueError):
    """A numerical method broke down on valid input (a rule, a defect check)."""


class Measure(enum.Enum):
    PLAIN = "plain"
    INVARIANT = "invariant"


@dataclass(frozen=True)
class GaussianSpec:
    """Center and per-axis widths of a target Gaussian profile.

    Widths are those of the amplitude exp(-(k - c)^2 / (2 width^2)); the
    squared profile then has envelope exp(-(k - c)^2 / width^2), which is
    exactly the envelope the quadrature weights absorb.
    """

    center: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        widths = np.asarray(self.widths, dtype=float).reshape(3)
        if np.any(widths <= 0.0):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def isotropic(cls, width: float, center=(0.0, 0.0, 0.0)) -> "GaussianSpec":
        return cls(center=np.asarray(center, dtype=float), widths=np.full(3, float(width)))

    @classmethod
    def beam(cls, k_mean: float, delta_z: float, delta_r: float) -> "GaussianSpec":
        """Cylindrical beam profile around k_mean z (radial width delta_r)."""
        return cls(center=np.array([0.0, 0.0, float(k_mean)]),
                   widths=np.array([float(delta_r), float(delta_r), float(delta_z)]))


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature nodes and weights under a declared measure convention."""

    nodes: np.ndarray      # (n, 3)
    weights: np.ndarray    # (n,)
    convention: Measure
    mass: float = 0.0

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

    def same_grid(self, other: "MomentumGrid") -> bool:
        return (
            self.convention is other.convention
            and self.mass == other.mass
            and self.nodes.shape == other.nodes.shape
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def ensure_same_grid(a: MomentumGrid, b: MomentumGrid) -> None:
    """Raise unless two grids share nodes, weights and measure convention."""
    if a.convention is not b.convention:
        raise ValueError(
            f"measure conventions differ: {a.convention.value} vs {b.convention.value}"
        )
    if not a.same_grid(b):
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
    if nodes_per_axis < 1:
        raise ValueError("nodes_per_axis must be >= 1")
    x, w = np.polynomial.hermite.hermgauss(nodes_per_axis)
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


def fold(nodes: np.ndarray, probs: np.ndarray, axes) -> tuple:
    """Nodes and probabilities of a mirror-symmetric rule, one node per mirror orbit.

    `nodes` (n^3, 3) and `probs` (n^3,) must be laid out as gauss_grid
    lays out its tensor grid: the C-order flattening of (n, n, n) arrays.
    For each spatial axis k in `axes` the (n, n, n) node and probability
    arrays must equal their own flip along index axis k exactly, with
    coordinate k negated.  The check compares index with index, in O(N)
    time and without mirrored copies; a rule in another layout fails it.
    The nodes with q_k >= 0 for every folded k are kept, and the
    probability of each kept node is doubled once for each folded k with
    q_k > 0, so that sum_n p_n f(q_n) is unchanged for any f even under
    those reflections.  Returns new read-only (nodes, probs) arrays; raises
    ValueError when the rule is not mirror-symmetric along one of `axes`.
    """
    nodes = np.asarray(nodes, dtype=float)
    probs = np.asarray(probs, dtype=float)
    axes = list(axes)
    n = round(len(probs) ** (1.0 / 3.0))
    if nodes.shape != (n**3, 3) or probs.shape != (n**3,):
        raise ValueError("fold needs the (n^3, 3) nodes and (n^3,) probabilities of a tensor grid")
    grid = nodes.reshape(n, n, n, 3)
    cube = probs.reshape(n, n, n)
    for k in axes:
        flip = tuple(slice(None, None, -1) if j == k else slice(None) for j in range(3))
        image = grid[flip]
        if not (np.array_equal(cube, cube[flip])
                and all(np.array_equal(grid[..., j], -image[..., j] if j == k else image[..., j])
                        for j in range(3))):
            raise ValueError(f"the rule is not mirror-symmetric along {'xyz'[k]}")
    keep = np.ones(len(probs), dtype=bool)
    for k in axes:
        keep &= nodes[:, k] >= 0.0
    kept = nodes[keep]
    kept_probs = probs[keep] * 2.0 ** np.sum(kept[:, axes] > 0.0, axis=1)
    kept.setflags(write=False)
    kept_probs.setflags(write=False)
    return kept, kept_probs


def refine(values_at, nodes_per_axis: int, tolerance: float,
           check_convergence: bool = True) -> dict:
    """The values at `nodes_per_axis`, their node count and convergence flag.

    `values_at(n)` returns the dict of grid-dependent values printed at n
    nodes per axis.  Unless `check_convergence` is off they are recomputed
    at 2n, and `converged` holds when every value (every entry of an array)
    moved by less than `tolerance`, absolute.  A ValueError propagates.
    """
    values = values_at(nodes_per_axis)
    converged = True
    if check_convergence:
        fine = values_at(2 * nodes_per_axis)
        converged = all(np.all(np.abs(np.subtract(fine[k], v)) < tolerance)
                        for k, v in values.items())
    return {**values, "grid_nodes": nodes_per_axis**3, "converged": bool(converged)}


def row(fields: dict, values_at, nodes_per_axis: int, tolerance: float,
        check_convergence: bool = True) -> dict:
    """One sweep row: `fields` updated with refine(values_at, ...).

    `fields` holds the row's inputs and a NaN for each value it prints.  A
    row whose evaluation raises ValueError, at either resolution, keeps
    those NaNs, is not converged and carries the reason as "error".
    """
    try:
        return {**fields, **refine(values_at, nodes_per_axis, tolerance, check_convergence)}
    except ValueError as exc:
        return {**fields, "grid_nodes": nodes_per_axis**3, "converged": False,
                "error": str(exc)}
