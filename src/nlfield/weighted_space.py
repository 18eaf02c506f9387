"""Weighted L^p machinery on a truncated uniform grid.

Fields live on [-L, L) sampled at n equally spaced nodes and are measured
in the norm

    ||u|| = (sum_i rho(x_i) |u(x_i)|^p dx)^(1/p),

a composite trapezoid quadrature of the integral over the truncated
domain (the integrand is treated as even-extended at the cut, so the
plain sum and the trapezoid rule coincide up to the boundary weight).
Mass beyond the cut is never silently dropped: tail_mass gives the exact
weight mass outside a radius, and radius_for_tail inverts it to the
radius whose exterior carries at most a given mass.

Two weight families are shipped, both normalized to unit mass over the
real line:

    cauchy     rho(x) = 1 / (pi (1 + x^2))
    gaussian   rho(x) = exp(-x^2/2) / sqrt(2 pi)

Only the Cauchy weight meets the theory's hypothesis that
K = sup_y max_{|x-y|<=1} rho(x)/rho(y) is finite: K = (3 + sqrt 5)/2 for
it, while the gaussian ratio rho(c-1)/rho(c) = exp(c - 1/2) grows without
bound.  The constants built on K and on rho_1 = min_{|y|<=1} rho live in
bounds, as the Cauchy weight's; the gaussian weight serves the
integration and attractor code, which need neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatchError, InvalidFieldError

WEIGHT_CAUCHY = "cauchy"
WEIGHT_GAUSSIAN = "gaussian"
_WEIGHT_KINDS = (WEIGHT_CAUCHY, WEIGHT_GAUSSIAN)


@dataclass(frozen=True)
class WeightFunction:
    """A positive, even, unit-mass weight density on the line."""

    kind: str

    def __post_init__(self):
        if self.kind not in _WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}; expected one of {_WEIGHT_KINDS}")

    @classmethod
    def cauchy(cls) -> "WeightFunction":
        return cls(WEIGHT_CAUCHY)

    @classmethod
    def gaussian(cls) -> "WeightFunction":
        return cls(WEIGHT_GAUSSIAN)

    def __call__(self, x):
        """Evaluate the density at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        if self.kind == WEIGHT_CAUCHY:
            return 1.0 / (math.pi * (1.0 + x * x))
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid x_i = -L + i dx, i = 0..n-1, with dx = 2L/n.

    The right endpoint +L is not a node, which keeps the node count equal
    to the FFT length used by the convolution routines.
    """

    half_length: float
    n_points: int

    def __post_init__(self):
        if not (4.0 <= self.half_length < math.inf):
            raise ValueError(f"half_length must be finite and >= 4, got {self.half_length}")
        if not isinstance(self.n_points, (int, np.integer)) or self.n_points < 16:
            raise ValueError(f"n_points must be an integer >= 16, got {self.n_points!r}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        x = -self.half_length + self.spacing * np.arange(self.n_points)
        x.setflags(write=False)
        return x

    def interior_mask(self, margin: float = 1.0) -> np.ndarray:
        """Nodes at least `margin` away from both cuts.

        Zero extension makes convolution against a unit-support kernel
        exact only on this interior set.
        """
        return np.abs(self.nodes) <= self.half_length - margin - 0.5 * self.spacing


@dataclass(frozen=True, eq=False)
class WeightedField:
    """Samples of a field on a grid, measured against a weight."""

    grid: Grid1D
    weight: WeightFunction
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise InvalidFieldError(
                f"expected {self.grid.n_points} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidFieldError("field samples must be finite")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "WeightedField":
        return WeightedField(self.grid, self.weight, values)

    def same_space(self, other: "WeightedField") -> None:
        if self.grid != other.grid or self.weight != other.weight:
            raise GridMismatchError("fields live on different grids or weights")


@lru_cache(maxsize=32)
def quad_weights(weight: WeightFunction, grid: Grid1D) -> np.ndarray:
    """Quadrature weights rho(x_i) dx, cached per (weight, grid)."""
    w = weight(grid.nodes) * grid.spacing
    w.setflags(write=False)
    return w


def _check_p(p: float) -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise ValueError(f"exponent p must lie in (1, inf), got {p}")
    return p


def _lp_norm(values: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Weighted l^p norm along the last axis of a raw (..., n) array."""
    return (np.abs(values) ** p @ w) ** (1.0 / p)


def weighted_norm(u: WeightedField, p: float = 2.0) -> float:
    """Truncated-domain weighted p-norm of the field."""
    return float(_lp_norm(u.values, quad_weights(u.weight, u.grid), _check_p(p)))


def tail_mass(weight: WeightFunction, radius: float) -> float:
    """Weight mass outside [-radius, radius], in closed form."""
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius}")
    if weight.kind == WEIGHT_CAUCHY:
        return (2.0 / math.pi) * math.atan(1.0 / radius)
    return math.erfc(radius / math.sqrt(2.0))


def radius_for_tail(weight: WeightFunction, mass_bound: float) -> float:
    """Smallest radius whose exterior weight mass is at most mass_bound;
    a bound still exceeded at radius 2^40 (about 1.1e12) raises ValueError."""
    if not (0.0 < mass_bound < 1.0):
        raise ValueError(f"mass bound must lie in (0, 1), got {mass_bound}")
    lo, hi = 1e-12, 1.0
    while tail_mass(weight, hi) > mass_bound:
        if hi > 1e12:
            raise ValueError("tail bound unreachable")
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail_mass(weight, mid) > mass_bound:
            lo = mid
        else:
            hi = mid
    return hi


def finite_difference(u: WeightedField) -> WeightedField:
    """Centered first derivative, one-sided at the two boundary nodes.

    Bit-equal to np.gradient(u.values, dx, edge_order=1) on the grid.
    """
    v, dx = u.values, u.grid.spacing
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    d[0] = (v[1] - v[0]) / dx
    d[-1] = (v[-1] - v[-2]) / dx
    return u.with_values(d)
