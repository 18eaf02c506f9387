"""Root structure of the spatially constant states.

A constant field s is stationary exactly when s = g(beta s + beta h)
for the constant forcing level h.  count_roots scans that scalar
equation.  With x = beta (s + h) the roots are the solutions of
h = x/beta - g(x), so for an odd response the forcing threshold where
the root count drops from three to one is the height of the fold,

    h*(beta) = max_{x > 0} g(x) - x/beta,

attained where beta g'(x) = 1.  compute_h_star bisects for that root
as count_roots does and confirms the height with two scans: three
roots just below h*, one just above.  compute_h_star alone decides
whether the bistable regime exists: where it does not, h* is 0.

For g = tanh the threshold has the closed form

    h*(beta) = sqrt(1 - 1/beta) - artanh(sqrt(1 - 1/beta)) / beta,

kept here as tanh_h_star purely as an independent cross-check;
compute_h_star never consults it.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Nonlinearity
from .errors import NotBistableError

log = logging.getLogger(__name__)

SCAN_INTERVAL = (-1.5, 1.5)
SCAN_POINTS = 100_000
ROOT_XTOL = 1e-12
ROOT_SEPARATION = 1e-8
CHECK_REL = 1e-3
# nodes per block of the scan's phi evaluation
_SCAN_BLOCK = 8192


@dataclass(frozen=True)
class RootReport:
    """Roots of s = g(beta s + beta h), sorted increasing."""

    beta: float
    h: float
    roots: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.roots)


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        if hi - lo <= ROOT_XTOL:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=4)
def _scan_grid(interval: tuple[float, float], points: int) -> np.ndarray:
    """The scan nodes, built once per (interval, points) and read-only."""
    s = np.linspace(interval[0], interval[1], points)
    s.flags.writeable = False
    return s


def count_roots(beta: float, h: float, g: Nonlinearity) -> RootReport:
    """Scan for sign changes of g(beta s + beta h) - s, then bisect each.

    The scan covers SCAN_INTERVAL at SCAN_POINTS equally spaced nodes,
    both read at call time; the grid for each pair is built once and
    kept read-only.  phi is evaluated in blocks of _SCAN_BLOCK nodes and
    only its sign is kept, one int8 per node, so a scan holds no float
    temporaries the size of the grid.  Exact zeros at scan nodes count
    as roots, one per run of adjacent zero nodes; a tangency that
    produces no sign change is not a root.  A NaN of phi at a scan node
    raises ValueError.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")

    def phi(s):
        return g(beta * s + beta * h) - s

    s = _scan_grid(SCAN_INTERVAL, SCAN_POINTS)
    # zeroed, so a node no block writes reads as an exact zero, a root
    sign = np.zeros(len(s), dtype=np.int8)
    for a in range(0, len(s), _SCAN_BLOCK):
        block = np.sign(phi(s[a:a + _SCAN_BLOCK]))
        if np.isnan(block).any():
            raise ValueError(f"g(beta s + beta h) - s is NaN at a scan node "
                             f"for beta={beta}, h={h}")
        sign[a:a + _SCAN_BLOCK] = block

    # maximal runs of exact zeros, one root each, at the run's midpoint:
    # +1/-1 steps of the padded zero mask mark run starts / one-past-ends
    zero = np.concatenate(([False], sign == 0, [False]))
    edges = np.diff(zero.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    roots = [float(r) for r in 0.5 * (s[starts] + s[ends])]
    # strict sign changes between adjacent nonzero nodes
    change = (sign[:-1] * sign[1:]) < 0
    for i in np.flatnonzero(change):
        roots.append(_bisect(phi, float(s[i]), float(s[i + 1])))

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if not merged or r - merged[-1] > ROOT_SEPARATION:
            merged.append(r)

    return RootReport(beta=beta, h=h, roots=tuple(merged))


def _fold_peak(beta: float, g: Nonlinearity) -> float:
    """max over x > 0 of g(x) - x/beta, at the root of beta g'(x) = 1.

    Assumes g' decreases on x > 0, as for tanh and zero.  The bracket
    [0, b] doubles b from 1 while the slope is still positive; with no
    fold (beta g'(0) <= 1) the peak is g(0) = 0.
    """
    def slope(x):
        return beta * float(g.deriv(x)) - 1.0

    if slope(0.0) <= 0.0:
        return float(g(0.0))
    b = 1.0
    while slope(b) > 0.0:
        b *= 2.0
    x = _bisect(slope, 0.0, b)
    return float(g(x)) - x / beta


def compute_h_star(beta: float, g: Nonlinearity) -> float:
    """Threshold forcing: supremum of h with three transversal roots.

    h* is the fold height max_{x > 0} g(x) - x/beta, at the bisected
    root of beta g'(x) = 1, and two count_roots scans confirm it: three
    roots at h*(1 - CHECK_REL), one at h*(1 + CHECK_REL), else
    NotBistableError.  Where no bistable regime exists, that is for
    beta <= 1 (decided without a scan) or when the fold does not rise
    above 0, it returns 0 with a warning rather than an error so
    parameter sweeps can cross it.  A fold at h >= 2 raises
    NotBistableError.
    """
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    if beta <= 1.0:
        log.warning("beta=%g is at or below the bistability threshold; h* undefined, returning 0",
                    beta)
        return 0.0

    h_star = _fold_peak(beta, g)
    if h_star <= 0.0:
        log.warning("the response has no three-root regime at h=0 for beta=%g; "
                    "h* undefined, returning 0", beta)
        return 0.0
    if h_star >= 2.0:
        raise NotBistableError(
            f"still three roots at h=2 for beta={beta}; no transition in range")
    below = count_roots(beta, h_star * (1.0 - CHECK_REL), g).count
    above = count_roots(beta, h_star * (1.0 + CHECK_REL), g).count
    if below != 3 or above != 1:
        raise NotBistableError(
            f"fold at h*={h_star:.17g} for beta={beta} is not confirmed by the "
            f"root count: {below} roots below it, {above} above (expected 3 and 1)")
    return h_star


def tanh_h_star(beta: float) -> float:
    """Closed-form threshold for g = tanh (independent cross-check)."""
    if beta <= 1.0:
        return 0.0
    r = math.sqrt(1.0 - 1.0 / beta)
    return r - math.atanh(r) / beta
