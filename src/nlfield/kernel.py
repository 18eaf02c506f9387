"""Compactly supported averaging kernel and its convolution paths.

The shipped kernel is the unit-support bump

    J(x) = c exp(-1/(1 - x^2))   on (-1, 1),   J = 0 outside,

sampled at grid offsets and normalized so the quadrature sum of the
samples is exactly 1.  Its derivative is evaluated analytically, so
differentiating a convolution reduces to convolving against J'.

Fields are extended by zero past the cut, so both convolutions agree
with the integral only on the interior (half_length - 1 from the cut);
use Grid1D.interior_mask when asserting against continuum identities.

convolve_direct is the quadratic-cost reference sum (the oracle the
fast path is tested against).  Every other convolution in the package,
convolve_fast, the nonlinear term of the dynamics and the operator
checks of bounds, goes through one FFT expression, _fft_convolve: a
forward transform of the rows, the product with a cached spectrum, an
inverse transform cropped to the grid, and the subtraction of the
wrap-around at the cuts (_unwrap).  It takes J * u, or J' * u with the
derivative spectrum and its edge matrices; J' * u is taken only by the
J' row of the operator checks' power iteration.

The transform length is the grid's own 5-smooth length L, the smallest
length >= n with no prime factor above 5 (numpy's FFT is several times
slower at lengths with a large prime factor), and the kernel taps, dx
folded in, sit circularly at index j mod L.  A circular convolution of
that length wraps the last m nodes (m the kernel half width) onto the
first r = max(m - (L - n), 0) outputs and the first m nodes onto the
last r.  That wrap-around is an exact linear term: two cached (m, r)
edge matrices per spectrum, slices of the kernel's Toeplitz band, give
it, and _unwrap subtracts it.  At n = 4096 the band is the full m wide;
at n = 1009 (L = 1024, m = 10) there is none.  The expression acts
along the last axis, so a batch of fields stacked as a (k, n) array
convolves in one call, each row bitwise equal to its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, GridTooCoarseError
from .weighted_space import Grid1D, WeightedField

# spacing above this cannot resolve the unit-support bump
MAX_KERNEL_SPACING = 0.1


@dataclass(frozen=True, eq=False)
class Kernel:
    """Sampled kernel with cached norms and FFT spectra."""

    grid: Grid1D
    half_width: int
    samples: np.ndarray
    deriv_samples: np.ndarray
    norm_l1: float
    norm_sup: float
    deriv_norm_l1: float
    _spectrum: np.ndarray = field(repr=False)
    _deriv_spectrum: np.ndarray = field(repr=False)
    _fft_len: int = field(repr=False)
    # (head, tail) wrap-around matrices of each spectrum, both (m, r)
    _edges: tuple[np.ndarray, np.ndarray] = field(repr=False)
    _deriv_edges: tuple[np.ndarray, np.ndarray] = field(repr=False)


def _next_5smooth(n: int) -> int:
    """Smallest integer >= n (and >= 1) with no prime factor above 5."""
    length = max(n, 1)
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


def _edge_matrices(taps: np.ndarray, m: int, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Wrap-around of a circular convolution of length n + gap at the cuts.

    taps holds the 2m + 1 kernel values at offsets -m..m.  Output i < r
    picks up taps[2m + gap + i - a] * u[n - m + a] from the last m nodes
    (head[a, i]), and output n - r + b picks up taps[b - t] * u[t] from
    the first m nodes (tail[t, b]), zero where the tap index leaves
    0..2m.  Both are slices of the Toeplitz band of the zero-padded taps.
    """
    r = max(m - gap, 0)
    band = np.concatenate([np.zeros(m), taps, np.zeros(m)])
    diff = np.arange(r) - np.arange(m)[:, None]
    head = band[3 * m + gap + diff]
    tail = band[m + diff]
    return head, tail


def make_bump_kernel(grid: Grid1D) -> Kernel:
    """Build the normalized bump kernel sampled on the grid's offsets."""
    dx = grid.spacing
    if dx >= MAX_KERNEL_SPACING:
        raise GridTooCoarseError(
            f"grid spacing {dx:.4g} is too coarse for a unit-support kernel"
            f" (need < {MAX_KERNEL_SPACING})"
        )
    m = int(math.floor((1.0 - 1e-12) / dx))
    offsets = np.arange(-m, m + 1) * dx
    inside = np.abs(offsets) < 1.0
    raw = np.zeros_like(offsets)
    raw[inside] = np.exp(-1.0 / (1.0 - offsets[inside] ** 2))
    c = 1.0 / (raw.sum() * dx)
    samples = c * raw
    deriv = np.zeros_like(samples)
    deriv[inside] = -2.0 * offsets[inside] / (1.0 - offsets[inside] ** 2) ** 2 * samples[inside]

    n = grid.n_points
    fft_len = _next_5smooth(n)
    at = np.arange(-m, m + 1) % fft_len
    spectra, edges = [], []
    for taps in (samples * dx, deriv * dx):
        circular = np.zeros(fft_len)
        circular[at] = taps
        spectra.append(np.fft.rfft(circular))
        edges.append(_edge_matrices(taps, m, fft_len - n))
    for arr in (samples, deriv, *spectra, *edges[0], *edges[1]):
        arr.setflags(write=False)

    return Kernel(
        grid=grid,
        half_width=m,
        samples=samples,
        deriv_samples=deriv,
        norm_l1=float(samples.sum() * dx),
        norm_sup=float(samples.max()),
        deriv_norm_l1=float(np.abs(deriv).sum() * dx),
        _spectrum=spectra[0],
        _deriv_spectrum=spectra[1],
        _fft_len=fft_len,
        _edges=edges[0],
        _deriv_edges=edges[1],
    )


def _check_space(kernel: Kernel, u: WeightedField) -> None:
    if kernel.grid != u.grid:
        raise GridMismatchError("kernel and field were sampled on different grids")


def convolve_direct(kernel: Kernel, u: WeightedField) -> WeightedField:
    """Reference convolution by direct summation, O(n * support)."""
    _check_space(kernel, u)
    out = np.convolve(u.values, kernel.samples, mode="same") * kernel.grid.spacing
    return u.with_values(out)


def _unwrap(kernel: Kernel, out: np.ndarray, values: np.ndarray,
            edges: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Subtract, in place, the circular wrap-around from the outputs at
    both cuts; values are the rows that were transformed forward.

    The correction is a stacked (..., 1, m) @ (m, r) product, so each row
    of a batch gets the same floating-point sums as its own call.  With
    no wrap band (r = 0) both output slices are empty.
    """
    head, tail = edges
    n, m, r = kernel.grid.n_points, kernel.half_width, head.shape[1]
    out[..., :r] -= (values[..., None, n - m:] @ head)[..., 0, :]
    out[..., n - r:] -= (values[..., None, :m] @ tail)[..., 0, :]
    return out


def _fft_convolve(kernel: Kernel, values: np.ndarray,
                  derivative: bool = False) -> np.ndarray:
    """J * values, or J' * values when derivative, along the last axis of
    a (..., n) array.

    dx is folded into the spectra.  The inverse transform is cropped to
    the grid, and its first and last r outputs still carry the
    wrap-around that _unwrap subtracts.
    """
    spectrum, edges = ((kernel._deriv_spectrum, kernel._deriv_edges) if derivative
                       else (kernel._spectrum, kernel._edges))
    product = np.fft.rfft(values, kernel._fft_len, axis=-1) * spectrum
    out = np.fft.irfft(product, kernel._fft_len, axis=-1)[..., :kernel.grid.n_points]
    return _unwrap(kernel, out, values, edges)


def convolve_fast(kernel: Kernel, u: WeightedField) -> WeightedField:
    """FFT convolution at the grid's 5-smooth length, with the circular
    wrap-around at the cuts subtracted; equals convolve_direct (zero
    extension past the cut) at every node up to rounding."""
    _check_space(kernel, u)
    return u.with_values(_fft_convolve(kernel, u.values))
