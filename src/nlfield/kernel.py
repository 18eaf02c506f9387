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
convolve_fast, the nonlinear term of the dynamics and the J * u and
J' * u of the corpus checks, goes through one FFT expression: a forward
transform of the rows (_forward), products with the cached spectra, and
an inverse transform cropped to the grid (_inverse).  _fft_convolve
gives one product; _fft_convolve_both gives J * u for every row and
J' * u for a leading slice of them from a single forward transform, so
a row that needs both is transformed forward once.  The transform is
zero padded to the next 5-smooth length (no prime factor above 5) that
is at least n + 2m, with m the kernel half width: any length >= n + 2m
leaves no circular wrap-around in the cropped window, and numpy's FFT
is several times slower at lengths with a large prime factor (n = 8192
gives n + 2m = 8354 = 2 * 4177, padded to 8640 = 2^6 3^3 5).  The
expression acts along the last axis, so a batch of fields stacked as a
(k, n) array convolves in one call.
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
    fft_len = _next_5smooth(n + 2 * m)
    spectrum = np.fft.rfft(samples, fft_len)
    deriv_spectrum = np.fft.rfft(deriv, fft_len)
    for arr in (samples, deriv, spectrum, deriv_spectrum):
        arr.setflags(write=False)

    return Kernel(
        grid=grid,
        half_width=m,
        samples=samples,
        deriv_samples=deriv,
        norm_l1=float(samples.sum() * dx),
        norm_sup=float(samples.max()),
        deriv_norm_l1=float(np.abs(deriv).sum() * dx),
        _spectrum=spectrum,
        _deriv_spectrum=deriv_spectrum,
        _fft_len=fft_len,
    )


def _check_space(kernel: Kernel, u: WeightedField) -> None:
    if kernel.grid != u.grid:
        raise GridMismatchError("kernel and field were sampled on different grids")


def convolve_direct(kernel: Kernel, u: WeightedField) -> WeightedField:
    """Reference convolution by direct summation, O(n * support)."""
    _check_space(kernel, u)
    out = np.convolve(u.values, kernel.samples, mode="same") * kernel.grid.spacing
    return u.with_values(out)


def _forward(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """Zero-padded forward transform of each row of a (..., n) array."""
    return np.fft.rfft(values, kernel._fft_len, axis=-1)


def _inverse(kernel: Kernel, product: np.ndarray) -> np.ndarray:
    """Inverse transform of spectrum products, cropped to the grid, times dx."""
    n = kernel.grid.n_points
    m = kernel.half_width
    full = np.fft.irfft(product, kernel._fft_len, axis=-1)
    return full[..., m : m + n] * kernel.grid.spacing


def _fft_convolve(kernel: Kernel, values: np.ndarray, derivative: bool = False) -> np.ndarray:
    """J * values (or J' * values) along the last axis of a (..., n) array."""
    spectrum = kernel._deriv_spectrum if derivative else kernel._spectrum
    return _inverse(kernel, _forward(kernel, values) * spectrum)


def _fft_convolve_both(kernel: Kernel, values: np.ndarray,
                       deriv_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """J * values for every row of a (rows, n) array, and J' * values for
    its first deriv_rows rows, from one forward transform of the rows."""
    forward = _forward(kernel, values)
    conv = _inverse(kernel, forward * kernel._spectrum)
    if not deriv_rows:
        return conv, conv[:0]
    return conv, _inverse(kernel, forward[:deriv_rows] * kernel._deriv_spectrum)


def convolve_fast(kernel: Kernel, u: WeightedField) -> WeightedField:
    """FFT convolution, zero padded past the kernel width (no wrap-around)."""
    _check_space(kernel, u)
    return u.with_values(_fft_convolve(kernel, u.values))

