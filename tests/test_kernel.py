"""Bump kernel construction and the two convolution routes."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import nlfield as nf
from nlfield.kernel import _fft_convolve, _next_5smooth

# grid sizes for the transform-length tests, each with the 5-smooth length
# L it transforms at and its wrap band width r = max(m - (L - n), 0): n is
# itself 5-smooth at 1500 to 8192 (a full band, r = m), the band is partial
# at 4090 and 2047, and L - n exceeds m at 1178 (22 > 11) and at the prime
# 1009 (15 > 10), so there is none
FFT_LEN_AND_BAND = {1178: (1200, 0), 1500: (1500, 14), 3000: (3000, 29),
                    4096: (4096, 40), 6000: (6000, 59), 8192: (8192, 81),
                    4090: (4096, 34), 2047: (2048, 19), 1009: (1024, 0)}
WRAP_NS = tuple(FFT_LEN_AND_BAND)


def bump_center_oracle():
    """Normalized bump height at zero from adaptive quadrature."""
    mass, err = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0,
                     points=[0.0], limit=200)
    # the reported error estimate is conservative; 1e-9 still leaves two
    # digits of headroom over the comparisons made with this oracle
    assert err < 1e-9
    return math.exp(-1.0) / mass


def _deriv_convolve(kernel, u):
    """J' * u, on the path the lemma1a_deriv check takes it."""
    return _fft_convolve(kernel, u, derivative=True)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_too_coarse_grid_rejected():
    with pytest.raises(nf.GridTooCoarseError):
        nf.make_bump_kernel(nf.Grid1D(50.0, 512))  # dx ~ 0.195
    with pytest.raises(nf.GridTooCoarseError):
        nf.make_bump_kernel(nf.Grid1D(50.0, 1000))  # dx = 0.1, boundary case


def test_half_width_covers_unit_support(grid, kernel):
    assert kernel.half_width == int(math.floor((1.0 - 1e-12) / grid.spacing))
    assert len(kernel.samples) == 2 * kernel.half_width + 1
    assert kernel.half_width * grid.spacing < 1.0


def test_kernel_even_and_derivative_odd(kernel):
    assert np.array_equal(kernel.samples, kernel.samples[::-1])
    assert np.array_equal(kernel.deriv_samples, -kernel.deriv_samples[::-1])
    # evenness at a generic offset, bitwise
    m = kernel.half_width
    k = int(round(0.37 / kernel.grid.spacing))
    assert kernel.samples[m + k] == kernel.samples[m - k]


def test_kernel_center_value(kernel):
    center = kernel.samples[kernel.half_width]
    assert center == pytest.approx(bump_center_oracle(), abs=1e-7)
    assert center == pytest.approx(0.82857, abs=1e-4)
    assert kernel.norm_sup == center


def test_kernel_unit_mass(kernel, fine_kernel):
    assert kernel.norm_l1 == pytest.approx(1.0, abs=1e-12)
    assert fine_kernel.norm_l1 == pytest.approx(1.0, abs=1e-12)


def test_derivative_l1_matches_twice_center(kernel):
    # J' changes sign once, so its L1 mass is 2 J(0) up to quadrature
    assert abs(kernel.deriv_norm_l1 - 2.0 * kernel.samples[kernel.half_width]) < 2e-4


# ---------------------------------------------------------------------------
# convolution identities
# ---------------------------------------------------------------------------

def test_convolve_constant_is_identity_inside(grid, cauchy, kernel):
    u = nf.WeightedField(grid, cauchy, np.ones(grid.n_points))
    out = nf.convolve_fast(kernel, u)
    interior = grid.interior_mask()
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-10


def test_convolve_odd_field_vanishes_at_origin(grid, cauchy, kernel):
    u = nf.WeightedField(grid, cauchy, grid.nodes**3 / 1000.0)
    out = nf.convolve_direct(kernel, u)
    assert abs(out.values[grid.n_points // 2]) < 1e-12


def test_direct_matches_reference_sum(cauchy):
    grid = nf.Grid1D(4.0, 100)
    kernel = nf.make_bump_kernel(grid)
    m = kernel.half_width
    u = np.random.default_rng(0).normal(size=grid.n_points)
    expected = np.zeros_like(u)
    for i in range(u.shape[0]):
        for j in range(u.shape[0]):
            if abs(i - j) <= m:
                expected[i] += kernel.samples[m + i - j] * u[j] * grid.spacing
    got = nf.convolve_direct(kernel, nf.WeightedField(grid, cauchy, u)).values
    assert np.max(np.abs(got - expected)) < 1e-12


def test_fast_matches_direct(grid, cauchy, kernel, corpus_factory):
    worst = 0.0
    for u in corpus_factory(grid, cauchy, 10, seed=11):
        a = nf.convolve_fast(kernel, u).values
        b = nf.convolve_direct(kernel, u).values
        worst = max(worst, np.max(np.abs(a - b)) / max(1e-30, np.max(np.abs(b))))
    assert worst < 1e-10


def test_convolution_linearity(grid, cauchy, kernel, corpus_factory):
    u, v = corpus_factory(grid, cauchy, 2, seed=12)
    combo = u.with_values(2.0 * u.values - 0.5 * v.values)
    lhs = nf.convolve_fast(kernel, combo).values
    rhs = (2.0 * nf.convolve_fast(kernel, u).values
           - 0.5 * nf.convolve_fast(kernel, v).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_convolution_commutes_with_node_shifts(grid, cauchy, kernel):
    # compactly supported field far from the cut: shifting by whole nodes
    # commutes with convolution exactly
    x = grid.nodes
    u = nf.WeightedField(grid, cauchy, np.exp(-x * x) * (np.abs(x) < 10.0))
    shift = 40
    shifted = u.with_values(np.roll(u.values, shift))
    a = nf.convolve_fast(kernel, shifted).values
    b = np.roll(nf.convolve_fast(kernel, u).values, shift)
    assert np.max(np.abs(a - b)) < 1e-12


def test_derivative_kernel_annihilates_constants(grid, cauchy, kernel):
    u = nf.WeightedField(grid, cauchy, np.ones(grid.n_points))
    out = _deriv_convolve(kernel, u.values)
    interior = grid.interior_mask()
    assert np.max(np.abs(out[interior])) < 1e-9


def test_derivative_kernel_reproduces_slope(fine_grid, cauchy, fine_kernel):
    u = nf.WeightedField(fine_grid, cauchy, fine_grid.nodes.copy())
    out = _deriv_convolve(fine_kernel, u.values)
    interior = fine_grid.interior_mask()
    assert np.max(np.abs(out[interior] - 1.0)) < 1e-6


def test_derivative_matches_difference_quotient_second_order(cauchy):
    # J'*u against the centered difference of J*u on two resolutions
    errs = []
    for n in (4096, 8192):
        g = nf.Grid1D(50.0, n)
        k = nf.make_bump_kernel(g)
        u = nf.WeightedField(g, cauchy, np.cos(0.7 * g.nodes) + 0.3 * np.sin(1.3 * g.nodes))
        exact = _deriv_convolve(k, u.values)
        approx = nf.finite_difference(nf.convolve_fast(k, u)).values
        interior = g.interior_mask()
        errs.append(np.max(np.abs(exact[interior] - approx[interior])))
    assert errs[0] < 1e-2
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_convolution_rejects_foreign_grid(kernel, fine_grid, cauchy):
    u = nf.WeightedField(fine_grid, cauchy, np.zeros(fine_grid.n_points))
    with pytest.raises(nf.GridMismatchError):
        nf.convolve_fast(kernel, u)
    with pytest.raises(nf.GridMismatchError):
        nf.convolve_direct(kernel, u)


# ---------------------------------------------------------------------------
# transform length and the wrap band at the cuts
# ---------------------------------------------------------------------------

def _largest_prime_factor(k):
    largest, p = 1, 2
    while p * p <= k:
        while k % p == 0:
            largest, k = p, k // p
        p += 1
    return max(largest, k)


def test_next_5smooth_matches_scipy():
    from scipy.fft import next_fast_len
    ns = range(1, 5001)
    assert [_next_5smooth(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]


@pytest.mark.parametrize("n", WRAP_NS)
def test_fft_length_is_5smooth_and_wrap_free(n):
    # the transform runs at the grid's own 5-smooth length; the wrap-around
    # of that circular convolution lands on r nodes at each cut and is
    # subtracted through two (m, r) edge matrices per spectrum
    kernel = nf.make_bump_kernel(nf.Grid1D(50.0, n))
    m = kernel.half_width
    assert kernel._fft_len == _next_5smooth(n)
    r = max(m - (kernel._fft_len - n), 0)
    assert (kernel._fft_len, r) == FFT_LEN_AND_BAND[n]
    assert _largest_prime_factor(kernel._fft_len) <= 5
    assert kernel._spectrum.shape == (kernel._fft_len // 2 + 1,)
    for head, tail in (kernel._edges, kernel._deriv_edges):
        assert head.shape == tail.shape == (m, r)


def _direct_sum_errors(kernel):
    """Largest gap, over every node, between the FFT route and the direct
    sums for J and for J' on a smooth-plus-noise field."""
    grid = kernel.grid
    n, x = grid.n_points, grid.nodes
    u = (np.cos(0.7 * x) + 0.3 * np.sin(1.3 * x)
         + 0.1 * np.random.default_rng(n).normal(size=n))
    errs = []
    for convolve, taps in ((_fft_convolve, kernel.samples),
                           (_deriv_convolve, kernel.deriv_samples)):
        direct = np.convolve(u, taps, mode="same") * grid.spacing
        errs.append(np.max(np.abs(convolve(kernel, u) - direct)))
    return errs


def _end_leaks(kernel):
    """Largest |output| on the first m nodes, for J and for J', of a field
    whose mass sits on the last m nodes only: none of it is in reach."""
    m, n = kernel.half_width, kernel.grid.n_points
    u = np.zeros(n)
    u[n - m:] = 1.0 + np.random.default_rng(m).random(m)
    return [np.max(np.abs(convolve(kernel, u)[:m]))
            for convolve in (_fft_convolve, _deriv_convolve)]


@pytest.mark.parametrize("n", WRAP_NS)
def test_padded_convolutions_match_direct_sums(n):
    # every node, not only the interior: a wrap-around left in the circular
    # transform would land on the nodes next to the cut
    kernel = nf.make_bump_kernel(nf.Grid1D(50.0, n))
    assert max(_direct_sum_errors(kernel)) < 1e-12


@pytest.mark.parametrize("n", WRAP_NS)
def test_mass_at_one_end_leaves_the_other_end_untouched(n):
    kernel = nf.make_bump_kernel(nf.Grid1D(50.0, n))
    assert max(_end_leaks(kernel)) < 1e-15


@pytest.mark.parametrize("n", (4096, 4090, 2047))
def test_zeroed_edge_matrices_trip_the_wrap_checks(n):
    # planted defect: the wrap band is left in place
    kernel = nf.make_bump_kernel(nf.Grid1D(50.0, n))
    zero = tuple(np.zeros_like(e) for e in kernel._edges)
    leaky = dataclasses.replace(kernel, _edges=zero, _deriv_edges=zero)
    assert min(_direct_sum_errors(leaky)) > 1e-3
    assert min(_end_leaks(leaky)) > 1e-3


@pytest.mark.parametrize("n", WRAP_NS)
def test_edge_matrices_equal_a_loop_over_wrapped_taps(n):
    # from the definition: output i of the circular convolution of length L
    # picks up taps[m + d] * u[t] wherever d = i - t differs by +-L from an
    # offset the linear convolution uses
    kernel = nf.make_bump_kernel(nf.Grid1D(50.0, n))
    m, L, dx = kernel.half_width, kernel._fft_len, kernel.grid.spacing
    r = max(m - (L - n), 0)
    for taps, (head, tail) in ((kernel.samples, kernel._edges),
                               (kernel.deriv_samples, kernel._deriv_edges)):
        want_head, want_tail = np.zeros((m, r)), np.zeros((m, r))
        for a in range(m):
            for i in range(r):
                d = i - (n - m + a) + L
                if abs(d) <= m:
                    want_head[a, i] = taps[m + d] * dx
        for t in range(m):
            for b in range(r):
                d = (n - r + b) - t - L
                if abs(d) <= m:
                    want_tail[t, b] = taps[m + d] * dx
        assert np.array_equal(head, want_head)
        assert np.array_equal(tail, want_tail)


@pytest.mark.parametrize("n", WRAP_NS)
def test_batched_rows_equal_single_row_calls(n):
    kernel = nf.make_bump_kernel(nf.Grid1D(50.0, n))
    rows = np.random.default_rng(n).normal(size=(3, n))
    for row, out in zip(rows, _fft_convolve(kernel, rows)):
        assert np.array_equal(out, _fft_convolve(kernel, row))


@pytest.mark.parametrize("n", WRAP_NS)
def test_both_products_split_like_their_own_calls(n):
    # J * u and J' * u of a (rows, n) batch: every row, of either product,
    # is bitwise its own one-row call
    kernel = nf.make_bump_kernel(nf.Grid1D(50.0, n))
    rows = np.random.default_rng(n).normal(size=(5, n))
    for derivative in (False, True):
        batch = _fft_convolve(kernel, rows, derivative=derivative)
        for row, out in zip(rows, batch):
            assert np.array_equal(out, _fft_convolve(kernel, row, derivative=derivative))
