"""Weighted norms, tail accounting, and the weight-ratio constants."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import nlfield as nf
import nlfield.bounds
from nlfield.weighted_space import _lp_norm, quad_weights

GOLDEN_K = (3.0 + math.sqrt(5.0)) / 2.0  # sup ratio of the cauchy weight over unit shifts


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

def test_grid_nodes_exclude_right_endpoint(grid):
    assert grid.spacing == pytest.approx(100.0 / 4096, rel=0, abs=0)
    assert grid.nodes[0] == -50.0
    assert grid.nodes[-1] == pytest.approx(50.0 - grid.spacing, abs=1e-12)
    assert len(grid.nodes) == grid.n_points


def test_grid_validation():
    with pytest.raises(ValueError):
        nf.Grid1D(3.0, 4096)
    with pytest.raises(ValueError):
        nf.Grid1D(50.0, 8)
    assert nf.Grid1D(50.0, np.int64(4096)).nodes.size == 4096


@pytest.mark.parametrize("half_length,n_points", [
    (50.0, 4096.5), (50.0, 4096.0), (math.inf, 4096)])
def test_grid_rejects_a_float_count_and_an_infinite_length(half_length, n_points):
    # make_bump_kernel's 5-smooth search never ends on a fractional count,
    # and an infinite half length makes NaN nodes
    with pytest.raises(ValueError, match="must be (an integer|finite)"):
        nf.Grid1D(half_length, n_points)


def test_interior_mask_counts_nodes():
    g = nf.Grid1D(4.0, 16)  # dx = 0.5, nodes -4.0 .. 3.5
    mask = g.interior_mask(margin=1.0)
    inside = g.nodes[mask]
    # |x| <= 4 - 1 - 0.25, so nodes -2.5 .. 2.5
    assert inside[0] == -2.5 and inside[-1] == 2.5
    assert mask.sum() == 11


def test_field_validation(grid, cauchy):
    with pytest.raises(nf.InvalidFieldError):
        nf.WeightedField(grid, cauchy, np.zeros(7))
    bad = np.zeros(grid.n_points)
    bad[0] = np.nan
    with pytest.raises(nf.InvalidFieldError):
        nf.WeightedField(grid, cauchy, bad)


def test_same_space_rejects_mismatch(grid, fine_grid, cauchy, gaussian):
    u = nf.WeightedField(grid, cauchy, np.zeros(grid.n_points))
    v = nf.WeightedField(fine_grid, cauchy, np.zeros(fine_grid.n_points))
    w = nf.WeightedField(grid, gaussian, np.zeros(grid.n_points))
    with pytest.raises(nf.GridMismatchError):
        u.same_space(v)
    with pytest.raises(nf.GridMismatchError):
        u.same_space(w)


def test_quad_weights_cached_and_frozen(grid, cauchy):
    qw = quad_weights(cauchy, grid)
    assert quad_weights(cauchy, grid) is qw
    with pytest.raises(ValueError):
        qw[0] = 1.0


# ---------------------------------------------------------------------------
# norm values
# ---------------------------------------------------------------------------

def test_unit_field_norm_near_one(wide_grid, cauchy):
    u = nf.WeightedField(wide_grid, cauchy, np.ones(wide_grid.n_points))
    n = nf.weighted_norm(u, 2.0)
    assert n < 1.0  # truncation can only lose mass for a constant
    # quadrature plus the exact tail reconstructs unit mass
    tail = nf.tail_mass(cauchy, 200.0)
    assert math.sqrt(n**2 + tail) == pytest.approx(1.0, abs=1e-8)


def test_zero_field_norm(grid, cauchy):
    u = nf.WeightedField(grid, cauchy, np.zeros(grid.n_points))
    for p in (1.5, 2.0, 3.0):
        assert nf.weighted_norm(u, p) == 0.0


def test_half_line_indicator_norm(wide_grid, cauchy):
    u = nf.WeightedField(wide_grid, cauchy, (wide_grid.nodes >= 0).astype(float))
    assert nf.weighted_norm(u, 2.0) == pytest.approx(math.sqrt(0.5), abs=2e-3)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_norm_matches_explicit_sum(p, grid, cauchy):
    u = nf.WeightedField(grid, cauchy, np.random.default_rng(1).normal(size=grid.n_points))
    w = quad_weights(cauchy, grid)
    ref = float(sum(wi * abs(ui) ** p for ui, wi in zip(u.values, w))) ** (1.0 / p)
    assert nf.weighted_norm(u, p) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_norm_of_stack_matches_each_row(p, grid, cauchy):
    stack = np.random.default_rng(7).normal(size=(5, grid.n_points))
    got = _lp_norm(stack, quad_weights(cauchy, grid), p)
    assert got.shape == (5,)
    # a stacked product may sum in another order than a single row's dot
    for row, value in zip(stack, got):
        assert value == pytest.approx(
            nf.weighted_norm(nf.WeightedField(grid, cauchy, row), p), rel=1e-14)


def test_norm_rejects_bad_exponent(grid, cauchy):
    u = nf.WeightedField(grid, cauchy, np.ones(grid.n_points))
    for p in (1.0, 0.5, math.inf):
        with pytest.raises(ValueError):
            nf.weighted_norm(u, p)


def test_norm_homogeneity(grid, cauchy, corpus_factory):
    for u in corpus_factory(grid, cauchy, 100, seed=3):
        base = nf.weighted_norm(u, 2.0)
        for c in (-2.0, 0.5, 10.0):
            scaled = nf.weighted_norm(u.with_values(c * u.values), 2.0)
            assert abs(scaled - abs(c) * base) <= 1e-12 * max(1.0, abs(c)) * base


def test_norm_triangle_inequality(grid, cauchy, corpus_factory):
    fields = corpus_factory(grid, cauchy, 100, seed=4)
    for u, v in zip(fields[::2], fields[1::2]):
        lhs = nf.weighted_norm(u.with_values(u.values + v.values), 2.0)
        rhs = nf.weighted_norm(u, 2.0) + nf.weighted_norm(v, 2.0)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_nested_exponents_via_holder(grid, cauchy, corpus_factory):
    # discrete Hoelder: ||u||_2 <= mass^(1/2 - 1/3) ||u||_3, with mass the
    # quadrature mass of the weight over the grid, short of 1 by the tail
    mass = float(np.sum(quad_weights(cauchy, grid)))
    assert mass == pytest.approx(1.0 - nf.tail_mass(cauchy, grid.half_length), abs=1e-8)
    c23 = mass ** (1.0 / 2.0 - 1.0 / 3.0)
    for u in corpus_factory(grid, cauchy, 50, seed=5):
        assert nf.weighted_norm(u, 2.0) <= c23 * nf.weighted_norm(u, 3.0) + 1e-12


# ---------------------------------------------------------------------------
# tail mass
# ---------------------------------------------------------------------------

def test_tail_mass_cauchy_closed_form(cauchy):
    got = nf.tail_mass(cauchy, 100.0)
    assert got == pytest.approx((2.0 / math.pi) * math.atan(0.01), rel=1e-12)
    # independent quadrature of the density over the exterior
    oracle, err = quad(lambda x: 1.0 / (math.pi * (1.0 + x * x)), 100.0, np.inf)
    assert got == pytest.approx(2.0 * oracle, abs=1e-10 + 2 * err)


def test_tail_mass_gaussian_against_quadrature(gaussian):
    got = nf.tail_mass(gaussian, 3.0)
    oracle, err = quad(lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
                       3.0, np.inf)
    assert got == pytest.approx(2.0 * oracle, abs=1e-10 + 2 * err)


def test_tail_mass_limits(cauchy, gaussian):
    assert nf.tail_mass(cauchy, 1.0) == pytest.approx(0.5, abs=1e-15)
    for w in (cauchy, gaussian):
        assert nf.tail_mass(w, 1e-12) > 1.0 - 1e-9
        radii = np.logspace(-2, 2, 41)
        masses = [nf.tail_mass(w, r) for r in radii]
        # strictly decreasing until the gaussian tail underflows to zero
        assert all(a >= b for a, b in zip(masses, masses[1:]))
        assert all(a > b for a, b in zip(masses, masses[1:]) if b > 0.0)


def test_tail_mass_validation(cauchy):
    with pytest.raises(ValueError):
        nf.tail_mass(cauchy, 0.0)
    with pytest.raises(ValueError):
        nf.tail_mass(cauchy, -1.0)


def test_radius_for_tail_roundtrip(cauchy, gaussian):
    for w, mass in ((cauchy, 0.1), (cauchy, 6.25e-4), (gaussian, 0.01)):
        r = nf.radius_for_tail(w, mass)
        assert nf.tail_mass(w, r) <= mass
        assert nf.tail_mass(w, r * (1.0 - 1e-6)) > mass * (1.0 - 1e-9)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            nf.radius_for_tail(cauchy, bad)


def test_radius_for_tail_reaches_radii_up_to_its_cap(cauchy):
    # the cauchy tail is (2/pi) atan(1/r), so mass 1e-12 needs radius
    # 1/tan(pi 5e-13) = 6.4e11, inside the cap; 1e-13 needs 6.4e12, past it
    r = nf.radius_for_tail(cauchy, 1e-12)
    assert nf.tail_mass(cauchy, r) <= 1e-12
    assert r == pytest.approx(1.0 / math.tan(math.pi * 5e-13), rel=1e-9)
    with pytest.raises(ValueError, match="tail bound unreachable"):
        nf.radius_for_tail(cauchy, 1e-13)


# ---------------------------------------------------------------------------
# weight-ratio constants: the theory's K and rho_1 are the Cauchy weight's
# ---------------------------------------------------------------------------

def log_density(weight, x):
    """log rho(x), finite where the gaussian density itself underflows."""
    if weight.kind == "cauchy":
        return -np.log(math.pi * (1.0 + x * x))
    return -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)


def estimate_K(weight, grid):
    """Grid estimate of K = sup_y max_{|x-y|<=1} rho(x)/rho(y), in log space.

    The window holds every node within distance 1 of the center; with a
    spacing that divides 1 the window ends land on the continuum extremum.
    """
    window = int(math.floor(1.0 / grid.spacing + 1e-9))
    log_rho = log_density(weight, grid.nodes)
    pad = np.full(window, -np.inf)
    view = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, log_rho, pad]), 2 * window + 1)
    return float(np.exp(np.max(view.max(axis=1) - log_rho)))


def test_estimate_K_cauchy(unit_spacing_grid, cauchy):
    # the stated K = 3 bounds the grid's K.  A spacing that divides 1 puts
    # the window ends on the continuum extremum (3 + sqrt 5)/2.  On the
    # prime-length grid the window spans d = 12 dx = 0.951, and the grid K
    # sits just below the continuum sup over that span,
    # ((d + sqrt(d^2 + 4))/2)^2 = 2.506, which reads GOLDEN_K at d = 1
    est = estimate_K(cauchy, unit_spacing_grid)
    assert est <= nlfield.bounds.CAUCHY_K
    assert est == pytest.approx(GOLDEN_K, abs=1e-4)
    grid = nf.Grid1D(40.0, 1009)
    d = 12 * grid.spacing
    span_K = ((d + math.sqrt(d * d + 4.0)) / 2.0) ** 2
    est = estimate_K(cauchy, grid)
    assert span_K - grid.spacing ** 2 <= est <= span_K < GOLDEN_K


def test_estimate_K_gaussian_unbounded_growth(unit_spacing_grid, gaussian):
    # why the checks built on K reject the gaussian weight: the largest
    # ratio sits at the domain edge, exp((2L - 1)/2) at L = 50, and grows
    # without bound with L
    est = estimate_K(gaussian, unit_spacing_grid)
    assert est == pytest.approx(math.exp(49.5), rel=1e-9)
    assert estimate_K(gaussian, nf.Grid1D(100.0, 20000)) > est ** 2


def test_rho_inf_unit_ball(cauchy):
    # reference: the minimum over 20001 nodes of [-1, 1], both ends
    # included; the stated rho_1 matches it to the last bit
    scan = float(np.min(cauchy(np.linspace(-1.0, 1.0, 20001))))
    assert nlfield.bounds.CAUCHY_RHO_1 == scan
    assert scan == float(cauchy(1.0))


# ---------------------------------------------------------------------------
# derivative seminorm: the weighted norm of the finite difference
# ---------------------------------------------------------------------------

def seminorm(u, p):
    return nf.weighted_norm(nf.finite_difference(u), p)


def test_seminorm_constant_field(grid, cauchy):
    u = nf.WeightedField(grid, cauchy, np.full(grid.n_points, 2.5))
    assert seminorm(u, 2.0) == 0.0


def test_seminorm_matches_analytic_derivative(unit_spacing_grid, cauchy):
    g = unit_spacing_grid
    u = nf.WeightedField(g, cauchy, np.sin(g.nodes))
    du = nf.WeightedField(g, cauchy, np.cos(g.nodes))
    assert seminorm(u, 2.0) == pytest.approx(nf.weighted_norm(du, 2.0), abs=1e-3)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_seminorm_step_divergence_rate(p, cauchy):
    # a jump makes the seminorm scale like dx^(1/p - 1) under refinement
    vals = []
    for n in (4096, 8192):
        g = nf.Grid1D(50.0, n)
        u = nf.WeightedField(g, cauchy, np.sign(g.nodes))
        vals.append(seminorm(u, p))
    assert vals[1] / vals[0] == pytest.approx(2.0 ** (1.0 - 1.0 / p), rel=1e-3)


def test_seminorm_matches_explicit_sum(grid, cauchy):
    u = nf.WeightedField(grid, cauchy, np.random.default_rng(6).normal(size=grid.n_points))
    d = np.gradient(u.values, grid.spacing, edge_order=1)
    w = quad_weights(cauchy, grid)
    ref = float(sum(wi * abs(di) ** 3.0 for di, wi in zip(d, w)))
    assert seminorm(u, 3.0) == pytest.approx(ref ** (1.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("n", [17, 1024, 4096])
def test_central_difference_is_bit_equal_to_gradient(n):
    g = nf.Grid1D(50.0, n)
    u = np.random.default_rng(n).normal(size=n)
    d = nf.finite_difference(nf.WeightedField(g, nf.WeightFunction.cauchy(), u)).values
    assert d.tobytes() == np.gradient(u, g.spacing, edge_order=1).tobytes()


def test_finite_difference_returns_field(grid, cauchy):
    u = nf.WeightedField(grid, cauchy, np.sin(0.3 * grid.nodes))
    d = nf.finite_difference(u)
    assert isinstance(d, nf.WeightedField)
    interior = grid.interior_mask()
    target = 0.3 * np.cos(0.3 * grid.nodes)
    assert np.max(np.abs(d.values[interior] - target[interior])) < 1e-4
