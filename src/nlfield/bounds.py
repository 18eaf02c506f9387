"""Explicit constants of the theory and measured verdicts against them.

Each named check pairs a theoretical constant with a deterministic
measurement.  _CHECKS maps each name to its check and to the Cauchy
weight's constant its stated bound is built on.  Every check takes
(cfg, seed, norms), norms() returning the _operator_norms rows, and
returns (theoretical, measured, tolerance); c1_attractor adds whether
its ladder converged.  _run_checks alone turns these into BoundReports:
passed is measured <= theoretical + tolerance, and converged where a
check returns it.  A measurement or a bound that is not finite is an
error, not a verdict: it raises BlowUpError naming the check, and
numpy's overflow, divide and invalid warnings are silenced while the
checks run, since that guard reports them.  The bounds are loose by
design; a failed verdict signals an implementation bug, not a sharp
inequality.
Checks that involve pointwise values restrict to interior nodes where
the zero-extension convolution is exact; checks work on raw sample rows.

lemma1a, lemma1a_deriv and prop_lipschitz bound operator norms from
below by the p-norm power method (Boyd 1974; Higham, Numer. Math. 62,
1992), run as one stacked iteration of three rows, computed on the first
norms() call of a battery or verify and at most once: J (lemma1a and
prop_lipschitz), J' (lemma1a_deriv) and -I + beta g'(0) J
(prop_lipschitz).  Each row equals its own single run bit for bit.
lemma1b's sup is attained exactly.  A stated constant shown false
gives way to the provable bound, so a failed verdict still means a bug:
lemma1b's ||J||_inf / rho_1 (5.206, where a field attains 71.34 on the
bistable config) and lemma1a_deriv's K^(1/p) at p != 2.  The trajectory
checks (absorbing, w_bound, gronwall_continuity) each step one seeded
row of _field_corpus over unbroken spans, carrying G and its slope as
simulate does, so a span of N steps evaluates G N + 1 times; their
bounds hold exactly on that scheme, since its corrector
exp(-delta) u + w1 G + w2 G~ is a convex combination with |G| <= a, and
w_bound keeps its quadrature tolerance.  c1_attractor evolves
_C1_MEMBERS members.

The constants built on the weight are the Cauchy weight's: K = 3 bounds
rho(x)/rho(y) over |x - y| <= 1 (its sup is (3 + sqrt 5)/2), and
rho_1 = min_{|y|<=1} rho = 1/(2 pi).  The gaussian weight has no finite
K (rho(c-1)/rho(c) = exp(c - 1/2)), so battery rejects it for the checks
that use either constant; absorbing, w_bound and c1_attractor still run
on it.  Every report records its tolerance class:

    algebraic identities    1e-12 relative
    quadrature-backed       1e-9  absolute
    trajectory-backed       1e-3  absolute
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .attractor import absorbing_entry_time, approximate_pullback_attractor
from .bifurcation import compute_h_star
from .dynamics import ExternalField, ProcessConfig, _integrate, _nonlinear_term
from .errors import BlowUpError, ConfigError
from .kernel import _fft_convolve
from .weighted_space import WEIGHT_CAUCHY, _lp_norm, finite_difference, quad_weights

TOL_QUADRATURE = 1e-9
TOL_TRAJECTORY = 1e-3

# the Cauchy weight's constants: K, and rho_1, which is rho(1) to the bit
CAUCHY_K = 3.0
CAUCHY_RHO_1 = 1.0 / (2.0 * math.pi)

# power-method steps per norm: on the bistable config lemma1a reads 0.967
# after 5, 1.0071 after 60 and 1.0081 after 200
_POWER_ITERATIONS = 60
# sup norm of prop_lipschitz's perturbation: G is linear there to about
# 1e-7 relative, and G(t, 0) = 0 leaves no cancellation in the difference
_PAIR_SUP = 1e-6
# where |_PAIR_SUP|^p leaves the normal float range (from p about 51 on),
# prop_lipschitz takes both norms of its scale-free ratio at this multiple
# of the pair, which keeps |.|^p in range past p 100.  Below that it takes
# them unscaled: a power of two scales |.|^p and the sum exactly, but the
# 1/p-th root of a scaled sum can round differently in the last bit
_PAIR_SCALE = 2.0 ** 20
# the members c1_attractor evolves: the attractor block's default n_samples
_C1_MEMBERS = 8


@dataclass(frozen=True)
class BoundReport:
    """One inequality verdict: measured against theoretical."""

    name: str
    theoretical: float
    measured: float
    margin: float
    passed: bool
    tolerance: float
    digest: str
    seed: int


def _field_corpus(cfg: ProcessConfig, rng: np.random.Generator) -> np.ndarray:
    """One global random row, as a (1, n) array: five low modes plus noise.

    The row is sum_m amp_m cos(k_m x + phase_m) + noise, one cosine per
    node and mode.  Each mode draws k, then amp, then phase, and the grid
    noise follows the five modes.
    """
    x = cfg.grid.nodes
    row = np.zeros(x.size)
    for _ in range(5):
        k = rng.uniform(0.05, 2.5)
        row += rng.normal(scale=0.3) * np.cos(k * x + rng.uniform(0.0, 2 * np.pi))
    row += rng.normal(scale=0.1, size=x.size)
    return row[None]


def _dual(v: np.ndarray, p: float, norm: float) -> np.ndarray:
    """sign(v) (|v| / ||v||_p)^(p-1), with norm = ||v||_p: unit in L^q_w,
    1/p + 1/q = 1, and paired with v to ||v||_p under
    <u, v> = sum_i w_i u_i v_i."""
    return np.sign(v) * (np.abs(v) / norm) ** (p - 1.0)


def _power_stack(cfg: ProcessConfig, seed: int, apply,
                 rows: int) -> tuple[list[float], np.ndarray]:
    """Lower bounds of the norms on L^p_w of a stack of grid matrices
    A_r, A_r^T = +-A_r, and the (rows, n) unit fields after the last step.

    apply(x) is the (rows, n) stack of A_r x_r.  The weighted adjoint is
    W^-1 A^T W, so a step is x -> dual_q(W^-1 A W dual_p(A x)); the sign
    of A^T only flips x.  Every row starts from the one standard normal
    draw of default_rng(seed), and every ||A x|| of a unit x is a lower
    bound, so each row's best is returned.  Norms are taken row by row,
    1-D, so each row equals its own single run bit for bit.
    """
    w, p = quad_weights(cfg.weight, cfg.grid), cfg.p
    q = p / (p - 1.0)
    start = np.random.default_rng(seed).standard_normal(cfg.grid.n_points)
    start /= _lp_norm(start, w, p)
    x = np.tile(start, (rows, 1))
    best = [0.0] * rows
    for _ in range(_POWER_ITERATIONS):
        y = apply(x)
        for r, row in enumerate(y):
            norm = float(_lp_norm(row, w, p))
            best[r] = max(best[r], norm)
            row[:] = w * _dual(row, p, norm)
        x = apply(y)
        for row in x:
            row /= w
            row[:] = _dual(row, q, _lp_norm(row, w, q))
    return best, x


def _operator_norms(cfg: ProcessConfig,
                    seed: int) -> dict[str, tuple[float, np.ndarray]]:
    """row -> (norm, maximiser) of J, J' and -I + beta g'(0) J, the rows of
    one _power_stack; J and -I + beta g'(0) J share one FFT per apply as
    x[::2], J' takes the derivative one as x[1:2]."""
    slope = cfg.beta * float(cfg.nonlinearity.deriv(0.0))

    def apply(x):
        y = np.empty_like(x)
        y[::2] = _fft_convolve(cfg.kernel, x[::2])
        y[1:2] = _fft_convolve(cfg.kernel, x[1:2], derivative=True)
        y[2] = slope * y[2] - x[2]
        return y

    best, x = _power_stack(cfg, seed, apply, 3)
    return {r: (best[i], x[i]) for i, r in enumerate(("J", "J'", "-I + beta J"))}


# ---------------------------------------------------------------------------
# constant calculators
# ---------------------------------------------------------------------------

def lipschitz_constant_f(cfg: ProcessConfig) -> float:
    """Lipschitz constant of u -> -u + g(beta(J*u) + beta h(t,u)).

    Returns the stated constant 1 + l_g beta K^(1/p) + beta l_h, with the
    Cauchy weight's K.
    """
    return (1.0 + cfg.nonlinearity.lipschitz * cfg.beta
            * CAUCHY_K ** (1.0 / cfg.p) + cfg.beta * cfg.field.lipschitz)


def continuity_envelope(cfg: ProcessConfig, h_gap: float, horizon: float) -> float:
    """Exponential bound on trajectory divergence under a field gap.

    M1 h_gap exp(M1 ||J||_inf rho1^(-1) horizon) with
    M1 = 2^((p+1)/p) l_g beta, and rho1 the Cauchy weight's.  A zero gap
    gives exactly 0 at any horizon.  A weight other than Cauchy, or a
    value past the float range, gives inf without logging: the callers
    say that the bound is vacuous there (one warning per sweep, and
    gronwall_continuity's BlowUpError).  A NaN horizon or gap, or an
    infinite gap, raises ValueError.
    """
    if not (horizon >= 0.0):
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if not (0.0 <= h_gap < math.inf):
        raise ValueError(f"h gap must be finite and nonnegative, got {h_gap}")
    if h_gap == 0.0:
        return 0.0
    if cfg.weight.kind != WEIGHT_CAUCHY:
        return math.inf
    m1 = 2.0 ** ((cfg.p + 1.0) / cfg.p) * cfg.nonlinearity.lipschitz * cfg.beta
    rate = m1 * cfg.kernel.norm_sup / CAUCHY_RHO_1
    try:
        return m1 * h_gap * math.exp(rate * horizon)
    except OverflowError:
        return math.inf


def c1_regularity_bound(cfg: ProcessConfig, h_star: float) -> float:
    """Interior slope bound for attractor members:
    a beta^2 ||J'||_1 (a k1 ||J||_1 + k2 + h*)."""
    g = cfg.nonlinearity
    a = g.sup_abs
    return (a * cfg.beta ** 2 * cfg.kernel.deriv_norm_l1
            * (a * g.curvature_max * cfg.kernel.norm_l1
               + abs(g.deriv_at_zero) + h_star))


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

def _check_lemma1a(cfg, seed, norms):
    return CAUCHY_K ** (1.0 / cfg.p), norms()["J"][0], TOL_QUADRATURE


def _check_lemma1a_deriv(cfg, seed, norms):
    # the stated K^(1/p) holds at p = 2; elsewhere Young's keeps ||J'||_1
    bound = CAUCHY_K ** (1.0 / cfg.p)
    if cfg.p != 2.0:
        bound *= cfg.kernel.deriv_norm_l1
    return bound, norms()["J'"][0], TOL_QUADRATURE


def _check_lemma1b(cfg, seed, norms):
    """max_i sup_u |J*u(x_i)| / ||u|| over interior nodes, attained.

    By Hoelder it is S_i^(1/q), S_i = sum_j a_j^q w_j^(1-q) with
    a_j = J(x_i - x_j) dx >= 0 and q = p/(p-1), at u*_j = (a_j / w_j)^(q-1).
    The value is read off u* through _fft_convolve, so a convolution
    defect shows.  The bound takes a_j <= ||J||_inf dx.
    """
    kernel, grid = cfg.kernel, cfg.grid
    q = cfg.p / (cfg.p - 1.0)
    w = quad_weights(cfg.weight, grid)
    dual = w ** (1.0 - q)
    mask = grid.interior_mask()
    taps = kernel.samples * grid.spacing  # even, so a_j over i's window
    i = np.flatnonzero(mask)[np.argmax(np.convolve(dual, taps ** q, "same")[mask])]
    window = slice(i - kernel.half_width, i + kernel.half_width + 1)
    u = np.zeros(grid.n_points)
    u[window] = (taps / w[window]) ** (q - 1.0)
    measured = abs(_fft_convolve(kernel, u)[i]) / _lp_norm(u, w, cfg.p)
    window_sums = np.convolve(dual, np.ones_like(taps), "same")
    bound = kernel.norm_sup * grid.spacing * float(np.max(window_sums[mask])) ** (1.0 / q)
    return bound, measured, TOL_QUADRATURE


def _check_prop_lipschitz(cfg, seed, norms):
    """Ratio of F(u) = -u + G(0, u) on real pairs (0, delta v) through G.

    v maximises DF(0) = -I + beta g'(0) J (d_u h(t, 0) = 0 for both field
    families), then J, along which a G steeper than the stated g'(0)
    shows; delta v has sup norm _PAIR_SUP.  Where |_PAIR_SUP|^p is below
    the normal float range, both norms of the ratio are taken on the pair
    and its image difference scaled by _PAIR_SCALE; unscaled, |.|^p would
    underflow on delta v from p about 54 on and read inf or 0/0.  A ratio
    that is still not finite (a G that blows up) is NaN or inf: np.max
    keeps a NaN, where max(0.0, nan) would read 0.
    """
    w = quad_weights(cfg.weight, cfg.grid)
    scale = _PAIR_SCALE if _PAIR_SUP ** cfg.p < np.finfo(float).tiny else 1.0
    ratios = []
    for row in ("-I + beta J", "J"):
        v = norms()[row][1]
        pair = np.stack([v * (_PAIR_SUP / np.max(np.abs(v))), np.zeros_like(v)])
        f = -pair + _nonlinear_term(cfg, 0.0, pair)
        ratios.append(_lp_norm((f[0] - f[1]) * scale, w, cfg.p)
                      / _lp_norm(pair[0] * scale, w, cfg.p))
    return lipschitz_constant_f(cfg), np.max(ratios), TOL_QUADRATURE


def _start(cfg, seed, target: float) -> np.ndarray:
    """The one start row of a trajectory check: the row _field_corpus
    draws from default_rng(seed), scaled to norm target in L^p_w."""
    u = _field_corpus(cfg, np.random.default_rng(seed))[0]
    return u * (target / _lp_norm(u, quad_weights(cfg.weight, cfg.grid), cfg.p))


def _check_absorbing(cfg, seed, norms):
    a = cfg.nonlinearity.sup_abs
    w = quad_weights(cfg.weight, cfg.grid)
    t_obs, radius, eps = 0.0, 10.0, 0.1
    tau = absorbing_entry_time(t_obs, radius, eps)
    u0 = _start(cfg, seed, radius)

    excess = []

    def watch(s, vals):
        decay = math.exp(-(s - tau)) * radius
        excess.append(_lp_norm(vals, w, cfg.p) - decay)

    _integrate(u0, tau, t_obs, cfg, observer=watch, carry=[])
    return a, max(excess), TOL_TRAJECTORY


def _check_w_bound(cfg, seed, norms):
    a = cfg.nonlinearity.sup_abs
    u0 = _start(cfg, seed, a + 0.1)
    sups = []  # of w(s) = u(s) - v(s), with v(s) = exp(-s) u0 in closed form
    _integrate(u0, 0.0, 8.0, cfg, carry=[], observer=lambda s, vals: sups.append(
        float(np.max(np.abs(vals - math.exp(-s) * u0)))))
    return a, max(sups), TOL_QUADRATURE


def _check_c1_attractor(cfg, seed, norms):
    bound = c1_regularity_bound(cfg, compute_h_star(cfg.beta, cfg.nonlinearity))
    sample = approximate_pullback_attractor(
        0.0, cfg, n_samples=_C1_MEMBERS,
        tau_ladder=[-4.0, -8.0, -16.0, -32.0], seed=seed)
    mask = cfg.grid.interior_mask()
    worst = 0.0
    for m in sample.members:
        worst = max(worst, float(np.max(np.abs(finite_difference(m).values[mask]))))
    return bound, worst, TOL_TRAJECTORY, sample.converged


def _check_gronwall(cfg, seed, norms):
    h_gap, horizon = 0.02, 1.0
    if cfg.field.sup > h_gap:
        twin = replace(cfg, field=cfg.field.scaled(1.0 - h_gap / cfg.field.sup))
    else:
        twin = replace(cfg, field=ExternalField("pulsed", cfg.field.sup + h_gap,
                                                omega=cfg.field.omega))
    envelope = continuity_envelope(cfg, h_gap, horizon)
    u0 = _start(cfg, seed, cfg.nonlinearity.sup_abs)
    ua = _integrate(u0, 0.0, horizon, cfg, carry=[])
    ub = _integrate(u0, 0.0, horizon, twin, carry=[])
    measured = _lp_norm(ua - ub, quad_weights(cfg.weight, cfg.grid), cfg.p)
    return envelope, measured, TOL_TRAJECTORY


# name -> (check, the Cauchy weight's constant its stated bound is built
# on, or None); check(cfg, seed, norms) -> (theoretical, measured,
# tolerance[, converged]), norms() being _operator_norms' rows
_CHECKS = {
    "lemma1a": (_check_lemma1a, "K"),
    "lemma1a_deriv": (_check_lemma1a_deriv, "K"),
    "lemma1b": (_check_lemma1b, "rho_1"),
    "prop_lipschitz": (_check_prop_lipschitz, "K"),
    "absorbing": (_check_absorbing, None),
    "w_bound": (_check_w_bound, None),
    "c1_attractor": (_check_c1_attractor, None),
    "gronwall_continuity": (_check_gronwall, "rho_1"),
}
CHECK_NAMES = tuple(_CHECKS)


def verify(name: str, cfg: ProcessConfig, *, seed: int = 0) -> BoundReport:
    """Run one named inequality check; deterministic for a fixed seed.

    The check runs alone, without battery's axiom checks, so a planted
    defect that breaks an axiom still reaches the check's own verdict.
    """
    return _run_checks(cfg, [name], seed)[0]


def battery(cfg: ProcessConfig, names=None, *,
            seed: int = 0) -> list[BoundReport]:
    """Check the axioms, then run a selection of checks (default: all).

    The response's and the field's check_axioms run first, each on its
    own default_rng(seed), so the checks' draws are the same as without
    them; a violation raises ConfigError at key path "model" or "field".
    The checks then run as _run_checks runs them.
    """
    for key, part in (("model", cfg.nonlinearity), ("field", cfg.field)):
        try:
            part.check_axioms(np.random.default_rng(seed))
        except ValueError as e:
            raise ConfigError(f"axiom violated: {e}", key) from e
    return _run_checks(cfg, CHECK_NAMES if names is None else names, seed)


def _run_checks(cfg, names, seed) -> list[BoundReport]:
    """Run the named checks in the order given and build their reports.

    Each check gets norms(), which runs the _operator_norms stack on its
    first call and returns the same rows after, so the stack runs at
    most once, and not at all when no operator check is named.
    c1_attractor computes the confirmed h* of cfg's beta and response for
    its bound.  A weight other than Cauchy raises ConfigError at key path
    "weight", before any check runs, if a check whose bound is built on a
    Cauchy constant is asked for.  A measurement, then a bound, that is
    not finite raises BlowUpError naming its check.
    """
    names = list(names)
    for n in names:
        if n not in CHECK_NAMES:
            raise ValueError(f"unknown check {n!r}; expected one of {CHECK_NAMES}")
    needs = [f"{n} ({_CHECKS[n][1]})" for n in names if _CHECKS[n][1]]
    if needs and cfg.weight.kind != WEIGHT_CAUCHY:
        others = [n for n in CHECK_NAMES if not _CHECKS[n][1]]
        raise ConfigError(
            f"the {cfg.weight.kind} weight has no finite K, so the cauchy "
            f"weight's constants of {', '.join(needs)} do not hold; list "
            f"checks from {', '.join(others)}", "weight")
    reports = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = cache(lambda: _operator_norms(cfg, seed))
        for n in names:
            theoretical, measured, tolerance, *converged = \
                _CHECKS[n][0](cfg, seed, norms)
            if not math.isfinite(measured):
                raise BlowUpError(f"{n}: the measurement is {measured}, not finite")
            if not math.isfinite(theoretical):
                raise BlowUpError(f"{n}: the bound is {theoretical}, not finite")
            reports.append(BoundReport(
                name=n, theoretical=float(theoretical), measured=float(measured),
                margin=float(theoretical - measured),
                passed=bool(measured <= theoretical + tolerance) and all(converged),
                tolerance=tolerance, digest=cfg.digest(), seed=seed))
    return reports
