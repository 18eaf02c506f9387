"""Explicit constants of the theory and measured verdicts against them.

Each named check produces a BoundReport pairing a theoretical constant
with a seeded measurement.  The bounds are loose by design; a failed
verdict signals an implementation bug, not a sharp inequality.  Checks
that involve pointwise values restrict to interior nodes where the
zero-extension convolution is exact; checks work on raw sample rows.
The four corpus checks (lemma1a, lemma1a_deriv, lemma1b, prop_lipschitz)
read one seeded draw made once per battery, and verify(name) runs one
check as battery does, without battery's axiom checks of the response and
the field.  The draw is one (rows, n) array whose mode sums come from a
cos/sin block table by angle addition, within about 1e-13 of summing one
libm cosine per node.  It is walked in blocks of _BLOCK rows, each
transformed forward once for both J*u and J'*u; norms are taken and G is
evaluated row by row and pair by pair, as on a single field.

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

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .attractor import absorbing_entry_time, approximate_pullback_attractor
from .bifurcation import compute_h_star
from .dynamics import ExternalField, ProcessConfig, evolve, _guard_finite, \
    _nonlinear_term
from .errors import ConfigError
from .kernel import _fft_convolve_both
from .weighted_space import WEIGHT_CAUCHY, WeightedField, _lp_norm, \
    finite_difference, quad_weights

log = logging.getLogger(__name__)

TOL_QUADRATURE = 1e-9
TOL_TRAJECTORY = 1e-3

# the Cauchy weight's constants: K, and rho_1, which is rho(1) to the bit
CAUCHY_K = 3.0
CAUCHY_RHO_1 = 1.0 / (2.0 * math.pi)

# corpus rows per forward FFT and per batched mode table: the batch knee
# of the FFT on a (rows, n) array; even, so (2, n) pairs stay whole
_BLOCK = 16


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
    samples: int
    seed: int


def _report(name, theoretical, measured, tolerance, cfg, samples, seed,
            forced_fail: bool = False) -> BoundReport:
    passed = bool(measured <= theoretical + tolerance) and not forced_fail
    return BoundReport(name=name, theoretical=float(theoretical),
                       measured=float(measured),
                       margin=float(theoretical - measured), passed=passed,
                       tolerance=tolerance, digest=cfg.digest(),
                       samples=samples, seed=seed)


def _field_corpus(cfg: ProcessConfig, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Global random rows, as a (count, n) array: five low modes plus noise.

    Row i is sum_m amp_m cos(k_m x + phase_m) + noise.  Each mode draws k,
    then amp, then phase, and the row's grid noise follows its five modes.
    The scalars are drawn through rng.random and rng.standard_normal with
    the affine maps of rng.uniform and rng.normal, so each equals what
    those would draw, at less call overhead.  The mode sum comes from
    angle addition over blocks of b = ceil(sqrt n) nodes: with heads
    theta_a = k x[a b] + phase and offsets psi_j = k dx j,
    cos(theta_a + psi_j) = cos theta_a cos psi_j - sin theta_a sin psi_j,
    so a row is one (blocks, 10) @ (10, b) product cropped to n, built from
    2 (blocks + b) sines and cosines per mode instead of n cosines.  Once
    every row is drawn, the products of _BLOCK rows at a time are one
    batched matmul, added in place onto the rows' noise.
    """
    x = cfg.grid.nodes
    n = x.size
    b = math.isqrt(n - 1) + 1
    heads = x[::b]
    steps = cfg.grid.spacing * np.arange(b)
    out = np.empty((count, n))
    modes = np.empty((count, 3, 5))
    for row, (k, amp, phase) in zip(out, modes):
        for m in range(5):
            k[m] = 0.05 + (2.5 - 0.05) * rng.random()
            amp[m] = 0.3 * rng.standard_normal()
            phase[m] = 2 * np.pi * rng.random()
        rng.standard_normal(out=row)
        row *= 0.1
    for first in range(0, count, _BLOCK):
        k, amp, phase = modes[first:first + _BLOCK, :, None, :].swapaxes(0, 1)
        theta = heads[:, None] * k + phase
        psi = np.swapaxes(k, 1, 2) * steps
        table = np.concatenate([amp * np.cos(theta), -amp * np.sin(theta)], axis=2)
        basis = np.concatenate([np.cos(psi), np.sin(psi)], axis=1)
        rows = out[first:first + _BLOCK]
        rows += (table @ basis).reshape(len(rows), -1)[:, :n]
    return out


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
    value past the float range, gives inf, with a warning that the bound
    says nothing there.
    """
    if horizon < 0.0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if h_gap < 0.0:
        raise ValueError(f"h gap must be nonnegative, got {h_gap}")
    if h_gap == 0.0:
        return 0.0
    if cfg.weight.kind != WEIGHT_CAUCHY:
        log.warning("continuity envelope: the %s weight has no finite K;"
                    " the bound is vacuous", cfg.weight.kind)
        return math.inf
    m1 = 2.0 ** ((cfg.p + 1.0) / cfg.p) * cfg.nonlinearity.lipschitz * cfg.beta
    rate = m1 * cfg.kernel.norm_sup / CAUCHY_RHO_1
    try:
        envelope = m1 * h_gap * math.exp(rate * horizon)
    except OverflowError:
        envelope = math.inf
    if math.isinf(envelope):
        log.warning("continuity envelope overflows at horizon %g (rate %.4g);"
                    " the bound is vacuous there", horizon, rate)
    return envelope


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

def _corpus_worst(cfg, samples, seed) -> dict[str, float]:
    """Worst measured ratio of each corpus check, from one seeded draw.

    The 2 * samples rows are walked in blocks of _BLOCK rows, and each
    block is transformed forward once: that one spectrum gives J*u for
    every row of the block and J'*u for the block's lemma rows, the first
    `samples` rows of the corpus.  J*u serves lemma1a and lemma1b, J'*u
    lemma1a_deriv.  prop_lipschitz takes the rows in (2, n) pairs, hands
    each pair's J*u to G and draws one time per pair after the corpus.  A
    corpus pass transforms 2 * samples rows forward and 3 * samples back;
    every norm still reads one row.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    corpus = _field_corpus(cfg, 2 * samples, rng)
    drawn = time.perf_counter()
    w = quad_weights(cfg.weight, cfg.grid)
    mask = cfg.grid.interior_mask()
    worst = dict.fromkeys(_CORPUS_BOUNDS, 0.0)
    blocks = inverse_rows = 0
    for first in range(0, len(corpus), _BLOCK):
        block = corpus[first:first + _BLOCK]
        # clamped: past the lemma rows, block[:-k] would still keep rows
        lemma = block[:max(samples - first, 0)]
        conv, deriv = _fft_convolve_both(cfg.kernel, block, len(lemma))
        blocks += 1
        inverse_rows += len(block) + len(lemma)
        for u, conv_u, deriv_u in zip(lemma, conv, deriv):
            nu = _lp_norm(u, w, cfg.p)
            if nu != 0.0:
                for name, value in (("lemma1a", _lp_norm(conv_u, w, cfg.p)),
                                    ("lemma1a_deriv", _lp_norm(deriv_u, w, cfg.p)),
                                    ("lemma1b", float(np.max(np.abs(conv_u[mask]))))):
                    worst[name] = max(worst[name], value / nu)
        # _BLOCK is even, so no pair straddles two blocks
        for i in range(0, len(block), 2):
            pair = block[i:i + 2]
            gap = _lp_norm(pair[0] - pair[1], w, cfg.p)
            if gap == 0.0:
                continue
            # f = -u + G(t, u); without the guard a NaN ratio would vanish in max
            f = -pair + _nonlinear_term(cfg, rng.uniform(0.0, 10.0), pair,
                                        conv[i:i + 2])
            diff = f[0] - f[1]
            _guard_finite(diff)
            worst["prop_lipschitz"] = max(worst["prop_lipschitz"],
                                          _lp_norm(diff, w, cfg.p) / gap)
    log.info("corpus pass: %d rows drawn in %.3f s, %d blocks, %d forward rows,"
             " %d inverse rows, checked in %.3f s", len(corpus), drawn - start,
             blocks, len(corpus), inverse_rows, time.perf_counter() - drawn)
    return worst


def _scaled_to_norm(cfg, rng, target: float) -> WeightedField:
    u = _field_corpus(cfg, 1, rng)[0]
    norm = _lp_norm(u, quad_weights(cfg.weight, cfg.grid), cfg.p)
    return WeightedField(cfg.grid, cfg.weight, u * (target / norm))


def _check_absorbing(cfg, samples, seed):
    rng = np.random.default_rng(seed)
    a = cfg.nonlinearity.sup_abs
    w = quad_weights(cfg.weight, cfg.grid)
    t_obs, radius, eps = 0.0, 10.0, 0.1
    tau = absorbing_entry_time(t_obs, radius, eps)
    u0 = _scaled_to_norm(cfg, rng, radius)

    excess = []

    def watch(s, vals):
        decay = math.exp(-(s - tau)) * radius
        excess.append(_lp_norm(vals, w, cfg.p) - decay)

    evolve(u0, tau, t_obs, cfg, observer=watch)
    return _report("absorbing", a, max(excess), TOL_TRAJECTORY,
                   cfg, samples, seed)


def _check_w_bound(cfg, samples, seed):
    rng = np.random.default_rng(seed)
    a = cfg.nonlinearity.sup_abs
    u0 = _scaled_to_norm(cfg, rng, a + 0.1)
    sups = []  # of w(s) = u(s) - v(s), with v(s) = exp(-s) u0 in closed form
    evolve(u0, 0.0, 8.0, cfg, observer=lambda s, vals: sups.append(
        float(np.max(np.abs(vals - math.exp(-s) * u0.values)))))
    return _report("w_bound", a, max(sups), TOL_QUADRATURE, cfg, samples, seed)


def _check_c1_attractor(cfg, samples, seed):
    bound = c1_regularity_bound(cfg, compute_h_star(cfg.beta, cfg.nonlinearity))
    sample = approximate_pullback_attractor(
        0.0, cfg, n_samples=min(samples, 8),
        tau_ladder=[-4.0, -8.0, -16.0, -32.0], seed=seed)
    mask = cfg.grid.interior_mask()
    worst = 0.0
    for m in sample.members:
        worst = max(worst, float(np.max(np.abs(finite_difference(m).values[mask]))))
    return _report("c1_attractor", bound, worst, TOL_TRAJECTORY,
                   cfg, samples, seed, forced_fail=not sample.converged)


def _check_gronwall(cfg, samples, seed):
    rng = np.random.default_rng(seed)
    h_gap, horizon = 0.02, 1.0
    if cfg.field.sup > h_gap:
        twin = replace(cfg, field=cfg.field.scaled(1.0 - h_gap / cfg.field.sup))
    else:
        twin = replace(cfg, field=ExternalField("pulsed", cfg.field.sup + h_gap,
                                                omega=cfg.field.omega))
    envelope = continuity_envelope(cfg, h_gap, horizon)
    u0 = _scaled_to_norm(cfg, rng, cfg.nonlinearity.sup_abs)
    ua = evolve(u0, 0.0, horizon, cfg)
    ub = evolve(u0, 0.0, horizon, twin)
    measured = _lp_norm(ua.values - ub.values, quad_weights(cfg.weight, cfg.grid), cfg.p)
    return _report("gronwall_continuity", envelope, measured, TOL_TRAJECTORY,
                   cfg, samples, seed)


# the checks measured on the shared corpus: name -> stated constant(cfg)
_CORPUS_BOUNDS = {
    "lemma1a": lambda cfg: CAUCHY_K ** (1.0 / cfg.p),
    "lemma1a_deriv": lambda cfg: CAUCHY_K ** (1.0 / cfg.p),
    "lemma1b": lambda cfg: cfg.kernel.norm_sup / CAUCHY_RHO_1,
    "prop_lipschitz": lipschitz_constant_f,
}
# the checks with their own runs: name -> check(cfg, samples, seed)
_CHECKS = {
    "absorbing": _check_absorbing,
    "w_bound": _check_w_bound,
    "c1_attractor": _check_c1_attractor,
    "gronwall_continuity": _check_gronwall,
}
CHECK_NAMES = tuple(_CORPUS_BOUNDS) + tuple(_CHECKS)
# the checks whose constants hold for the Cauchy weight only: name -> the
# weight constant its bound is built on
_CAUCHY_ONLY = {"lemma1a": "K", "lemma1a_deriv": "K", "lemma1b": "rho_1",
                "prop_lipschitz": "K", "gronwall_continuity": "rho_1"}


def verify(name: str, cfg: ProcessConfig, samples: int = 500,
           seed: int = 0) -> BoundReport:
    """Run one named inequality check; deterministic for a fixed seed.

    The check runs alone, without battery's axiom checks, so a planted
    defect that breaks an axiom still reaches the check's own verdict.
    """
    return _run_checks(cfg, [name], samples, seed)[0]


def battery(cfg: ProcessConfig, names=None, samples: int = 500,
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
    return _run_checks(cfg, CHECK_NAMES if names is None else names,
                       samples, seed)


def _run_checks(cfg, names, samples, seed) -> list[BoundReport]:
    """Run the named checks in the order given.

    The corpus checks share one seeded draw, made once per call, and
    c1_attractor computes the confirmed h* of cfg's beta and response for
    its bound.  A weight other than Cauchy raises ConfigError at key path
    "weight", before any draw, if a check of _CAUCHY_ONLY is asked for.
    """
    names = list(names)
    for n in names:
        if n not in CHECK_NAMES:
            raise ValueError(f"unknown check {n!r}; expected one of {CHECK_NAMES}")
    needs = [f"{n} ({_CAUCHY_ONLY[n]})" for n in names if n in _CAUCHY_ONLY]
    if needs and cfg.weight.kind != WEIGHT_CAUCHY:
        others = [n for n in CHECK_NAMES if n not in _CAUCHY_ONLY]
        raise ConfigError(
            f"the {cfg.weight.kind} weight has no finite K, so the cauchy "
            f"weight's constants of {', '.join(needs)} do not hold; list "
            f"checks from {', '.join(others)}", "weight")
    worst = _corpus_worst(cfg, samples, seed) \
        if any(n in _CORPUS_BOUNDS for n in names) else {}
    return [_report(n, _CORPUS_BOUNDS[n](cfg), worst[n], TOL_QUADRATURE,
                    cfg, samples, seed) if n in worst
            else _CHECKS[n](cfg, samples, seed) for n in names]
