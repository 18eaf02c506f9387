"""Pullback attractor approximation and semicontinuity experiments.

The attractor at observation time t is approximated by endpoint sets of
pullback runs: seeded initial conditions drawn from the absorbing ball
are evolved from progressively earlier start times tau to t, and the
endpoint set is accepted once it stops moving between consecutive rungs
of the tau ladder.  Sets are compared in the one-sided Hausdorff sense
with the weighted norm underneath.

All members of a rung share one time schedule, so they are evolved
together as one batched (k, n) array.  A ladder steps with one G
evaluation per step (see nlfield.dynamics): each step carries G and its
slope to the next, and a restart begins with one trapezoid step.  Under
a zero field the process is autonomous, S(t, tau) = S(t - tau), so a
deeper rung continues over the span it adds instead of restarting the
seeded family: it steps only the endpoints the previous rung kept after
dedup, with their rows of the G and slope that rung ended with.  It
does so only when that gives the restart's steps exactly.  Each row of
a batched step is bitwise its own run, so every continued row is the
restart's endpoint for that member, and the kept set is the restart's
whenever no member the previous rung dropped moves farther than
DEDUP_TOL from the kept images.  A pulsed field, or a rung whose span
would change the shortened tail step, restarts the whole family.

The outputs carry no time grid, so a ladder steps at the coarsest
h = dt 2^j that its Richardson estimate accepts (Hairer, Norsett &
Wanner, Solving ODEs I, II.4).  The first candidate is the largest with
h beta (l_g ||J||_1 + l_h) <= 1 that fits in the shallowest rung's span.
The ladder is run at h and again at 2h over the rungs the h run used;
h is accepted when both stop at the same rung with the same verdict and
max(two-sided distance between their deepest kept endpoints,
|last gap(h) - last gap(2h)|) / 3, the error estimate of a second-order
scheme, is at most LADDER_TOL.  Otherwise h is halved, and the rejected
run serves as the 2h run of the next try; at h = dt the ladder runs
unchecked, as a fixed-step ladder does.  The first 2h run restarts each
rung on the family members the h run kept at that rung, not on the whole
family, so it measures the step error of the members the ladder reports,
not of those it dropped.  Since each row of a batched step is bitwise its
own run, wherever the 2h dedup keeps the same members as the h dedup,
its rungs, and so the estimate, equal those of a 2h run over the whole
family; where the two dedups part, the estimate moves.

The semicontinuity sweep draws the seeded family and searches the step
once, on the unperturbed field, and runs one ladder per distinct field
at that step: a leg whose scaled field equals the unperturbed field
(eps = 0, or any eps on a zero field or a zero-amplitude pulse) reuses
the unperturbed rungs.

Set distances (Hausdorff, the endpoint clusters, the two-sided gap
between rungs) come from one weighted l^p distance matrix between the
rows of two stacks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import ProcessConfig, _integrate, _step_schedule
from .errors import EmptySetError, TimeOrderError
from .weighted_space import WeightedField, _check_p, _lp_norm, quad_weights

log = logging.getLogger(__name__)

DEDUP_TOL = 1e-3
BALL_SLACK = 0.1
# a decade inside the 1e-3 TRAJECTORY class
LADDER_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class AttractorSample:
    """Endpoint set of a stabilized pullback run."""

    t: float
    members: tuple[WeightedField, ...]
    p: float
    taus: tuple[float, ...]
    seed: int
    digest: str
    converged: bool
    rung_gaps: tuple[float, ...]
    step: float  # the ladder's time step
    step_error: float  # its Richardson estimate; NaN when the step is dt

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SemicontinuityCurve:
    """Attractor displacement against field perturbation size."""

    t: float
    epsilons: tuple[float, ...]
    distances: tuple[float, ...]
    envelopes: tuple[float, ...]
    converged: tuple[bool, ...]
    digest: str


def absorbing_entry_time(t: float, radius_r: float, eps: float) -> float:
    """Latest start time from which a ball of the given radius has
    contracted into B(0; a + eps) by observation time t."""
    if not (radius_r > 0.0):
        raise ValueError(f"radius must be positive, got {radius_r}")
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    return t + math.log(eps / radius_r)


def sample_absorbing_ball(cfg: ProcessConfig, n_members: int,
                          seed: int) -> list[WeightedField]:
    """Seeded initial conditions filling the absorbing ball.

    Half the members are constant fields on a symmetric value ladder
    (these ride the spatially homogeneous skeleton of the dynamics); the
    rest are sign-definite random Fourier fields, a bias level plus
    smooth low-mode fluctuations capped below the bias.  Keeping each
    random member on one side of zero probes genuinely nonconstant
    directions without nucleating interface pairs, whose coarsening
    times grow exponentially with their separation and would defeat any
    ladder of reachable depth.  Every member is rescaled into the ball
    of radius a + BALL_SLACK when its weighted norm exceeds that radius.
    """
    if n_members < 1:
        raise ValueError("need at least one member")
    radius = cfg.nonlinearity.sup_abs + BALL_SLACK
    x = cfg.grid.nodes
    rng = np.random.default_rng(seed)

    n_const = (n_members + 1) // 2
    fields: list[WeightedField] = []
    levels = np.linspace(-radius, radius, n_const) if n_const > 1 else np.array([0.0])
    for c in levels:
        fields.append(WeightedField(cfg.grid, cfg.weight, np.full(x.shape, float(c))))

    n_modes = 6
    for j in range(n_members - n_const):
        sgn = 1.0 if j % 2 == 0 else -1.0
        bias = rng.uniform(0.35, 0.95)
        fluct = np.zeros_like(x)
        for _ in range(n_modes):
            k = rng.uniform(0.05, 1.5)
            amp = rng.normal(scale=bias / 10.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            fluct += amp * np.cos(k * x + phase)
        peak = float(np.max(np.abs(fluct)))
        if peak > 0.8 * bias:
            fluct *= 0.8 * bias / peak
        u = sgn * (bias + fluct)
        norm = _lp_norm(u, quad_weights(cfg.weight, cfg.grid), cfg.p)
        if norm > radius:
            u = u * (radius / norm)
        fields.append(WeightedField(cfg.grid, cfg.weight, u))
    return fields


def _stack(members) -> tuple[np.ndarray, WeightedField]:
    if isinstance(members, AttractorSample):
        members = members.members
    members = list(members)
    if not members:
        raise EmptySetError("a set in the Hausdorff semidistance is empty")
    return np.stack([m.values for m in members]), members[0]


def _lp_distances(A: np.ndarray, B: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Weighted l^p distance between every row of A and every row of B."""
    return np.stack([_lp_norm(a - B, w, p) for a in A])


def hausdorff_semidist(a, b, p: float | None = None) -> float:
    """One-sided set distance: sup over a of the nearest member of b.

    Accepts AttractorSamples or plain sequences of WeightedFields on a
    common grid and weight.  p defaults to the samples' own p, and to
    2.0 for plain sequences; a p that disagrees with a sample's raises,
    and so does a p outside (1, inf), as in weighted_norm.
    """
    ps = {s.p for s in (a, b) if isinstance(s, AttractorSample)}
    if p is not None:
        ps.add(float(p))
    if len(ps) > 1:
        raise ValueError(f"samples and p disagree on the exponent: {sorted(ps)}")
    p = _check_p(ps.pop() if ps else 2.0)
    stack_a, first_a = _stack(a)
    stack_b, first_b = _stack(b)
    first_a.same_space(first_b)
    w = quad_weights(first_a.weight, first_a.grid)
    dist = _lp_distances(stack_a, stack_b, w, p)
    return float(np.max(np.min(dist, axis=1)))


def _continues(tau: float, prev_tau: float, t: float, cfg: ProcessConfig) -> bool:
    # on a zero field, where no step reads the time, the previous rung's endpoints stepped over
    # [tau, prev_tau] equal a restart bit for bit if it takes that rung's steps (all dt) first
    prev, prev_tail = _step_schedule(prev_tau, t, cfg.dt)
    added, tail = _step_schedule(tau, prev_tau, cfg.dt)
    return (cfg.field.family == "zero" and not prev_tail
            and _step_schedule(tau, t, cfg.dt) == (prev + added, tail))


def _dedup(rows: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """Indices of the rows kept: each row farther than DEDUP_TOL from
    every row kept before it."""
    keep: list[int] = []
    for i, u in enumerate(rows):
        if not keep or np.min(_lp_distances(u[None], rows[keep], w, p)) > DEDUP_TOL:
            keep.append(i)
    return np.array(keep)


class _Rung(NamedTuple):
    tau: float
    kept: np.ndarray  # the endpoints left after dedup
    gap: float | None  # two-sided distance to the previous rung's kept set
    rows: np.ndarray  # the family row each kept endpoint started from


def _two_sided(A: np.ndarray, B: np.ndarray, w: np.ndarray, p: float) -> float:
    dist = _lp_distances(A, B, w, p)
    return float(max(np.max(np.min(dist, axis=1)), np.max(np.min(dist, axis=0))))


def _ladder_taus(t: float, tau_ladder: Sequence[float]) -> list[float]:
    taus = [float(x) for x in tau_ladder]
    if not taus:
        raise ValueError("tau ladder is empty")
    if any(tau >= t for tau in taus):
        raise TimeOrderError("every ladder rung must precede the observation time")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau ladder must be strictly decreasing")
    return taus


def _family(cfg: ProcessConfig, n_samples: int, seed: int) -> np.ndarray:
    return np.stack([u.values for u in sample_absorbing_ball(cfg, n_samples, seed)])


def _run_ladder(family: np.ndarray, taus: list[float], t: float,
                cfg: ProcessConfig, step: float,
                restart_rows: Sequence[np.ndarray] | None = None) -> list[_Rung]:
    """The rungs run at the given step, up to the first whose gap is
    below DEDUP_TOL.  A restarted rung steps the whole family, or, where
    restart_rows is given, only the family rows restart_rows holds at
    that rung's index."""
    run = replace(cfg, dt=step)
    w = quad_weights(cfg.weight, cfg.grid)
    rungs: list[_Rung] = []
    kept: np.ndarray = None  # indices of the rows the last rung kept
    carry: list = []  # G and its slope at every row the last rung stepped
    for r, tau in enumerate(taus):
        if rungs and _continues(tau, rungs[-1].tau, t, run):
            start, stop, how = rungs[-1].kept, rungs[-1].tau, "continued"
            carry, rows = [row[kept] for row in carry], rungs[-1].rows
        elif restart_rows is None:
            start, stop, how, carry = family, t, "restarted", []
            rows = np.arange(len(family))
        else:
            rows = restart_rows[r]
            start, stop, how, carry = family[rows], t, "restarted", []
        stepped = _integrate(start, tau, stop, run, carry=carry)
        kept = _dedup(stepped, w, cfg.p)
        endpoints = stepped[kept]
        gap = _two_sided(endpoints, rungs[-1].kept, w, cfg.p) if rungs else None
        log.info("rung tau=%g: %d steps of %g %s, %d members stepped, %d kept, gap %s",
                 tau, _step_schedule(tau, stop, step)[0], step, how,
                 len(stepped), len(endpoints), "n/a" if gap is None else f"{gap:.6g}")
        rungs.append(_Rung(tau, endpoints, gap, rows[kept]))
        if gap is not None and gap < DEDUP_TOL:
            break
    return rungs


def _converged(rungs: list[_Rung]) -> bool:
    gap = rungs[-1].gap
    return gap is not None and gap < DEDUP_TOL


def _richardson(fine: list[_Rung], coarse: list[_Rung], w: np.ndarray,
                p: float) -> float:
    # the scheme is second order, so the step-h error is about a third of
    # the h-to-2h difference; the last gap is what decides convergence
    a, b = fine[-1], coarse[-1]
    diff = _two_sided(a.kept, b.kept, w, p)
    if a.gap is not None and b.gap is not None:
        diff = max(diff, abs(a.gap - b.gap))
    return diff / 3.0


def _coarse_steps(cfg: ProcessConfig, span: float) -> list[float]:
    """Steps dt 2^j, largest first, down to 2 dt, for which the explicit
    predictor's Lipschitz product h beta (l_g ||J||_1 + l_h) is at most 1
    and h fits in the shallowest rung's span."""
    lip = cfg.beta * (cfg.nonlinearity.lipschitz * cfg.kernel.norm_l1
                      + cfg.field.lipschitz)
    steps: list[float] = []
    h = 2.0 * cfg.dt
    while h <= span and h * lip <= 1.0:
        steps.insert(0, h)
        h *= 2.0
    return steps


def _stabilized(rungs: list[_Rung]) -> bool:
    """_converged, warning once for a ladder that ran out of rungs."""
    converged = _converged(rungs)
    if not converged:
        gap = rungs[-1].gap
        log.warning("tau ladder exhausted without stabilization (last gap %s)",
                    "n/a" if gap is None else gap)
    return converged


def _search(family: np.ndarray, taus: list[float], t: float,
            cfg: ProcessConfig) -> tuple[list[_Rung], float, float]:
    """The rungs at the coarsest accepted step, the step, and its
    Richardson estimate (NaN at dt); see the module docstring.  The first
    2h run restarts each rung on the family rows the h run kept there."""
    w = quad_weights(cfg.weight, cfg.grid)
    coarse = None  # the ladder at twice the step being tried
    for step in _coarse_steps(cfg, t - taus[0]):
        fine = _run_ladder(family, taus, t, cfg, step)
        if coarse is None:
            # at each rung, only the members the h run kept
            coarse = _run_ladder(family, taus[:len(fine)], t, cfg, 2.0 * step,
                                 restart_rows=[r.rows for r in fine])
        # a ladder over a prefix of the rungs is a prefix of the rungs run
        coarse = coarse[:len(fine)]
        estimate = _richardson(fine, coarse, w, cfg.p)
        accepted = (len(coarse) == len(fine)
                    and _converged(coarse) == _converged(fine)
                    and estimate <= LADDER_TOL)
        log.info("ladder step %g: estimate %.3g, %s", step, estimate,
                 "accepted" if accepted else "halved")
        if accepted:
            return fine, step, estimate
        coarse = fine
    log.info("ladder step %g: no estimate, accepted", cfg.dt)
    return _run_ladder(family, taus, t, cfg, cfg.dt), cfg.dt, math.nan


def approximate_pullback_attractor(t: float, cfg: ProcessConfig,
                                   n_samples: int,
                                   tau_ladder: Sequence[float],
                                   seed: int = 0) -> AttractorSample:
    """Pullback endpoint set at time t, stabilized over a tau ladder.

    Every rung evolves the same seeded initial family from its tau to t;
    rungs must be strictly decreasing and earlier than t.  Under a zero
    field a rung continues the endpoints the previous rung kept over the
    span it adds when the steps match a restart's (see the module
    docstring); otherwise it restarts the whole family.  When
    consecutive endpoint sets agree within DEDUP_TOL, in both
    directions, the deeper one is returned as converged; an exhausted
    ladder returns the deepest rung flagged not converged.

    The ladder runs at the coarsest step dt 2^j whose Richardson
    estimate (see the module docstring) is at most LADDER_TOL, trying
    steps from the largest the predictor and the shallowest span allow
    and halving on each rejection; at dt it runs unchecked.  The estimate
    of the first step tried is the step error of the members the ladder
    keeps: its 2h run restarts each rung on those members alone.
    """
    taus = _ladder_taus(t, tau_ladder)
    rungs, step, estimate = _search(_family(cfg, n_samples, seed), taus, t, cfg)
    members = tuple(WeightedField(cfg.grid, cfg.weight, u) for u in rungs[-1].kept)
    return AttractorSample(t=t, members=members, p=cfg.p,
                           taus=tuple(r.tau for r in rungs), seed=seed,
                           digest=cfg.digest(), converged=_stabilized(rungs),
                           rung_gaps=tuple(r.gap for r in rungs[1:]),
                           step=step, step_error=estimate)


def upper_semicontinuity_sweep(t: float, cfg0: ProcessConfig,
                               eps_list: Sequence[float],
                               n_samples: int,
                               tau_ladder: Sequence[float],
                               seed: int = 0) -> SemicontinuityCurve:
    """Attractor displacement under the shrinking-field family.

    Each eps scales the external field to (1 - eps) of its amplitude,
    so the sup gap to the unperturbed field is eps times the field's
    sup.  Every leg starts from the one seeded family drawn for the
    unperturbed ladder.  The step is chosen once, on the unperturbed
    ladder, and every leg runs at it, so the distances compare endpoints
    of one time grid.  A leg whose scaled field equals the unperturbed
    one (eps = 0, or any eps on a zero field or a zero-amplitude pulse)
    reuses the unperturbed rungs, so its distance is exactly zero; every
    other leg runs its own ladder.  Each leg logs one line: its eps, how
    it ran, the step, its rungs and its distance.  The reported envelope
    is the trajectory-level exponential bound at the deepest ladder
    horizon, an upper reference only; where it is inf, one warning says
    so for the whole sweep.
    """
    from .bounds import continuity_envelope

    taus = _ladder_taus(t, tau_ladder)
    family = _family(cfg0, n_samples, seed)
    base, step, _ = _search(family, taus, t, cfg0)
    base_converged = _stabilized(base)
    w = quad_weights(cfg0.weight, cfg0.grid)
    horizon = t - base[-1].tau
    dists: list[float] = []
    envs: list[float] = []
    flags: list[bool] = []
    for eps in eps_list:
        field = cfg0.field.scaled(1.0 - eps)
        if field == cfg0.field:
            rungs, how, converged = base, "reused the unperturbed run", base_converged
        else:
            rungs = _run_ladder(family, taus, t, replace(cfg0, field=field), step)
            how, converged = "ran its own ladder", _stabilized(rungs)
        dist = float(np.max(np.min(
            _lp_distances(rungs[-1].kept, base[-1].kept, w, cfg0.p), axis=1)))
        log.info("sweep eps=%g: %s at step %g, %d rungs, distance %.6g",
                 eps, how, step, len(rungs), dist)
        dists.append(dist)
        envs.append(continuity_envelope(cfg0, eps * cfg0.field.sup, horizon) + DEDUP_TOL)
        flags.append(converged and base_converged)
    if math.inf in envs:
        log.warning("continuity envelope is inf at horizon %g on the %s weight;"
                    " the bound is vacuous there", horizon, cfg0.weight.kind)
    return SemicontinuityCurve(t=t, epsilons=tuple(float(e) for e in eps_list),
                               distances=tuple(dists), envelopes=tuple(envs),
                               converged=tuple(flags), digest=cfg0.digest())
