"""Absorbing diagnostics, pullback endpoint sets, and the semicontinuity sweep."""

import inspect
import logging
import math
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import nlfield as nf
from conftest import LADDER, list_schedule
from nlfield import attractor, dynamics
from nlfield.attractor import _dedup, _lp_distances, _run_ladder
from nlfield.cli import parse_config
from nlfield.dynamics import _integrate
from nlfield.weighted_space import _lp_norm, quad_weights


def small_cfg(beta=2.0, p=2.0, weight=nf.WeightFunction.cauchy(),
              field=nf.ExternalField()):
    """Tanh process on a 512-point grid, cheap enough for whole ladders."""
    grid = nf.Grid1D(20.0, 512)
    return nf.ProcessConfig(beta=beta, p=p, grid=grid, weight=weight,
                            kernel=nf.make_bump_kernel(grid),
                            nonlinearity=nf.Nonlinearity.tanh(), field=field,
                            dt=0.05)


def constant_field(cfg, norm_target):
    """Constant field scaled to a prescribed weighted norm."""
    ones = nf.WeightedField(cfg.grid, cfg.weight, np.ones(cfg.grid.n_points))
    return ones.with_values(ones.values * (norm_target / nf.weighted_norm(ones, cfg.p)))


# ---------------------------------------------------------------------------
# absorbing ball
# ---------------------------------------------------------------------------

def test_entry_time_formula():
    assert nf.absorbing_entry_time(0.0, 10.0, 0.1) == pytest.approx(math.log(0.01), rel=1e-14)
    assert nf.absorbing_entry_time(3.0, 0.25, 0.25) == 3.0
    with pytest.raises(ValueError):
        nf.absorbing_entry_time(0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        nf.absorbing_entry_time(0.0, 1.0, 0.0)


def test_entry_time_is_sufficient_on_trajectories(tanh_cfg):
    u = constant_field(tanh_cfg, 10.0)
    a = tanh_cfg.nonlinearity.sup_abs
    tau0 = nf.absorbing_entry_time(0.0, 10.0, 0.1)
    for tau in (tau0, tau0 - 1.0, tau0 - 3.0):
        out = nf.evolve(u, tau, 0.0, tanh_cfg)
        assert nf.weighted_norm(out, 2.0) <= a + 0.1 + 1e-3


def test_sampled_ball_members(tanh_cfg):
    # count constant fields on levels spread evenly and symmetrically
    # across the ball, with its radius at both ends; a single level is 0
    radius = tanh_cfg.nonlinearity.sup_abs + attractor.BALL_SLACK
    for count in (1, 2, 5, 8):
        levels = nf.sample_absorbing_ball(tanh_cfg, count)
        assert len(levels) == count
        values = [float(u.values[0]) for u in levels]
        assert all(np.all(u.values == c) for u, c in zip(levels, values))
        assert values == (list(np.linspace(-radius, radius, count)) if count > 1 else [0.0])
        assert values == pytest.approx([-c for c in reversed(values)], abs=1e-15)
        if count > 1:
            assert (values[0], values[-1]) == (-radius, radius)
        for u in levels:
            assert nf.weighted_norm(u, tanh_cfg.p) <= radius + 1e-12
        # no seed and no draw: a second call gives the same bytes
        again = nf.sample_absorbing_ball(tanh_cfg, count)
        assert all(np.array_equal(u.values, v.values) for u, v in zip(levels, again))


def test_sampled_ball_rejects_no_levels_and_takes_no_seed(tanh_cfg):
    with pytest.raises(ValueError):
        nf.sample_absorbing_ball(tanh_cfg, 0)
    with pytest.raises(TypeError):
        nf.sample_absorbing_ball(tanh_cfg, 4, seed=1)


@pytest.mark.parametrize("n_samples, levels", [(1, 1), (2, 1), (7, 4), (8, 4), (9, 5)])
def test_ladder_family_is_ceil_half_the_samples_in_levels(tanh_cfg, n_samples, levels):
    family = attractor._family(tanh_cfg, n_samples)
    ref = np.stack([u.values for u in nf.sample_absorbing_ball(tanh_cfg, levels)])
    assert np.array_equal(family, ref)


def random_rows(cfg, count, seed):
    """count sign-definite random Fourier rows, the members a ladder family
    could add to its constant levels: a bias level plus six smooth low
    modes capped below it, on alternating sides of zero, each rescaled
    into the absorbing ball."""
    radius = cfg.nonlinearity.sup_abs + attractor.BALL_SLACK
    x = cfg.grid.nodes
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(count):
        sgn = 1.0 if j % 2 == 0 else -1.0
        bias = rng.uniform(0.35, 0.95)
        fluct = np.zeros_like(x)
        for _ in range(6):
            k = rng.uniform(0.05, 1.5)
            amp = rng.normal(scale=bias / 10.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            fluct += amp * np.cos(k * x + phase)
        peak = float(np.max(np.abs(fluct)))
        if peak > 0.8 * bias:
            fluct *= 0.8 * bias / peak
        u = sgn * (bias + fluct)
        norm = _lp_norm(u, quad_weights(cfg.weight, cfg.grid), cfg.p)
        rows.append(u * (radius / norm) if norm > radius else u)
    return np.stack(rows)


CONFIGS = Path(__file__).parent.parent / "configs"
SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.yaml"))


def shipped_ladder(config, block):
    """The process, the observation time, the ladder and n_samples of a
    shipped config's attractor or sweep block, schema defaults applied."""
    exp = parse_config((CONFIGS / f"{config}.yaml").read_text(encoding="utf-8"))
    blk = exp.blocks[block]
    return exp.process, blk["t"], attractor._ladder_taus(blk["t"], blk["tau_ladder"]), \
        blk["n_samples"]


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("block", ["attractor", "sweep"])
@pytest.mark.parametrize("config", SHIPPED)
def test_random_rows_add_no_member_to_the_constant_levels(config, block, seed):
    # random rows added after the levels merge into the constant states on
    # every shipped ladder, and dedup keeps a level row of each cluster; a
    # step search that stops at the same rung and step over the levels
    # alone keeps the same endpoints, bit for bit.  At the shipped seed 0
    # every search does; at seed 2 the slow random rows push the sweep
    # config's sweep ladder a rung deeper
    cfg, t, taus, n_samples = shipped_ladder(config, block)
    levels = attractor._family(cfg, n_samples)
    full = np.concatenate([levels, random_rows(cfg, n_samples - len(levels), seed)])
    rungs, step, _ = attractor._search(levels, taus, t, cfg)
    ref, ref_step, _ = attractor._search(full, taus, t, cfg)
    assert np.all(ref[-1].rows < len(levels))
    same = (step, [r.tau for r in rungs]) == (ref_step, [r.tau for r in ref])
    assert same == (seed == 0 or (config, block) != ("sweep", "sweep"))
    if same:
        assert np.array_equal(rungs[-1].kept, ref[-1].kept)


# ---------------------------------------------------------------------------
# Hausdorff semidistance
# ---------------------------------------------------------------------------

def test_semidistance_singletons(grid, cauchy, corpus_factory):
    u, v = corpus_factory(grid, cauchy, 2, seed=41)
    gap = nf.weighted_norm(u.with_values(u.values - v.values), 2.0)
    assert nf.hausdorff_semidist([u], [v]) == pytest.approx(gap, rel=1e-12)


def test_semidistance_subset_and_asymmetry(grid, cauchy):
    zero = nf.WeightedField(grid, cauchy, np.zeros(grid.n_points))
    bump = nf.WeightedField(grid, cauchy, np.full(grid.n_points, 0.7))
    small = [zero]
    large = [zero, bump]
    assert nf.hausdorff_semidist(small, large) == 0.0
    assert nf.hausdorff_semidist(large, small) == pytest.approx(
        nf.weighted_norm(bump, 2.0), rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_pairwise_distances_match_reference(p, grid, cauchy):
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, grid.n_points))
    B = rng.normal(size=(4, grid.n_points))
    w = quad_weights(cauchy, grid)
    ref = np.empty((3, 4))
    for a in range(3):
        for b in range(4):
            ref[a, b] = np.dot(w, np.abs(A[a] - B[b]) ** p) ** (1.0 / p)
    assert np.max(np.abs(_lp_distances(A, B, w, p) - ref)) < 1e-12
    fields_a = [nf.WeightedField(grid, cauchy, row) for row in A]
    fields_b = [nf.WeightedField(grid, cauchy, row) for row in B]
    assert nf.hausdorff_semidist(fields_a, fields_b, p) == pytest.approx(
        np.max(np.min(ref, axis=1)), rel=1e-12)


def test_pairwise_distances_diagonal_zero_and_symmetric(grid, cauchy):
    A = np.random.default_rng(3).normal(size=(4, grid.n_points))
    d = _lp_distances(A, A, quad_weights(cauchy, grid), 2.0)
    assert np.all(np.diag(d) == 0.0)
    assert np.max(np.abs(d - d.T)) < 1e-12


def test_dedup_keeps_first_member_of_each_cluster(grid, cauchy):
    w = quad_weights(cauchy, grid)
    ones = np.ones(grid.n_points)
    endpoints = np.stack([0.5 * ones, -0.5 * ones, (0.5 + 1e-4) * ones,
                          -0.5 * ones, 0.2 * ones])
    # 1e-4 apart is within DEDUP_TOL, 0.3 apart is not
    assert np.array_equal(_dedup(endpoints, w, 2.0), [0, 1, 4])


def test_semidistance_measures_samples_in_their_own_p(grid, cauchy):
    ones = np.ones(grid.n_points)

    def sample(level, p):
        member = nf.WeightedField(grid, cauchy, level * ones)
        return nf.AttractorSample(t=0.0, members=(member,), p=p, taus=(-1.0,),
                                  seed=0, digest="", converged=True, rung_gaps=(),
                                  step=0.05, step_error=math.nan)

    a, b = sample(0.5, 3.0), sample(0.2, 3.0)
    l3 = nf.weighted_norm(nf.WeightedField(grid, cauchy, 0.3 * ones), 3.0)
    assert nf.hausdorff_semidist(a, b) == pytest.approx(l3, rel=1e-12)
    assert nf.hausdorff_semidist(a, b, 3.0) == nf.hausdorff_semidist(a, b)
    with pytest.raises(ValueError):
        nf.hausdorff_semidist(a, b, 2.0)
    with pytest.raises(ValueError):
        nf.hausdorff_semidist(a, sample(0.2, 2.0))
    with pytest.raises(ValueError):
        nf.hausdorff_semidist(list(a.members), b, 2.0)
    # plain sequences keep the documented p = 2
    l2 = nf.weighted_norm(nf.WeightedField(grid, cauchy, 0.3 * ones), 2.0)
    assert nf.hausdorff_semidist(list(a.members), list(b.members)) == pytest.approx(
        l2, rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, math.inf, math.nan])
def test_semidistance_rejects_p_outside_one_to_inf(grid, cauchy, p):
    # unchecked, p inf reads 1.0 whatever the sets and p 0 divides by zero
    zero = nf.WeightedField(grid, cauchy, np.zeros(grid.n_points))
    bump = nf.WeightedField(grid, cauchy, np.full(grid.n_points, 0.7))
    with pytest.raises(ValueError, match="exponent p must lie in"):
        nf.hausdorff_semidist([bump], [zero], p)
    assert nf.hausdorff_semidist([bump], [zero], 2.0) == pytest.approx(
        nf.weighted_norm(bump, 2.0), rel=1e-12)


def test_semidistance_validation(grid, fine_grid, cauchy):
    zero = nf.WeightedField(grid, cauchy, np.zeros(grid.n_points))
    with pytest.raises(nf.EmptySetError):
        nf.hausdorff_semidist([], [zero])
    with pytest.raises(nf.EmptySetError):
        nf.hausdorff_semidist([zero], [])
    foreign = nf.WeightedField(fine_grid, cauchy, np.zeros(fine_grid.n_points))
    with pytest.raises(nf.GridMismatchError):
        nf.hausdorff_semidist([zero], [foreign])


# ---------------------------------------------------------------------------
# pullback attractor approximation
# ---------------------------------------------------------------------------

def test_contraction_regime_gives_singleton_zero(contraction_attractor):
    sample = contraction_attractor
    assert sample.converged
    assert len(sample) == 1
    assert nf.weighted_norm(sample.members[0], 2.0) <= 1e-4


def test_bistable_regime_recovers_constant_states(bistable_attractor, s_star):
    # zero extension beyond the cut depresses the saturated state near the
    # boundary; three interaction radii in, the layer is below 1e-6 and the
    # members match the scalar fixed point
    sample = bistable_attractor
    assert sample.converged
    interior = sample.members[0].grid.interior_mask(3.0)
    gaps_up = [np.max(np.abs(m.values[interior] - s_star)) for m in sample.members]
    gaps_dn = [np.max(np.abs(m.values[interior] + s_star)) for m in sample.members]
    assert min(gaps_up) <= 1e-4
    assert min(gaps_dn) <= 1e-4


def test_members_stay_in_response_ball(bistable_attractor, contraction_attractor):
    for sample in (bistable_attractor, contraction_attractor):
        for m in sample.members:
            assert nf.weighted_norm(m, sample.p) <= 1.0 + 1e-3


def test_attractor_metadata(bistable_attractor, tanh_cfg):
    sample = bistable_attractor
    assert sample.t == 0.0
    assert sample.digest == tanh_cfg.digest()
    assert sample.taus == LADDER
    assert len(sample.rung_gaps) == len(LADDER) - 1
    assert sample.rung_gaps[-1] < 1e-3


def test_deeper_rungs_attract_monotonically(tanh_cfg, bistable_attractor):
    # pullback distance to the stabilized set shrinks along the ladder,
    # and the endpoint norm excess never grows with depth
    corpus = nf.sample_absorbing_ball(tanh_cfg, 8)
    dists, max_norms = [], []
    for tau in LADDER:
        endpoints = [nf.evolve(u, tau, 0.0, tanh_cfg) for u in corpus]
        dists.append(nf.hausdorff_semidist(endpoints, bistable_attractor))
        max_norms.append(max(nf.weighted_norm(e, 2.0) for e in endpoints))
    assert all(b <= a + 1e-6 for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 1e-3
    assert all(b <= a + 1e-9 for a, b in zip(max_norms, max_norms[1:]))


def test_attractor_set_is_invariant_under_evolution(tanh_cfg, bistable_attractor):
    evolved = [nf.evolve(m, -4.0, 0.0, tanh_cfg) for m in bistable_attractor.members]
    gap = max(nf.hausdorff_semidist(evolved, bistable_attractor),
              nf.hausdorff_semidist(bistable_attractor, evolved))
    assert gap <= 5e-3


def test_unstabilized_ladder_is_flagged(tanh_cfg, caplog):
    with caplog.at_level(logging.WARNING, logger="nlfield.attractor"):
        sample = nf.approximate_pullback_attractor(0.0, tanh_cfg, n_samples=4,
                                                   tau_ladder=(-0.5, -1.0), seed=0)
    assert not sample.converged
    assert sample.taus == (-0.5, -1.0)
    assert any("without stabilization" in r.getMessage() for r in caplog.records)


def test_ladder_validation(tanh_cfg):
    with pytest.raises(nf.TimeOrderError):
        nf.approximate_pullback_attractor(0.0, tanh_cfg, 2, tau_ladder=(1.0, -2.0))
    with pytest.raises(ValueError):
        nf.approximate_pullback_attractor(0.0, tanh_cfg, 2, tau_ladder=(-2.0, -1.0))
    with pytest.raises(ValueError):
        nf.approximate_pullback_attractor(0.0, tanh_cfg, 2, tau_ladder=())


def test_batched_endpoints_match_single_evolve(pulsed_cfg, corpus_factory):
    fields = corpus_factory(pulsed_cfg.grid, pulsed_cfg.weight, 4, seed=3)
    rows = _integrate(np.stack([u0.values for u0 in fields]), -2.0, 0.0, pulsed_cfg)
    assert len(rows) == len(fields)
    for row, u0 in zip(rows, fields):
        assert np.array_equal(row, nf.evolve(u0, -2.0, 0.0, pulsed_cfg).values)


def test_batched_ladder_rows_match_single_rows(pulsed_cfg, corpus_factory):
    # the carried loop of a ladder treats every row on its own too
    fields = corpus_factory(pulsed_cfg.grid, pulsed_cfg.weight, 4, seed=3)
    rows = _integrate(np.stack([u0.values for u0 in fields]), -2.0, 0.0,
                      pulsed_cfg, carry=[])
    for row, u0 in zip(rows, fields):
        assert np.array_equal(row, _integrate(u0.values, -2.0, 0.0,
                                              pulsed_cfg, carry=[]))


def at_step(cfg, ladder, step, n_samples=6):
    """approximate_pullback_attractor with its ladder run at one given
    step, with no estimate of its error."""
    def search(family, taus, t, cfg):
        return _run_ladder(family, taus, t, cfg, step), step, math.nan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attractor, "_search", search)
        return nf.approximate_pullback_attractor(0.0, cfg, n_samples, ladder)


def at_dt(cfg, ladder, n_samples=6):
    """The ladder stepped at cfg.dt, as one fixed-step run."""
    return at_step(cfg, ladder, cfg.dt, n_samples)


def assert_rung_gaps_are_two_sided(cfg):
    # each rung's endpoint set is what a one-rung ladder returns for it
    ladder = (-1.0, -2.0, -4.0)
    sample = at_dt(cfg, ladder)
    assert len(sample.rung_gaps) == len(sample.taus) - 1 >= 1
    rungs = [at_dt(cfg, (tau,)) for tau in sample.taus]
    for gap, prev, cur in zip(sample.rung_gaps, rungs, rungs[1:]):
        both = max(nf.hausdorff_semidist(cur, prev, cfg.p),
                   nf.hausdorff_semidist(prev, cur, cfg.p))
        assert gap > 0.0
        assert gap == pytest.approx(both, rel=1e-15)


def test_rung_gaps_are_two_sided_semidistances():
    assert_rung_gaps_are_two_sided(
        small_cfg(p=2.5, field=nf.ExternalField("pulsed", 0.1, 1.0)))


def test_zero_field_rung_gaps_are_two_sided_semidistances():
    assert_rung_gaps_are_two_sided(small_cfg(p=2.5))


# the n_samples whose 5 constant levels give a ladder rungs that drop
# members: the two positive levels, and the two negative, end in one state
MERGING = 10


def rung_stacks(monkeypatch, cfg, ladder):
    """Run a ladder of MERGING samples; return the taus run and, per rung,
    how it ran, the stack of the rows it stepped and the indices of those
    it kept."""
    seen = []

    def spy_integrate(u, tau, t, cfg, observer=None, carry=None):
        seen.append(["continued" if carry else "restarted"])
        return _integrate(u, tau, t, cfg, observer, carry)

    def spy_dedup(rows, w, p):
        kept = _dedup(rows, w, p)
        seen[-1] += [rows.copy(), kept]
        return kept

    monkeypatch.setattr(attractor, "_integrate", spy_integrate)
    monkeypatch.setattr(attractor, "_dedup", spy_dedup)
    sample = at_dt(cfg, ladder, MERGING)
    return sample.taus, seen


def assert_rungs_match_restarts(monkeypatch, cfg, ladder):
    """The first rung steps all k members; every later rung, continued or
    restarted, steps the members the rung before it kept, and its rows are
    a whole-family restart's endpoints of those members, bit for bit;
    every rung keeps the restart's set.  Returns the taus run and how many
    rows each stepped."""
    taus, rungs = rung_stacks(monkeypatch, cfg, ladder)
    assert len(rungs) == len(taus)
    k = len(attractor._family(cfg, MERGING))
    rows = np.arange(k)  # the family indices of the rows the next rung steps
    for tau, (how, stepped, kept) in zip(taus, rungs):
        _, [(ref_how, ref_stepped, ref_kept)] = rung_stacks(monkeypatch, cfg, (tau,))
        assert ref_how == "restarted" and len(ref_stepped) == k
        assert len(stepped) == len(rows)
        assert np.array_equal(stepped, ref_stepped[rows])
        assert np.array_equal(stepped[kept], ref_stepped[ref_kept])
        rows = rows[kept]
    return taus, [len(stepped) for _, stepped, _ in rungs]


@pytest.mark.parametrize("weight", ["cauchy", "gaussian"])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("beta", [2.0, 0.5])
def test_zero_field_rungs_match_restarts(beta, p, weight, monkeypatch):
    # the ladder reaches a rung continued from a rung that dropped members
    cfg = small_cfg(beta=beta, p=p, weight=nf.WeightFunction(weight))
    taus, stepped = assert_rungs_match_restarts(monkeypatch, cfg,
                                                (-4.0, -8.0, -16.0, -24.0))
    assert len(taus) >= 3 and stepped[0] == 5 and stepped[-1] < 5


def test_pulsed_field_rungs_match_restarts(monkeypatch):
    # continuing the -4 rung over [-8, -4] would differ by about 0.007; the
    # -16 rung restarts the 3 rows the -8 rung kept
    cfg = small_cfg(field=nf.ExternalField("pulsed", 0.1, 1.0))
    ladder = (-4.0, -8.0, -16.0)
    taus, stepped = assert_rungs_match_restarts(monkeypatch, cfg, ladder)
    assert taus == ladder and stepped == [5, 5, 3]


def test_tail_step_rungs_match_restarts(monkeypatch):
    # every span ends in a shortened step, so the -8.07 rung's steps are not
    # the -4.03 rung's followed by the added span's (continuing would differ
    # by about 2.5e-10), and the -16.11 rung restarts the 3 rows -8.07 kept
    ladder = (-4.03, -8.07, -16.11)
    taus, stepped = assert_rungs_match_restarts(monkeypatch, small_cfg(), ladder)
    assert taus == ladder and stepped == [5, 5, 3]


CONTINUE_TAUS = (-4.0, -4.03, -6.283185307179586, -8.0, -8.07, -12.566370614359172,
                 -16.0, -16.4, -32.0)


@pytest.mark.parametrize("step", [0.05, 0.0625, 0.1, 0.4, 0.8])
def test_continues_follows_the_list_rule(step):
    # continuing is allowed exactly where the restart's list of steps is the
    # previous rung's list followed by the added span's
    cfg = replace(small_cfg(), dt=step)
    verdicts = []
    for t in (0.0, 0.01, 1.3):
        for i, prev_tau in enumerate(CONTINUE_TAUS):
            for tau in CONTINUE_TAUS[i + 1:]:
                rule = (list_schedule(tau, t, step) == list_schedule(prev_tau, t, step)
                        + list_schedule(tau, prev_tau, step))
                assert attractor._continues(tau, prev_tau, t, cfg) == rule, (t, prev_tau, tau)
                verdicts.append(rule)
    assert any(verdicts) and not all(verdicts)
    pulsed = replace(cfg, field=nf.ExternalField("pulsed", 0.1, 1.0))
    assert not attractor._continues(-8.0, -4.0, 0.0, pulsed)
    # the one exception: at t 1e4 the rungs -4.03 and 1e-13 below it have
    # the same span, so the list rule continues over no steps where a tail
    # ended the previous rung; restarting gives the same bytes
    tau, prev_tau, t = -4.03 - 1e-13, -4.03, 1e4
    assert list_schedule(tau, prev_tau, step) == []
    assert list_schedule(tau, t, step) == list_schedule(prev_tau, t, step)
    assert not attractor._continues(tau, prev_tau, t, cfg)


def test_zero_field_ladder_steps_only_the_deepest_span(monkeypatch):
    step = dynamics._step_raw
    steps = []

    def counting(cfg, t, u, delta, g0=None, slope=None):
        steps.append(delta)
        return step(cfg, t, u, delta, g0, slope)

    monkeypatch.setattr(dynamics, "_step_raw", counting)
    ladder = (-4.0, -8.0, -16.0)
    sample = at_dt(small_cfg(), ladder)
    assert sample.taus == ladder
    # restarting every rung would take 80 + 160 + 320
    assert len(steps) == 320


LADDER_FIELDS = [nf.ExternalField(), nf.ExternalField("pulsed", 0.1, 1.0)]


@pytest.mark.parametrize("field", LADDER_FIELDS, ids=["zero", "pulsed"])
def test_ladder_evaluates_g_once_per_step_plus_once_per_restart(field, monkeypatch,
                                                                 caplog):
    step, term = dynamics._step_raw, dynamics._nonlinear_term
    steps, evaluations = [], []

    def counting_step(*args):
        steps.append(args[3])
        return step(*args)

    def counting_term(*args, **kwargs):
        evaluations.append(args[1])
        return term(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_step_raw", counting_step)
    monkeypatch.setattr(dynamics, "_nonlinear_term", counting_term)
    with caplog.at_level(logging.INFO, logger="nlfield.attractor"):
        nf.approximate_pullback_attractor(0.0, small_cfg(field=field), 6,
                                          (-4.0, -8.0, -16.0), seed=4)
    restarts = sum(" restarted, " in r.getMessage() for r in caplog.records)
    # the whole step search: every ladder tried, and the reruns at twice the step
    assert restarts >= 2 and len(steps) > 10 * restarts
    assert len(evaluations) == len(steps) + restarts


@pytest.mark.parametrize("field", LADDER_FIELDS, ids=["zero", "pulsed"])
def test_each_restart_takes_a_trapezoid_first_step(field, monkeypatch):
    integrate = attractor._integrate
    first_steps = {"restarted": [], "continued": []}

    def spying(u, tau, t, cfg, observer=None, carry=None):
        how = "continued" if carry else "restarted"
        states = []
        out = integrate(u, tau, t, cfg, lambda now, v: states.append(v), carry)
        steps, tail = dynamics._step_schedule(tau, t, cfg.dt)
        delta = tail if steps == 1 and tail else cfg.dt
        trapezoid, _ = dynamics._step_raw(cfg, tau, u, delta)
        first_steps[how].append(np.array_equal(states[1], trapezoid))
        return out

    monkeypatch.setattr(attractor, "_integrate", spying)
    nf.approximate_pullback_attractor(0.0, small_cfg(field=field), 6,
                                      (-4.0, -8.0, -16.0), seed=4)
    assert len(first_steps["restarted"]) >= 2
    assert all(first_steps["restarted"])
    # a continued rung steps on with the G and slope it carries
    if field.family == "zero":
        assert first_steps["continued"] and not any(first_steps["continued"])
    else:
        assert first_steps["continued"] == []


def test_each_rung_logs_its_work(caplog):
    with caplog.at_level(logging.INFO, logger="nlfield.attractor"):
        ladder = (-4.0, -8.0, -16.0)
        cont = at_dt(small_cfg(), ladder, MERGING)
        rest = at_dt(small_cfg(field=nf.ExternalField("pulsed", 0.1, 1.0)), ladder, MERGING)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("rung ")]
    # the -16 rung steps on only the 3 members the -8 rung kept, continued
    # on the zero field and restarted under the pulse
    assert lines == [
        "rung tau=-4: 80 steps of 0.05 restarted, 5 members stepped, 5 kept, gap n/a",
        "rung tau=-8: 80 steps of 0.05 continued, 5 members stepped, 3 kept,"
        f" gap {cont.rung_gaps[0]:.6g}",
        f"rung tau=-16: 160 steps of 0.05 continued, 3 members stepped, {len(cont)} kept,"
        f" gap {cont.rung_gaps[1]:.6g}",
        "rung tau=-4: 80 steps of 0.05 restarted, 5 members stepped, 5 kept, gap n/a",
        "rung tau=-8: 160 steps of 0.05 restarted, 5 members stepped, 3 kept,"
        f" gap {rest.rung_gaps[0]:.6g}",
        f"rung tau=-16: 320 steps of 0.05 restarted, 3 members stepped, {len(rest)} kept,"
        f" gap {rest.rung_gaps[1]:.6g}",
    ]


# ---------------------------------------------------------------------------
# the ladder step search
# ---------------------------------------------------------------------------

def two_sided(a, b):
    return max(nf.hausdorff_semidist(a, b), nf.hausdorff_semidist(b, a))


def test_pulsed_ladder_accepts_a_coarse_step_within_tolerance():
    cfg = small_cfg(p=2.5, field=nf.ExternalField("pulsed", 0.1, 1.0))
    ladder = (-4.0, -8.0, -16.0)
    sample = nf.approximate_pullback_attractor(0.0, cfg, 6, ladder, seed=4)
    ref = at_dt(cfg, ladder)
    assert sample.step > cfg.dt
    assert 0.0 < sample.step_error <= attractor.LADDER_TOL
    assert sample.taus == ref.taus
    assert sample.converged == ref.converged
    assert two_sided(sample, ref) <= 2 * attractor.LADDER_TOL
    assert math.isnan(ref.step_error) and ref.step == cfg.dt


def test_zero_tolerance_falls_back_to_the_fixed_dt_ladder(monkeypatch, caplog):
    cfg = small_cfg(p=2.5, field=nf.ExternalField("pulsed", 0.1, 1.0))
    ladder = (-4.0, -8.0, -16.0)
    monkeypatch.setattr(attractor, "LADDER_TOL", 0.0)
    with caplog.at_level(logging.INFO, logger="nlfield.attractor"):
        sample = nf.approximate_pullback_attractor(0.0, cfg, 6, ladder, seed=4)
    ref = at_dt(cfg, ladder)
    assert sample.step == cfg.dt
    assert math.isnan(sample.step_error)
    assert (sample.taus, sample.rung_gaps) == (ref.taus, ref.rung_gaps)
    assert len(sample) == len(ref)
    for u, v in zip(sample.members, ref.members):
        assert np.array_equal(u.values, v.values)
    tried = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("ladder step ")]
    assert [line.split(":")[0] for line in tried] == [
        "ladder step 0.4", "ladder step 0.2", "ladder step 0.1", "ladder step 0.05"]
    assert all(line.endswith("halved") for line in tried[:-1])
    assert tried[-1] == "ladder step 0.05: no estimate, accepted"


def test_contraction_ladder_rejects_1_6_and_accepts_0_8(contraction_cfg, caplog):
    with caplog.at_level(logging.INFO, logger="nlfield.attractor"):
        sample = nf.approximate_pullback_attractor(0.0, contraction_cfg, 8, LADDER, seed=0)
    tried = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("ladder step ")]
    # 1.6 misses the tolerance at an estimate of 0.0123, and 0.8 meets it
    # at 7.1e-05
    assert tried == ["ladder step 1.6: estimate 0.0123, halved",
                     "ladder step 0.8: estimate 7.1e-05, accepted"]
    assert sample.step == 0.8
    assert sample.step_error <= attractor.LADDER_TOL
    assert sample.converged and sample.taus == LADDER


# name: (field, ladder, eps), each run at n_samples MERGING.  Each accepts
# its first step.  "zero" drops members at its first rung, so its 2h run
# starts from fewer rows; "pulsed" restarts -16 on the rows -8 kept; in
# "tail" the 2h run's -6 span ends in a shortened step, so its -12 rung
# restarts where the h run's continues, and the h run's -12 rung drops
# members.  With eps the sweep runs too, and its last ladder is the pulsed
# leg at eps 0.2, whose -16 rung restarts on the rows -8 kept.
ONE_RULE_CASES = {
    "zero": (nf.ExternalField(), (-8.0, -16.0, -32.0), None),
    "pulsed": (nf.ExternalField("pulsed", 0.1, 1.0), (-4.0, -8.0, -16.0), None),
    "tail": (nf.ExternalField(), (-6.0, -12.0, -24.0), None),
    "sweep leg": (nf.ExternalField("pulsed", 0.2, 1.0), (-4.0, -8.0, -16.0), [0.2, 0.0]),
}
ONE_RULE_IDS = list(ONE_RULE_CASES)


class Ladder(NamedTuple):
    family: np.ndarray  # the family _run_ladder was given
    t: float
    cfg: nf.ProcessConfig
    step: float
    rungs: list
    stacks: list  # per rung: how it ran and the rows it stepped


def traced_case(name):
    """Run a case; return the family and every ladder it ran."""
    field, ladder, eps = ONE_RULE_CASES[name]
    cfg = small_cfg(field=field)
    run_ladder, integrate = attractor._run_ladder, attractor._integrate
    ladders = []

    def spy_run_ladder(family, taus, t, cfg, step):
        ladders.append(Ladder(family, t, cfg, step, [], []))
        ladders[-1].rungs.extend(run_ladder(family, taus, t, cfg, step))
        return ladders[-1].rungs

    def spy_integrate(u, tau, t, cfg, observer=None, carry=None):
        ladders[-1].stacks.append(("continued" if carry else "restarted", u.copy()))
        return integrate(u, tau, t, cfg, observer, carry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attractor, "_run_ladder", spy_run_ladder)
        mp.setattr(attractor, "_integrate", spy_integrate)
        if eps is None:
            nf.approximate_pullback_attractor(0.0, cfg, MERGING, ladder)
        else:
            nf.upper_semicontinuity_sweep(0.0, cfg, eps, MERGING, ladder)
    fine, coarse = ladders[:2]
    assert coarse.step == 2.0 * fine.step and fine.step > cfg.dt
    return attractor._family(cfg, MERGING), ladders


# the restart line of _run_ladder, and two plants in its place: a restart
# of the whole family, as the h ladder once did, and a restart that drops
# the last of the rows the rung before kept
RESTART = '            start, stop, how, carry = family[rows], t, "restarted", []\n'
WHOLE_FAMILY = ('            start, stop, how, carry = family, t, "restarted", []\n'
                '            rows = np.arange(len(family))\n')
DROP_ONE = '            rows = rows[:-1] if rungs and len(rows) > 1 else rows\n' + RESTART


def planted_ladder(restart):
    """_run_ladder with its restart line replaced."""
    source = inspect.getsource(_run_ladder)
    assert source.count(RESTART) == 1
    namespace = {}
    exec(source.replace(RESTART, restart), vars(attractor), namespace)
    return namespace["_run_ladder"]


def assert_one_rule(family, ladders):
    """The h run's first rung steps the seeded family and the 2h run's the
    rows the h run's first rung kept; every ladder's first rung steps the
    family it was given, and every later rung the rows the rung before
    kept: their endpoints where it continues, the rows where it restarts."""
    fine, coarse = ladders[:2]
    assert np.array_equal(fine.family, family)
    assert np.array_equal(coarse.family, family[fine.rungs[0].rows])
    for ladder in ladders:
        assert len(ladder.stacks) == len(ladder.rungs)
        assert ladder.stacks[0][0] == "restarted"
        assert np.array_equal(ladder.stacks[0][1], ladder.family)
        for prev, (how, stepped) in zip(ladder.rungs, ladder.stacks[1:]):
            rows = prev.kept if how == "continued" else ladder.family[prev.rows]
            assert np.array_equal(stepped, rows)


def whole_family_rungs(family, ladder):
    """The ladder's rungs as one-rung ladders give them, each a restart of
    the whole seeded family, with the gaps between consecutive ones."""
    w = quad_weights(ladder.cfg.weight, ladder.cfg.grid)
    ref = []
    for rung in ladder.rungs:
        [one] = _run_ladder(family, [rung.tau], ladder.t, ladder.cfg, ladder.step)
        gap = attractor._two_sided(one.kept, ref[-1].kept, w, ladder.cfg.p) if ref else None
        ref.append(one._replace(gap=gap))
    return ref


def assert_whole_family_rungs(family, ladders):
    """Every rung keeps, bit for bit, the endpoints and the gap of
    whole-family restarts, and so the Richardson estimate is theirs."""
    refs = [whole_family_rungs(family, ladder) for ladder in ladders]
    for ladder, ref in zip(ladders, refs):
        assert [r.tau for r in ladder.rungs] == [r.tau for r in ref]
        for r, s in zip(ladder.rungs, ref):
            assert np.array_equal(r.kept, s.kept) and r.gap == s.gap
    cfg = ladders[0].cfg
    w = quad_weights(cfg.weight, cfg.grid)
    assert attractor._richardson(ladders[0].rungs, ladders[1].rungs, w, cfg.p) \
        == attractor._richardson(refs[0], refs[1], w, cfg.p)


@pytest.mark.parametrize("case", ONE_RULE_IDS)
def test_every_later_rung_steps_the_rows_the_rung_before_kept(case):
    family, ladders = traced_case(case)
    assert_one_rule(family, ladders)
    # some rung steps fewer rows than the seeded family
    assert min(len(stepped) for ladder in ladders for _, stepped in ladder.stacks) \
        < len(family)


@pytest.mark.parametrize("case", ONE_RULE_IDS)
def test_every_rung_equals_whole_family_restarts(case):
    assert_whole_family_rungs(*traced_case(case))


@pytest.mark.parametrize("case", ["pulsed", "sweep leg"])
def test_planted_restarts_trip_the_spy_or_the_reference(case, monkeypatch):
    # a whole-family restart keeps the reference's sets, so only the spy
    # sees it; a restart that drops a kept row changes the kept set
    monkeypatch.setattr(attractor, "_run_ladder", planted_ladder(WHOLE_FAMILY))
    family, ladders = traced_case(case)
    assert_whole_family_rungs(family, ladders)
    with pytest.raises(AssertionError):
        assert_one_rule(family, ladders)
    monkeypatch.setattr(attractor, "_run_ladder", planted_ladder(DROP_ONE))
    with pytest.raises(AssertionError):
        assert_whole_family_rungs(*traced_case(case))


def member_steps(records, family_rows=None):
    """The member-steps of the rung log lines: steps times members stepped,
    or, with family_rows, what restarts of the whole family would take."""
    rungs = [r.getMessage().split() for r in records
             if r.getMessage().startswith("rung tau=")]
    return sum(int(words[2]) * (family_rows if family_rows and words[6] == "restarted,"
                                else int(words[7])) for words in rungs)


@pytest.mark.parametrize("case", ONE_RULE_IDS)
def test_one_rule_steps_fewer_members_than_whole_family_restarts(case, caplog):
    # in "tail" every restart finds the whole family kept, so it saves nothing
    with caplog.at_level(logging.INFO, logger="nlfield.attractor"):
        family, _ = traced_case(case)
    steps, whole = member_steps(caplog.records), member_steps(caplog.records, len(family))
    assert steps == whole if case == "tail" else steps < whole


def test_sweep_searches_once_and_runs_every_leg_at_its_step(caplog):
    cfg = small_cfg(field=nf.ExternalField("pulsed", 0.2, 1.0))
    with caplog.at_level(logging.INFO, logger="nlfield.attractor"):
        curve = nf.upper_semicontinuity_sweep(0.0, cfg, [0.2, 0.0], 4,
                                              (-4.0, -8.0, -16.0), seed=0)
    lines = [r.getMessage() for r in caplog.records]
    tried = [i for i, line in enumerate(lines) if line.startswith("ladder step ")]
    accepted = lines[tried[-1]]
    assert accepted.endswith("accepted")
    assert all(lines[i].endswith("halved") for i in tried[:-1])
    step = accepted.split(":")[0].split()[-1]
    legs = [line for line in lines[tried[-1] + 1:] if line.startswith("rung ")]
    assert legs and all(f" steps of {step} " in line for line in legs)
    assert curve.distances[-1] == 0.0
    assert curve.distances[0] > 0.0
    # one line per leg: its eps, how it ran, the step, its rungs, its distance
    assert [line for line in lines if line.startswith("sweep eps=")] == [
        f"sweep eps=0.2: ran its own ladder at step {step}, {len(legs)} rungs,"
        f" distance {curve.distances[0]:.6g}",
        f"sweep eps=0: reused the unperturbed run at step {step}, {len(legs)} rungs,"
        " distance 0",
    ]


@pytest.mark.parametrize("field", [nf.ExternalField(), nf.ExternalField("pulsed", 0.0)],
                         ids=["zero", "zero-amplitude pulse"])
def test_sweep_on_an_unscaled_field_runs_only_the_step_search(field, monkeypatch,
                                                              caplog):
    # scaling leaves these fields as they are, so every leg reuses the
    # unperturbed run and no ladder runs outside the step search
    search, run_ladder = attractor._search, attractor._run_ladder
    depth, in_search = [], []

    def spy_search(*args):
        depth.append(None)
        try:
            return search(*args)
        finally:
            depth.pop()

    def spy_run_ladder(*args, **kwargs):
        in_search.append(bool(depth))
        return run_ladder(*args, **kwargs)

    monkeypatch.setattr(attractor, "_search", spy_search)
    monkeypatch.setattr(attractor, "_run_ladder", spy_run_ladder)
    with caplog.at_level(logging.INFO, logger="nlfield.attractor"):
        curve = nf.upper_semicontinuity_sweep(0.0, small_cfg(field=field),
                                              [0.4, 0.2, 0.0], 4,
                                              (-4.0, -8.0, -16.0), seed=0)
    assert len(in_search) >= 2 and all(in_search)
    assert curve.distances == (0.0, 0.0, 0.0)
    assert all(curve.converged)
    legs = [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("sweep eps=")]
    assert len(legs) == 3 and all(" reused the unperturbed run " in m for m in legs)


@pytest.mark.parametrize("ladder", [(-4.0, -8.0, -16.0), (-1.0, -2.0)],
                         ids=["converged", "every member kept"])
def test_sweep_legs_match_fixed_step_samples(ladder):
    # each leg is the ladder of its scaled field at the base step, from
    # the base's family, measured against the base's endpoints; a converged
    # ladder keeps one member per state, so the short one, which keeps
    # every member, checks the rest too
    cfg = small_cfg(field=nf.ExternalField("pulsed", 0.2, 1.0))
    epsilons = [0.4, 0.2, 0.0]
    curve = nf.upper_semicontinuity_sweep(0.0, cfg, epsilons, 4, ladder, seed=0)
    base = nf.approximate_pullback_attractor(0.0, cfg, 4, ladder, seed=0)
    for eps, dist, converged in zip(epsilons, curve.distances, curve.converged):
        leg = replace(cfg, field=cfg.field.scaled(1.0 - eps))
        sample = at_step(leg, ladder, base.step, n_samples=4)
        assert dist == nf.hausdorff_semidist(sample, base, cfg.p)
        assert converged == (sample.converged and base.converged)
    assert curve.distances[0] > curve.distances[1] > curve.distances[2] == 0.0


@pytest.mark.parametrize("field, warnings", [
    (nf.ExternalField(), 1), (nf.ExternalField("pulsed", 0.2, 1.0), 2)],
    ids=["zero", "pulsed"])
def test_each_unstabilized_sweep_ladder_warns_once(field, warnings, caplog):
    # the unperturbed ladder warns, and so does each leg that runs its own
    with caplog.at_level(logging.WARNING, logger="nlfield.attractor"):
        curve = nf.upper_semicontinuity_sweep(0.0, small_cfg(field=field),
                                              [0.2, 0.0], 4, (-0.5, -1.0), seed=0)
    assert curve.converged == (False, False)
    assert caplog.text.count("tau ladder exhausted without stabilization") == warnings


# ---------------------------------------------------------------------------
# semicontinuity sweep
# ---------------------------------------------------------------------------

def test_sweep_shapes_and_exact_zero(sweep_curve):
    curve = sweep_curve
    assert curve.epsilons == (0.4, 0.2, 0.1, 0.05, 0.0)
    assert len(curve.distances) == len(curve.epsilons)
    assert len(curve.envelopes) == len(curve.epsilons)
    assert len(curve.converged) == len(curve.epsilons)
    assert curve.distances[-1] == 0.0
    assert all(d >= 0.0 for d in curve.distances)
    assert all(d <= e for d, e in zip(curve.distances, curve.envelopes))


def test_sweep_converged_flags(sweep_curve):
    assert all(sweep_curve.converged)


def test_sweep_on_gaussian_weight_has_no_finite_envelope(caplog):
    # the gaussian weight has no finite K, and the Cauchy weight's rate at
    # beta 2 (29.45) overflows exp past horizon 24, so either way the
    # continuity envelope is inf at every nonzero gap, with one warning per
    # sweep, not one per leg; a zero gap stays 0 below the dedup tolerance
    field = nf.ExternalField("pulsed", 0.2, 1.0)
    for weight, ladder, warning in (
            (nf.WeightFunction.gaussian(), (-4.0, -8.0, -16.0),
             "inf at horizon 16 on the gaussian weight"),
            (nf.WeightFunction.cauchy(), (-25.0, -26.0),
             "inf at horizon 26 on the cauchy weight")):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            curve = nf.upper_semicontinuity_sweep(0.0, small_cfg(weight=weight, field=field),
                                                  [0.2, 0.1, 0.0], 4, ladder, seed=0)
        assert curve.envelopes[:2] == (math.inf, math.inf)
        assert curve.envelopes[2] - attractor.DEDUP_TOL == 0.0
        assert curve.distances[2] == 0.0
        assert all(curve.converged)
        assert caplog.text.count(warning) == 1
        assert caplog.text.count("vacuous") == 1


def test_sweep_warns_once_when_only_its_larger_gaps_overflow(caplog):
    # at beta 3 the envelope's rate is 44.17, so at horizon 16.045 the gap
    # 0.05 * 0.4 stays finite (about 1.1e307) and the gaps 0.9 * 0.4 and
    # 0.4 overflow: one warning covers the sweep, not one per inf leg
    cfg = small_cfg(beta=3.0, field=nf.ExternalField("pulsed", 0.4, 1.0))
    with caplog.at_level(logging.WARNING):
        curve = nf.upper_semicontinuity_sweep(0.0, cfg, [1.0, 0.9, 0.05, 0.0], 2,
                                              (-4.0, -16.045), seed=0)
    assert curve.envelopes[:2] == (math.inf, math.inf)
    assert 1e306 < curve.envelopes[2] < math.inf
    assert caplog.text.count("vacuous") == 1
    assert "inf at horizon 16.045 on the cauchy weight" in caplog.text
