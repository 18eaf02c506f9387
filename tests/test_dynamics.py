"""Right-hand side, exponential integrator, and the v/w splitting."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlfield as nf
import nlfield.dynamics
from conftest import list_schedule
from nlfield.cli import parse_config
from nlfield.dynamics import MAX_STEPS, _integrate
from nlfield.weighted_space import quad_weights


def norm_of(values, like, p=2.0):
    return nf.weighted_norm(like.with_values(values), p)


class ConstantResponse(nf.Nonlinearity):
    """Test-local response g == value; violates g(0) = 0 on purpose."""

    def __init__(self, value):
        super().__init__("zero", sup_abs=abs(value), lipschitz=0.0,
                         curvature_max=0.0, deriv_at_zero=0.0)
        object.__setattr__(self, "value", value)

    def __call__(self, s, out=None):
        return np.full_like(np.asarray(s, dtype=float), self.value)


# ---------------------------------------------------------------------------
# nonlinearity and field families
# ---------------------------------------------------------------------------

def test_tanh_constants():
    g = nf.Nonlinearity.tanh()
    assert (g.sup_abs, g.lipschitz, g.deriv_at_zero) == (1.0, 1.0, 1.0)
    assert g.curvature_max == nf.K1_TANH
    assert nf.K1_TANH == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)), rel=1e-15)
    g.check_axioms(np.random.default_rng(0))


def test_curvature_constant_is_sharp():
    # max |g''| for tanh sits at s = artanh(1/sqrt(3))
    g = nf.Nonlinearity.tanh()
    s = np.linspace(-3.0, 3.0, 200001)
    second = np.gradient(np.gradient(np.tanh(s), s), s)
    assert np.max(np.abs(second)) == pytest.approx(g.curvature_max, abs=1e-5)


def test_zero_and_constant_families():
    z = nf.Nonlinearity.zero()
    assert np.all(z(np.linspace(-5, 5, 11)) == 0.0)
    z.check_axioms(np.random.default_rng(1))
    c = ConstantResponse(0.7)
    assert np.all(c(np.linspace(-5, 5, 11)) == 0.7)
    with pytest.raises(ValueError, match="g\\(0\\) must vanish"):
        c.check_axioms(np.random.default_rng(2))
    with pytest.raises(ValueError):
        nf.Nonlinearity("bogus", 1.0, 1.0, 1.0, 1.0)


def test_doubled_deriv_trips_check_axioms(monkeypatch):
    true_deriv = nf.Nonlinearity.deriv
    monkeypatch.setattr(nf.Nonlinearity, "deriv",
                        lambda self, s: 2.0 * true_deriv(self, s))
    with pytest.raises(ValueError, match="g' disagrees with a centered difference"):
        nf.Nonlinearity.tanh().check_axioms(np.random.default_rng(0))


def test_external_field_properties():
    h = nf.ExternalField("pulsed", 0.2, 1.0)
    t = np.linspace(0.0, 20.0, 41)
    for ti in t:
        assert h(ti, 0.0) == 0.0
        s = np.linspace(-4.0, 4.0, 101)
        vals = h(ti, s)
        assert np.all(vals >= 0.0) and np.all(vals <= 0.2)
    assert h.sup == 0.2
    assert h.lipschitz == pytest.approx(0.2 * nf.K1_TANH, rel=1e-12)
    half = h.scaled(0.5)
    assert half.amplitude == 0.1 and half.family == "pulsed"
    zero = nf.ExternalField()
    assert zero.sup == 0.0 and zero.lipschitz == 0.0
    # the zero family holds amplitude 0, so scaling leaves it unchanged
    assert zero.scaled(0.6) == zero
    with pytest.raises(ValueError):
        nf.ExternalField("windy", 0.1)
    with pytest.raises(ValueError):
        nf.ExternalField("pulsed", -0.1)


@pytest.mark.parametrize("amplitude,omega", [
    (math.nan, 1.0), (math.inf, 1.0), (0.2, math.nan), (0.2, math.inf),
], ids=["amplitude-nan", "amplitude-inf", "omega-nan", "omega-inf"])
def test_external_field_rejects_non_finite_parameters(amplitude, omega):
    # unchecked, a NaN amplitude passes amplitude < 0 and check_axioms, and h is NaN
    with pytest.raises(ValueError, match="must be finite"):
        nf.ExternalField("pulsed", amplitude, omega)


@pytest.mark.parametrize("key", ["sup_abs", "lipschitz", "curvature_max",
                                 "deriv_at_zero"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_nonlinearity_rejects_non_finite_constants(key, value):
    constants = dict(sup_abs=1.0, lipschitz=1.0, curvature_max=nf.K1_TANH,
                     deriv_at_zero=1.0)
    constants[key] = value
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        nf.Nonlinearity("tanh", **constants)


@pytest.mark.parametrize("field", [nf.ExternalField(),
                                   nf.ExternalField("pulsed", 0.2, 1.0),
                                   nf.ExternalField("pulsed", 0.43, 0.0),
                                   nf.ExternalField("pulsed", 0.0, 0.9)])
def test_external_field_check_axioms_passes_on_the_families(field):
    field.check_axioms(np.random.default_rng(0))


def pulse(self, t):
    return self.amplitude * 0.5 * (1.0 + math.sin(self.omega * t))


@pytest.mark.parametrize("call, prop, axiom", [
    # the tanh^2 factor dropped: h(t, 0) is the pulse itself
    (lambda self, t, s: pulse(self, t) * np.ones_like(s), None, "h\\(t, 0\\) must vanish"),
    # a stated sup half the true one
    (None, ("sup", lambda self: 0.5 * self.amplitude), "\\|h\\| exceeds sup"),
    # a stated s-Lipschitz constant a tenth of the true one
    (None, ("lipschitz", lambda self: 0.1 * self.amplitude * nf.K1_TANH),
     "s-Lipschitz constant violated"),
], ids=["h(t,0)", "sup", "lipschitz"])
def test_planted_field_defects_trip_check_axioms(call, prop, axiom, monkeypatch):
    if call is not None:
        monkeypatch.setattr(nf.ExternalField, "__call__", call)
    if prop is not None:
        monkeypatch.setattr(nf.ExternalField, prop[0], property(prop[1]))
    with pytest.raises(ValueError, match=axiom):
        nf.ExternalField("pulsed", 0.2, 1.0).check_axioms(np.random.default_rng(0))


def test_process_config_validation(grid, cauchy, kernel):
    g = nf.Nonlinearity.tanh()
    with pytest.raises(ValueError):
        nf.ProcessConfig(beta=0.0, p=2.0, grid=grid, weight=cauchy, kernel=kernel,
                         nonlinearity=g, field=nf.ExternalField(), dt=0.05)
    with pytest.raises(ValueError):
        nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy, kernel=kernel,
                         nonlinearity=g, field=nf.ExternalField(), dt=0.0)


@pytest.mark.parametrize("name", ["beta", "dt"])
def test_process_config_rejects_an_infinite_gain_or_step(tanh_cfg, name):
    # an infinite dt schedules no step, so evolve would hand back its start
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        dataclasses.replace(tanh_cfg, **{name: math.inf})


def test_config_digest_sensitivity(tanh_cfg, contraction_cfg):
    assert tanh_cfg.digest() == tanh_cfg.digest()
    assert tanh_cfg.digest() != contraction_cfg.digest()
    assert tanh_cfg.digest() != dataclasses.replace(tanh_cfg, dt=0.025).digest()


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_zero_equilibrium(tanh_cfg, pulsed_cfg):
    u = nf.WeightedField(tanh_cfg.grid, tanh_cfg.weight,
                         np.zeros(tanh_cfg.grid.n_points))
    for cfg in (tanh_cfg, pulsed_cfg):
        out = nf.rhs_f(1.7, u, cfg)
        assert np.all(out.values == 0.0)


def test_rhs_constant_fixed_point(tanh_cfg, s_star):
    u = nf.WeightedField(tanh_cfg.grid, tanh_cfg.weight,
                         np.full(tanh_cfg.grid.n_points, s_star))
    out = nf.rhs_f(0.0, u, tanh_cfg)
    interior = tanh_cfg.grid.interior_mask()
    assert np.max(np.abs(out.values[interior])) < 1e-6


def test_rhs_matches_naive_reimplementation(pulsed_cfg, corpus_factory):
    cfg = pulsed_cfg
    u = corpus_factory(cfg.grid, cfg.weight, 1, seed=21)[0]
    t = 0.3
    got = nf.rhs_f(t, u, cfg).values

    kern = cfg.kernel
    m = kern.half_width
    padded = np.concatenate([np.zeros(m), u.values, np.zeros(m)])
    expected = np.empty_like(u.values)
    for j in range(cfg.grid.n_points):
        conv = float(np.dot(kern.samples[::-1], padded[j:j + 2 * m + 1])) * cfg.grid.spacing
        hval = cfg.field(t, u.values[j])
        expected[j] = -u.values[j] + math.tanh(cfg.beta * conv + cfg.beta * hval)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_rhs_rejects_foreign_grid(tanh_cfg, fine_grid, cauchy):
    u = nf.WeightedField(fine_grid, cauchy, np.zeros(fine_grid.n_points))
    with pytest.raises(nf.GridMismatchError):
        nf.rhs_f(0.0, u, tanh_cfg)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------

def test_step_pure_decay_exact(grid, cauchy, kernel, corpus_factory):
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy, kernel=kernel,
                           nonlinearity=nf.Nonlinearity.zero(),
                           field=nf.ExternalField(), dt=0.05)
    u = corpus_factory(grid, cauchy, 1, seed=22)[0]
    out = nf.step_exponential(nf.TrajectoryState(0.0, u), cfg)
    assert out.t == 0.05
    assert np.max(np.abs(out.u.values - math.exp(-0.05) * u.values)) < 1e-14


def test_step_constant_forcing_closed_form(grid, cauchy, kernel, corpus_factory):
    c = 0.8
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy, kernel=kernel,
                           nonlinearity=ConstantResponse(c),
                           field=nf.ExternalField(), dt=0.05)
    u = corpus_factory(grid, cauchy, 1, seed=23)[0]
    out = nf.step_exponential(nf.TrajectoryState(0.0, u), cfg, delta=0.3)
    expected = math.exp(-0.3) * u.values + c * (1.0 - math.exp(-0.3))
    assert np.max(np.abs(out.u.values - expected)) < 1e-10


def test_step_validation(tanh_cfg, fine_grid, cauchy, corpus_factory):
    u = corpus_factory(tanh_cfg.grid, cauchy, 1, seed=24)[0]
    with pytest.raises(ValueError):
        nf.step_exponential(nf.TrajectoryState(0.0, u), tanh_cfg, delta=-0.1)
    v = nf.WeightedField(fine_grid, cauchy, np.zeros(fine_grid.n_points))
    with pytest.raises(nf.GridMismatchError):
        nf.step_exponential(nf.TrajectoryState(0.0, v), tanh_cfg)


@pytest.mark.parametrize("cfg_name", ["tanh_cfg", "pulsed_cfg"])
def test_self_convergence_second_order(cfg_name, request, corpus_factory):
    cfg = request.getfixturevalue(cfg_name)
    u0 = corpus_factory(cfg.grid, cfg.weight, 2, seed=0)[1]

    def endpoint(dt):
        return nf.evolve(u0, 0.0, 2.0, dataclasses.replace(cfg, dt=dt))

    ref = endpoint(0.05 / 8.0)
    e1 = norm_of(endpoint(0.05).values - ref.values, u0)
    e2 = norm_of(endpoint(0.025).values - ref.values, u0)
    assert 3.5 <= e1 / e2 <= 4.5


# weighted l^2 endpoint error of the shipped stepper at each step h, on the
# configs/sweep.yaml process at n = 1024 from a constant 0.5 start over
# [0, 8], against a dt = 0.003125 reference.  An order test cannot see a
# wrong error constant: swapping w1 and w2 in _phi_weights keeps their sum
# and the second order, and reads 2.08e-4, 5.29e-5 and 1.34e-5.
STEP_ERRORS = {0.4: 8.90e-5, 0.2: 2.28e-5, 0.1: 5.76e-6}
# the same errors when the steps carry G and its slope, as a ladder's do
# (one G evaluation per step, exponential AB2 predictor); swapped weights
# read 1.74e-4, 4.45e-5 and 1.13e-5 there
LADDER_STEP_ERRORS = {0.4: 5.56e-5, 0.2: 1.45e-5, 0.1: 3.75e-6}
STEP_ERROR_SLACK = 1.5


def step_errors(ladder=False):
    text = (Path(__file__).parent.parent / "configs" / "sweep.yaml").read_text()
    cfg = parse_config(text.replace("n_points: 4096", "n_points: 1024")).process
    assert cfg.grid.n_points == 1024
    u0 = nf.WeightedField(cfg.grid, cfg.weight, np.full(cfg.grid.n_points, 0.5))

    def endpoint(dt):
        return nf.evolve(u0, 0.0, 8.0, dataclasses.replace(cfg, dt=dt)).values

    def ladder_endpoint(dt):
        return nlfield.dynamics._integrate(u0.values.copy(), 0.0, 8.0,
                                           dataclasses.replace(cfg, dt=dt), carry=[])

    ref = endpoint(0.003125)
    run = ladder_endpoint if ladder else endpoint
    return {h: norm_of(run(h) - ref, u0) for h in STEP_ERRORS}


def within_pin(errors, pin=STEP_ERRORS):
    return all(pin[h] / STEP_ERROR_SLACK <= e <= pin[h] * STEP_ERROR_SLACK
               for h, e in errors.items())


def test_stepper_error_constant_is_pinned():
    assert within_pin(step_errors())


def test_ladder_stepper_error_constant_is_pinned():
    errors = step_errors(ladder=True)
    assert within_pin(errors, LADDER_STEP_ERRORS)
    # still second order, and below the trapezoid's constant
    assert all(e < STEP_ERRORS[h] for h, e in errors.items())


def swap_quadrature_weights(monkeypatch):
    phi = nlfield.dynamics._phi_weights

    def swapped(delta):
        em, w1, w2 = phi(delta)
        return em, w2, w1

    monkeypatch.setattr(nlfield.dynamics, "_phi_weights", swapped)


def test_swapped_quadrature_weights_trip_the_error_pin(monkeypatch):
    swap_quadrature_weights(monkeypatch)
    errors = step_errors()
    assert not within_pin(errors)
    assert all(e > STEP_ERRORS[h] * STEP_ERROR_SLACK for h, e in errors.items())


def test_swapped_quadrature_weights_trip_the_ladder_error_pin(monkeypatch):
    swap_quadrature_weights(monkeypatch)
    errors = step_errors(ladder=True)
    assert not within_pin(errors, LADDER_STEP_ERRORS)
    assert all(e > LADDER_STEP_ERRORS[h] * STEP_ERROR_SLACK for h, e in errors.items())


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_identity_at_equal_times(tanh_cfg, corpus_factory):
    u = corpus_factory(tanh_cfg.grid, tanh_cfg.weight, 1, seed=25)[0]
    out = nf.evolve(u, 3.0, 3.0, tanh_cfg)
    assert out is not u
    assert np.array_equal(out.values, u.values)


def test_evolve_rejects_backward_time(tanh_cfg, corpus_factory):
    u = corpus_factory(tanh_cfg.grid, tanh_cfg.weight, 1, seed=26)[0]
    with pytest.raises(nf.TimeOrderError):
        nf.evolve(u, 1.0, 0.5, tanh_cfg)


@pytest.mark.parametrize("call", [
    lambda u, cfg: nf.evolve(u, 0.0, math.nan, cfg),
    lambda u, cfg: nf.evolve(u, math.nan, 1.0, cfg),
    lambda u, cfg: nf.approximate_pullback_attractor(math.nan, cfg, 2, (-1.0,)),
    lambda u, cfg: nf.approximate_pullback_attractor(0.0, cfg, 2, (-1.0, math.nan)),
    lambda u, cfg: nf.upper_semicontinuity_sweep(0.0, cfg, [0.0], 2, (math.nan,)),
], ids=["evolve-nan-t", "evolve-nan-tau", "attractor-nan-t", "attractor-nan-rung",
        "sweep-nan-rung"])
def test_nan_time_raises_time_order_error_naming_the_span(call, tanh_cfg,
                                                          corpus_factory):
    u = corpus_factory(tanh_cfg.grid, tanh_cfg.weight, 1, seed=26)[0]
    with pytest.raises(nf.TimeOrderError, match="the span from tau=.* to t=.* is not a number"):
        call(u, tanh_cfg)


@pytest.mark.parametrize("cfg_name", ["tanh_cfg", "pulsed_cfg"])
def test_evolve_composition_at_step_boundary(cfg_name, request, corpus_factory):
    cfg = request.getfixturevalue(cfg_name)
    u = corpus_factory(cfg.grid, cfg.weight, 1, seed=27)[0]
    direct = nf.evolve(u, 0.0, 2.0, cfg)
    mid = nf.evolve(u, 0.0, 1.0, cfg)
    chained = nf.evolve(mid, 1.0, 2.0, cfg)
    assert np.max(np.abs(direct.values - chained.values)) < 1e-12


def test_evolve_partial_final_step(grid, cauchy, kernel, corpus_factory):
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy, kernel=kernel,
                           nonlinearity=nf.Nonlinearity.zero(),
                           field=nf.ExternalField(), dt=0.05)
    u = corpus_factory(grid, cauchy, 1, seed=28)[0]
    times = []
    out = nf.evolve(u, 0.0, 0.17, cfg, observer=lambda t, vals: times.append(t))
    assert times[-1] == pytest.approx(0.17, abs=1e-12)
    assert len(times) == 5  # tau plus three full steps plus the shortened tail
    assert np.max(np.abs(out.values - math.exp(-0.17) * u.values)) < 1e-14


def test_evolve_time_from_step_index(cauchy):
    grid = nf.Grid1D(10.0, 512)
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy,
                           kernel=nf.make_bump_kernel(grid),
                           nonlinearity=nf.Nonlinearity.tanh(),
                           field=nf.ExternalField("pulsed", 0.2, 1.0), dt=0.05)
    u = nf.WeightedField(grid, cauchy, np.full(grid.n_points, 0.5))
    for tau, t in ((-32.0, 0.0), (0.0, 0.17)):
        times = []
        nf.evolve(u, tau, t, cfg, observer=lambda s, vals: times.append(s))
        assert all(s == tau + i * cfg.dt for i, s in enumerate(times[:-1]))
        assert times[-1] == t


def schedule_cfg(cauchy):
    # a pulsed field, so that every step reads the time it starts from
    grid = nf.Grid1D(10.0, 256)
    return nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy,
                            kernel=nf.make_bump_kernel(grid),
                            nonlinearity=nf.Nonlinearity.tanh(),
                            field=nf.ExternalField("pulsed", 0.2, 1.0), dt=0.05)


SCHEDULE_SPANS = [
    pytest.param(0.0, 4.0, id="whole-4"),
    pytest.param(-32.0, 0.0, id="whole-32"),
    pytest.param(-1.3, 0.2, id="whole-inexact"),
    pytest.param(0.0, 4.03, id="4.03"),
    pytest.param(-8.07, 0.0, id="8.07"),
    pytest.param(0.0, 4.0 + 2e-9, id="tail-above-1e-9"),
    pytest.param(0.0, 4.0 + 5e-10, id="tail-below-1e-9"),
    pytest.param(0.0, 4.0 - 1e-12, id="just-short-of-whole"),
    pytest.param(0.3, 0.3, id="zero"),
    pytest.param(0.3, 0.3 + 1e-13, id="below-1e-12"),
]


@pytest.mark.parametrize("carried", [False, True], ids=["trapezoid", "carried"])
@pytest.mark.parametrize("tau,t", SCHEDULE_SPANS)
def test_schedule_takes_the_steps_of_the_list_rule(tau, t, carried, cauchy, monkeypatch):
    cfg = schedule_cfg(cauchy)
    step = nlfield.dynamics._step_raw
    taken = []

    def spying(cfg, now, u, delta, g0=None, slope=None):
        taken.append((now, delta))
        return step(cfg, now, u, delta, g0, slope)

    monkeypatch.setattr(nlfield.dynamics, "_step_raw", spying)
    times = []
    _integrate(np.full(cfg.grid.n_points, 0.5), tau, t, cfg,
               lambda s, vals: times.append(s), [] if carried else None)
    deltas = list_schedule(tau, t, cfg.dt)
    # the list rule's observer times: tau + i dt, and t after the last step
    expected = ([tau] + [tau + i * cfg.dt for i in range(1, len(deltas))]
                + ([t] if deltas else []))
    assert [delta for _, delta in taken] == deltas
    assert [now for now, _ in taken] == expected[:-1]
    assert times == expected


def test_evolve_refuses_more_than_max_steps(tanh_cfg, corpus_factory, monkeypatch):
    def refuse(*args):
        raise AssertionError("a step was taken")

    # with the limit dropped the first step fails at once, instead of looping
    monkeypatch.setattr(nlfield.dynamics, "_step_raw", refuse)
    u = corpus_factory(tanh_cfg.grid, tanh_cfg.weight, 1, seed=26)[0]
    seen = []
    with pytest.raises(nf.TimeOrderError, match="needs 1e\\+09 steps of dt 0.05"):
        nf.evolve(u, 0.0, 1e9 * tanh_cfg.dt, tanh_cfg, lambda s, vals: seen.append(s))
    assert seen == []
    # a span of exactly MAX_STEPS steps passes the schedule
    with pytest.raises(AssertionError, match="a step was taken"):
        nf.evolve(u, 0.0, MAX_STEPS * tanh_cfg.dt, tanh_cfg)


def test_a_long_span_takes_no_memory_per_step(cauchy):
    cfg = schedule_cfg(cauchy)
    u = np.full(cfg.grid.n_points, 0.5)

    class Stop(Exception):
        pass

    def stop_after_one_step(s, vals):
        if s > 0.0:
            raise Stop

    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            _integrate(u, 0.0, 1e7 * cfg.dt, cfg, stop_after_one_step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of the 1e7 step sizes alone takes 80 MB
    assert peak < 2**20


# ---------------------------------------------------------------------------
# observer hand-off and the finite guard
# ---------------------------------------------------------------------------

def handed_rows_are_unchanged(cfg, u0, carried):
    """_integrate hands its observer rows without a copy; each must still
    equal the copy taken at hand-off once the run is over."""
    seen = []
    end = _integrate(u0, 0.0, 0.5, cfg, lambda s, vals: seen.append((vals, vals.copy())),
                     [] if carried else None)
    assert len(seen) == 11 and seen[-1][0] is end
    return all(np.array_equal(vals, kept) for vals, kept in seen)


@pytest.mark.parametrize("carried", [False, True], ids=["trapezoid", "carried"])
@pytest.mark.parametrize("rows", [1, 3])
def test_integrate_never_writes_a_row_it_handed_over(rows, carried, pulsed_cfg,
                                                      corpus_factory):
    fields = corpus_factory(pulsed_cfg.grid, pulsed_cfg.weight, rows, seed=34)
    u0 = fields[0].values if rows == 1 else np.stack([f.values for f in fields])
    assert handed_rows_are_unchanged(pulsed_cfg, u0, carried)


@pytest.mark.parametrize("carried", [False, True], ids=["trapezoid", "carried"])
def test_a_stepper_reusing_its_output_trips_the_hand_off_check(carried, pulsed_cfg,
                                                               corpus_factory,
                                                               monkeypatch):
    # planted: every step returns one shared buffer, so each row handed
    # over is overwritten by the steps after it
    step = nlfield.dynamics._step_raw
    buf = np.empty(pulsed_cfg.grid.n_points)

    def reusing(*args):
        u, g1 = step(*args)
        buf[...] = u
        return buf, g1

    monkeypatch.setattr(nlfield.dynamics, "_step_raw", reusing)
    u0 = corpus_factory(pulsed_cfg.grid, pulsed_cfg.weight, 1, seed=34)[0].values
    assert not handed_rows_are_unchanged(pulsed_cfg, u0, carried)


def test_evolve_observer_rows_survive_writes_to_its_result(pulsed_cfg, corpus_factory):
    u = corpus_factory(pulsed_cfg.grid, pulsed_cfg.weight, 1, seed=35)[0]
    seen = []
    out = nf.evolve(u, 0.0, 0.5, pulsed_cfg, observer=lambda s, vals: seen.append(vals))
    kept = [vals.copy() for vals in seen]
    assert np.array_equal(seen[-1], out.values)
    out.values[...] = 7.0
    u.values[...] = 7.0
    assert all(np.array_equal(vals, k) for vals, k in zip(seen, kept))


def guard_flags_a_last_bad_entry(guard, bad):
    stack = np.ones((3, 64))
    stack[-1, -1] = bad
    with pytest.raises(nf.BlowUpError):
        guard(stack)


def guard_passes_squares_past_the_float_range(guard):
    row = np.full(64, 1e200)
    row[::2] *= -1.0
    assert np.vdot(row, row) == math.inf
    guard(row)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_guard_finite_flags_the_last_entry_of_a_stack(bad):
    guard_flags_a_last_bad_entry(nlfield.dynamics._guard_finite, bad)


def test_guard_finite_passes_entries_whose_squares_overflow():
    guard_passes_squares_past_the_float_range(nlfield.dynamics._guard_finite)


def test_planted_guards_trip_the_guard_tests():
    def dot_only(vals):
        # planted: the one-pass sum of squares with no fallback
        if not math.isfinite(np.vdot(vals, vals)):
            raise nf.BlowUpError("planted")

    with pytest.raises(nf.BlowUpError, match="planted"):
        guard_passes_squares_past_the_float_range(dot_only)
    with pytest.raises(pytest.fail.Exception):
        guard_flags_a_last_bad_entry(lambda vals: None, math.nan)


def test_evolve_contracts_to_zero_for_small_gain(contraction_cfg, corpus_factory):
    u = corpus_factory(contraction_cfg.grid, contraction_cfg.weight, 1, seed=29)[0]
    u = u.with_values(2.0 * u.values / norm_of(u.values, u))
    out = nf.evolve(u, 0.0, 40.0, contraction_cfg)
    assert norm_of(out.values, u) <= 1e-3


def test_evolve_norm_decay_bound(tanh_cfg, corpus_factory):
    # along any run the norm sits under the decayed start plus the g-cap
    u = corpus_factory(tanh_cfg.grid, tanh_cfg.weight, 1, seed=30)[0]
    u = u.with_values(2.0 * u.values / norm_of(u.values, u))
    seen = []
    nf.evolve(u, 0.0, 6.0, tanh_cfg,
              observer=lambda t, vals: seen.append((t, norm_of(vals, u))))
    a = tanh_cfg.nonlinearity.sup_abs
    for t, n in seen:
        assert n <= math.exp(-t) * 2.0 + a + 1e-3


def test_mild_form_residual_second_order(tanh_cfg, corpus_factory):
    # reconstruct the variation-of-constants integral from observed states
    cfg = tanh_cfg
    u0 = corpus_factory(cfg.grid, cfg.weight, 1, seed=0)[0]
    times, snaps = [], []
    end = nf.evolve(u0, 0.0, 1.0, cfg,
                    observer=lambda t, vals: (times.append(t), snaps.append(vals)))
    T = times[-1]
    forcing = [np.tanh(cfg.beta * nf.convolve_fast(cfg.kernel, u0.with_values(v)).values)
               for v in snaps]
    integral = np.zeros_like(u0.values)
    for i in range(len(times) - 1):
        dt_i = times[i + 1] - times[i]
        integral += 0.5 * dt_i * (math.exp(-(T - times[i])) * forcing[i]
                                  + math.exp(-(T - times[i + 1])) * forcing[i + 1])
    recon = math.exp(-T) * u0.values + integral
    assert norm_of(end.values - recon, u0) <= 0.5 * cfg.dt**2


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_w_starts_at_zero_and_stays_bounded(tanh_cfg, corpus_factory):
    # w(s) = u(s) - exp(-s) u0 along 160 steps, read off the observed u
    cfg = tanh_cfg
    u = corpus_factory(cfg.grid, cfg.weight, 1, seed=33)[0]
    u = u.with_values(1.1 * u.values / norm_of(u.values, u))
    w_sup = []
    nf.evolve(u, 0.0, 160 * cfg.dt, cfg, observer=lambda s, vals: w_sup.append(
        float(np.max(np.abs(vals - math.exp(-s) * u.values)))))
    assert len(w_sup) == 1 + 160
    assert w_sup[0] == 0.0
    assert max(w_sup) <= cfg.nonlinearity.sup_abs + 1e-9
