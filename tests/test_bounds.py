"""Explicit-constant calculators and the inequality battery."""

import dataclasses
import json
import logging
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import nlfield as nf
import nlfield.bounds
import nlfield.dynamics
import nlfield.kernel
from nlfield.bounds import CHECK_NAMES, _field_corpus, _power_stack, _start
from nlfield.cli import parse_config
from nlfield.kernel import _fft_convolve
from nlfield.weighted_space import _lp_norm, quad_weights

OPERATOR_CHECKS = ["lemma1a", "lemma1a_deriv", "lemma1b", "prop_lipschitz"]
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# constant calculators
# ---------------------------------------------------------------------------

def test_rhs_lipschitz_constant_example(grid, cauchy, kernel):
    # amplitude chosen so the field Lipschitz constant is exactly 0.1
    amp = 0.1 / nf.K1_TANH
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy, kernel=kernel,
                           nonlinearity=nf.Nonlinearity.tanh(),
                           field=nf.ExternalField("pulsed", amp, 1.0), dt=0.05)
    stated = nf.lipschitz_constant_f(cfg)
    assert stated == pytest.approx(1.0 + 2.0 * math.sqrt(3.0) + 0.2, rel=1e-12)


def test_rhs_lipschitz_constant_degenerate_cases(tanh_cfg):
    stated = nf.lipschitz_constant_f(tanh_cfg)
    assert stated == pytest.approx(1.0 + 2.0 * math.sqrt(3.0), rel=1e-12)
    tiny = dataclasses.replace(tanh_cfg, beta=1e-15)
    stated_tiny = nf.lipschitz_constant_f(tiny)
    assert stated_tiny == pytest.approx(1.0, abs=1e-12)


def test_continuity_envelope_values(pulsed_cfg):
    m1 = 2.0 ** 1.5 * 2.0  # 2^((p+1)/p) * ell_g * beta at p = 2, beta = 2
    assert nf.continuity_envelope(pulsed_cfg, 1.0, 0.0) == pytest.approx(m1, rel=1e-12)
    assert nf.continuity_envelope(pulsed_cfg, 0.0, 5.0) == 0.0
    rate = math.log(nf.continuity_envelope(pulsed_cfg, 1.0, 1.0)
                    / nf.continuity_envelope(pulsed_cfg, 1.0, 0.0))
    assert rate == pytest.approx(29.45, abs=0.01)
    with pytest.raises(ValueError):
        nf.continuity_envelope(pulsed_cfg, 1.0, -1.0)
    with pytest.raises(ValueError):
        nf.continuity_envelope(pulsed_cfg, -0.1, 1.0)


def test_continuity_envelope_zero_gap_at_any_horizon(pulsed_cfg):
    # exp(29.45 * 32) is past the float range; a zero gap must not reach it
    assert nf.continuity_envelope(pulsed_cfg, 0.0, 32.0) == 0.0
    assert nf.continuity_envelope(pulsed_cfg, 0.0, 1e6) == 0.0


def test_continuity_envelope_overflow_is_inf_with_warning(pulsed_cfg, caplog):
    with caplog.at_level(logging.WARNING, logger="nlfield.bounds"):
        assert nf.continuity_envelope(pulsed_cfg, 0.02, 32.0) == math.inf
    assert "vacuous" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="nlfield.bounds"):
        assert math.isfinite(nf.continuity_envelope(pulsed_cfg, 0.02, 20.0))
    assert caplog.text == ""


def test_continuity_envelope_on_gaussian_weight_is_inf_with_warning(
        pulsed_cfg, gaussian, caplog):
    cfg = dataclasses.replace(pulsed_cfg, weight=gaussian)
    with caplog.at_level(logging.WARNING, logger="nlfield.bounds"):
        assert nf.continuity_envelope(cfg, 0.0, 32.0) == 0.0
    assert caplog.text == ""
    with caplog.at_level(logging.WARNING, logger="nlfield.bounds"):
        # inf even at horizon 0, where the Cauchy envelope is M1 h_gap
        assert nf.continuity_envelope(cfg, 0.02, 0.0) == math.inf
    assert "gaussian weight has no finite K" in caplog.text


def test_continuity_envelope_monotone(pulsed_cfg):
    horizons = [0.0, 0.5, 1.0, 2.0]
    vals = [nf.continuity_envelope(pulsed_cfg, 0.02, h) for h in horizons]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    gaps = [0.0, 0.01, 0.02, 0.05]
    vals = [nf.continuity_envelope(pulsed_cfg, g, 1.0) for g in gaps]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_gradient_bound_value(tanh_cfg, kernel):
    h_star = nf.tanh_h_star(2.0)
    bound = nf.c1_regularity_bound(tanh_cfg, h_star)
    expected = (1.0 * 2.0**2 * kernel.deriv_norm_l1
                * (1.0 * nf.K1_TANH * kernel.norm_l1 + 1.0 + h_star))
    assert bound == pytest.approx(expected, rel=1e-12)
    assert bound == pytest.approx(13.50, abs=0.01)
    tiny = dataclasses.replace(tanh_cfg, beta=1e-8)
    assert nf.c1_regularity_bound(tiny, h_star) < 1e-9
    # term isolation at zero threshold
    assert nf.c1_regularity_bound(tanh_cfg, 0.0) == pytest.approx(
        4.0 * kernel.deriv_norm_l1 * (nf.K1_TANH * kernel.norm_l1 + 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# verdict battery
# ---------------------------------------------------------------------------

def test_battery_all_pass_on_reference_config(battery_reports):
    assert [r.name for r in battery_reports] == list(CHECK_NAMES)
    for r in battery_reports:
        assert r.passed, f"{r.name}: measured {r.measured} vs {r.theoretical}"
        assert r.margin == r.theoretical - r.measured
        assert r.passed == (r.measured <= r.theoretical + r.tolerance)
        assert r.measured >= 0.0


def test_battery_specific_anchors(battery_reports, grid, cauchy, kernel):
    by_name = {r.name: r for r in battery_reports}
    # convolution norm checks are anchored at the cauchy admissibility constant
    assert by_name["lemma1a"].theoretical == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert by_name["lemma1a_deriv"].theoretical == pytest.approx(math.sqrt(3.0), rel=1e-12)
    # interior pointwise bound: Hoelder on the kernel window at p = 2,
    # ||J||_inf max_i (sum_{|j-i|<=m} dx / rho_j)^(1/2)
    m = kernel.half_width
    rho = cauchy(grid.nodes)
    window = max(float(np.sum(1.0 / rho[i - m:i + m + 1])) * grid.spacing
                 for i in np.flatnonzero(grid.interior_mask()))
    assert by_name["lemma1b"].theoretical == pytest.approx(
        kernel.norm_sup * math.sqrt(window), rel=1e-12)
    assert by_name["absorbing"].theoretical == 1.0
    assert by_name["w_bound"].theoretical == 1.0
    assert by_name["c1_attractor"].theoretical == pytest.approx(13.50, abs=0.01)


def test_verify_deterministic(tanh_cfg):
    a = nf.verify("lemma1a", tanh_cfg, seed=7)
    b = nf.verify("lemma1a", tanh_cfg, seed=7)
    assert a == b
    c = nf.verify("lemma1a", tanh_cfg, seed=8)
    assert c.measured != a.measured


def test_verify_and_battery_take_seed_by_keyword_only(tanh_cfg):
    # a positional third argument was the corpus size; it must not become
    # a seed unnoticed
    with pytest.raises(TypeError):
        nf.verify("lemma1a", tanh_cfg, 500)
    with pytest.raises(TypeError):
        nf.battery(tanh_cfg, ["lemma1a"], 500)
    assert "samples" not in {f.name for f in dataclasses.fields(nf.BoundReport)}


def test_c1_attractor_members_are_the_attractor_default():
    ref = resources.files("nlfield").joinpath("schema/config_schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    default = schema["properties"]["attractor"]["properties"]["n_samples"]["default"]
    assert nlfield.bounds._C1_MEMBERS == default


def test_verify_unknown_name(tanh_cfg):
    with pytest.raises(ValueError):
        nf.verify("lemma9z", tanh_cfg)


def test_battery_subset_selection(tanh_cfg):
    reports = nf.battery(tanh_cfg, names=["lemma1b", "prop_lipschitz"], seed=2)
    assert [r.name for r in reports] == ["lemma1b", "prop_lipschitz"]
    assert all(r.passed for r in reports)
    assert all(r.seed == 2 for r in reports)


def test_check_table_matches_schema_enum():
    ref = resources.files("nlfield").joinpath("schema/config_schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    enum = schema["properties"]["verify"]["properties"]["checks"]["items"]["enum"]
    assert tuple(enum) == CHECK_NAMES


def test_w_bound_matches_split_stepping_loop(cauchy):
    # reference: step u and the decaying part v = exp(-delta) v one step
    # at a time, and take the sup of w = u - v after every step
    grid = nf.Grid1D(50.0, 1024)
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy,
                           kernel=nf.make_bump_kernel(grid),
                           nonlinearity=nf.Nonlinearity.tanh(),
                           field=nf.ExternalField("pulsed", 0.2, 1.0), dt=0.05)
    seed = 3
    u0 = _start(cfg, seed, 1.1)
    state, v, worst = nf.TrajectoryState(0.0, u0), u0.values, 0.0
    for _ in range(160):  # the check's horizon 8 in steps of 0.05
        state = nf.step_exponential(state, cfg)
        v = math.exp(-cfg.dt) * v
        worst = max(worst, float(np.max(np.abs(state.u.values - v))))
    report = nf.verify("w_bound", cfg, seed=seed)
    assert worst > 0.1
    assert report.measured == pytest.approx(worst, rel=0, abs=1e-12)


def test_prop_lipschitz_trips_on_non_finite_field(tanh_cfg, monkeypatch):
    # planted defect: a field that returns NaN must not vanish into max()
    monkeypatch.setattr(nf.ExternalField, "__call__", lambda self, t, s: math.nan)
    with pytest.raises(nf.BlowUpError):
        nf.verify("prop_lipschitz", tanh_cfg, seed=0)


def test_gronwall_twin_field_gap_is_at_most_h_gap(tanh_cfg, monkeypatch):
    # a weak pulse at omega 0 is raised by h_gap; the twin keeps omega 0,
    # where a twin at omega 1 would differ by 0.0226 over [0, 1]
    base = dataclasses.replace(
        tanh_cfg, field=nf.ExternalField("pulsed", 0.01, omega=0.0))
    fields = []

    def recording(u0, tau, t, cfg, **kwargs):
        fields.append(cfg.field)
        return nlfield.dynamics.evolve(u0, tau, t, cfg, **kwargs)

    monkeypatch.setattr(nlfield.bounds, "evolve", recording)
    nf.verify("gronwall_continuity", base, seed=0)
    assert fields[0] == base.field
    # tanh(20)^2 rounds to 1, so h(t, 20) is the sup over s at time t
    gap = max(abs(fields[1](t, 20.0) - fields[0](t, 20.0))
              for t in np.linspace(0.0, 1.0, 201))
    assert gap <= 0.02 + 1e-15


# ---------------------------------------------------------------------------
# the operator checks
# ---------------------------------------------------------------------------

def small_cfg(cauchy, p):
    grid = nf.Grid1D(5.0, 128)
    return nf.ProcessConfig(beta=2.0, p=p, grid=grid, weight=cauchy,
                            kernel=nf.make_bump_kernel(grid),
                            nonlinearity=nf.Nonlinearity.tanh(),
                            field=nf.ExternalField(), dt=0.05)


@pytest.mark.parametrize("p", [54.0, 60.0])
def test_prop_lipschitz_past_p54_is_an_error_not_a_verdict(cauchy, p):
    # |.|^p underflows on the 1e-6 perturbation from p about 54 on, so a
    # ratio is inf or 0/0; a 0/0 must not vanish in a max and read 0
    with pytest.raises(nf.BlowUpError, match="prop_lipschitz"):
        nf.verify("prop_lipschitz", small_cfg(cauchy, p), seed=0)
    report = nf.verify("prop_lipschitz", small_cfg(cauchy, 50.0), seed=0)
    assert report.measured == pytest.approx(2.6131, abs=1e-4) and report.passed


def dense_operators(cfg):
    """name -> (apply, dense matrix, Young's bound at cfg.p) of J, J' and
    -I + beta J, the matrices built column by column from convolve_direct."""
    k, n = cfg.kernel, cfg.grid.n_points
    deriv = dataclasses.replace(k, samples=k.deriv_samples)
    eye = np.eye(n)
    J, D = (np.column_stack([nf.convolve_direct(kern, nf.WeightedField(
        cfg.grid, cfg.weight, e)).values for e in eye]) for kern in (k, deriv))
    young = 3.0 ** (1.0 / cfg.p)
    return {
        "J": (lambda v: _fft_convolve(k, v), J, young * k.norm_l1),
        "J'": (lambda v: _fft_convolve(k, v, derivative=True), D,
               young * k.deriv_norm_l1),
        "-I + beta J": (lambda v: cfg.beta * _fft_convolve(k, v) - v,
                        cfg.beta * J - eye, 1.0 + cfg.beta * young * k.norm_l1),
    }


@pytest.mark.parametrize("name", ["J", "J'", "-I + beta J"])
def test_power_method_reaches_the_dense_norm_at_p2(cauchy, name):
    # on L^2_w the norm of A is the largest singular value of W^(1/2) A W^(-1/2)
    cfg = small_cfg(cauchy, 2.0)
    apply, matrix, _ = dense_operators(cfg)[name]
    root = np.sqrt(quad_weights(cfg.weight, cfg.grid))
    exact = np.linalg.norm(root[:, None] * matrix / root, 2)
    (estimate,), (x,) = _power_stack(cfg, 0, apply, 1)
    assert 0.99 * exact <= estimate <= exact * (1.0 + 1e-12)
    assert _lp_norm(x, quad_weights(cfg.weight, cfg.grid), 2.0) == \
        pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", ["J", "J'", "-I + beta J"])
def test_power_method_beats_random_fields_under_young_at_p3(cauchy, name):
    cfg = small_cfg(cauchy, 3.0)
    apply, matrix, young = dense_operators(cfg)[name]
    w = quad_weights(cfg.weight, cfg.grid)
    fields = _field_corpus(cfg, 200, np.random.default_rng(0))
    worst = max(_lp_norm(matrix @ u, w, 3.0) / _lp_norm(u, w, 3.0) for u in fields)
    (estimate,), _ = _power_stack(cfg, 0, apply, 1)
    assert worst <= estimate <= young


def test_power_method_stopped_after_one_step_reads_lower(tanh_cfg, monkeypatch):
    # planted defect: one iteration in place of the module's count
    full = nf.verify("lemma1a", tanh_cfg, seed=0).measured
    monkeypatch.setattr(nlfield.bounds, "_POWER_ITERATIONS", 1)
    assert nf.verify("lemma1a", tanh_cfg, seed=0).measured < 0.9 * full


def single_applies(cfg):
    """name -> the one-field apply of J, J' and -I + beta g'(0) J."""
    k, slope = cfg.kernel, cfg.beta * float(cfg.nonlinearity.deriv(0.0))
    return {
        "J": lambda v: _fft_convolve(k, v),
        "J'": lambda v: _fft_convolve(k, v, derivative=True),
        "-I + beta J": lambda v: slope * _fft_convolve(k, v) - v,
    }


@pytest.mark.parametrize("half_length,n,p", [
    (5.0, 128, 2.0), (5.0, 128, 3.0),
    (50.0, 4090, 2.0),  # transforms at 4096: a wrap band of 34 of 40 nodes
], ids=["small-p2", "small-p3", "n4090-p2"])
def test_stacked_power_rows_match_their_single_runs(cauchy, half_length, n, p):
    grid = nf.Grid1D(half_length, n)
    cfg = nf.ProcessConfig(beta=2.0, p=p, grid=grid, weight=cauchy,
                           kernel=nf.make_bump_kernel(grid),
                           nonlinearity=nf.Nonlinearity.tanh(),
                           field=nf.ExternalField(), dt=0.05)
    stacked = nlfield.bounds._operator_norms(cfg, 0, OPERATOR_CHECKS)
    applies = single_applies(cfg)
    assert list(stacked) == ["J", "J'", "-I + beta J"]
    for name, (best, x) in stacked.items():
        (single_best,), (single_x,) = _power_stack(cfg, 0, applies[name], 1)
        assert best == single_best, name
        assert np.array_equal(x, single_x), name


@pytest.fixture
def convolved_shapes(monkeypatch):
    """Shapes of the arrays nlfield.bounds hands to _fft_convolve; G's
    convolutions in prop_lipschitz go through nlfield.dynamics and are
    not seen."""
    shapes = []

    def spying(kernel, values, derivative=False):
        shapes.append(values.shape)
        return _fft_convolve(kernel, values, derivative)

    monkeypatch.setattr(nlfield.bounds, "_fft_convolve", spying)
    return shapes


def rows_per_apply(shapes):
    """Rows the power iteration transforms per apply, two applies a step;
    lemma1b's one 1-D row is left out."""
    rows = sum(s[0] for s in shapes if len(s) == 2)
    return rows / (2 * nlfield.bounds._POWER_ITERATIONS)


def test_power_iteration_transforms_each_operator_once(tanh_cfg, convolved_shapes):
    # J and -I + beta J share one transform per apply, J' takes its own;
    # four single runs, J twice among them, would transform 4 rows
    nf.battery(tanh_cfg, OPERATOR_CHECKS, seed=0)
    n, steps = tanh_cfg.grid.n_points, nlfield.bounds._POWER_ITERATIONS
    assert set(convolved_shapes) == {(n,), (1, n), (2, n)}
    assert convolved_shapes.count((2, n)) == convolved_shapes.count((1, n)) == 2 * steps
    assert convolved_shapes.count((n,)) == 1
    assert rows_per_apply(convolved_shapes) == 3


@pytest.mark.parametrize("name,rows", [
    ("lemma1a", 1), ("lemma1a_deriv", 1), ("prop_lipschitz", 2), ("lemma1b", 0),
])
def test_verify_iterates_only_the_rows_its_check_reads(name, rows, tanh_cfg,
                                                       convolved_shapes):
    nf.verify(name, tanh_cfg, seed=0)
    assert rows_per_apply(convolved_shapes) == rows


def test_second_j_run_trips_the_row_count(tanh_cfg, convolved_shapes, monkeypatch):
    # planted defect: prop_lipschitz reads a J row of its own, so J is
    # iterated twice; its verdict is unchanged, only the work shows it
    monkeypatch.setitem(nlfield.bounds._POWER_ROWS, "prop_lipschitz",
                        ("-I + beta J", "J again"))
    reports = nf.battery(tanh_cfg, OPERATOR_CHECKS, seed=0)
    assert all(r.passed for r in reports)
    assert rows_per_apply(convolved_shapes) == 4


def test_power_rows_are_not_kept_between_batteries(tanh_cfg, monkeypatch):
    # a battery that reused an earlier battery's rows would read the
    # 60-step norm again after the step count drops to 1
    full = nf.battery(tanh_cfg, ["lemma1a"], seed=0)[0].measured
    monkeypatch.setattr(nlfield.bounds, "_POWER_ITERATIONS", 1)
    assert nf.battery(tanh_cfg, ["lemma1a"], seed=0)[0].measured < 0.9 * full


def closed_form_lemma1b(cfg):
    """Reference: each interior node's Hoelder dual norm of its kernel row,
    (sum_j |J_{i-j} dx|^q w_j^(1-q))^(1/q), node by node."""
    q = cfg.p / (cfg.p - 1.0)
    w = quad_weights(cfg.weight, cfg.grid)
    a = np.abs(cfg.kernel.samples * cfg.grid.spacing) ** q
    m = cfg.kernel.half_width
    nodes = np.flatnonzero(cfg.grid.interior_mask())
    values = [float(a @ w[i - m:i + m + 1] ** (1.0 - q)) ** (1.0 / q) for i in nodes]
    return nodes, np.array(values)


@pytest.mark.parametrize("config,node,value", [
    ("bistable.yaml", 42, 71.3405),
    ("edge_p3.yaml", 11, 17.0509),
])
def test_lemma1b_is_attained_at_the_first_interior_node(config, node, value):
    cfg = parse_config((CONFIGS / config).read_text()).process
    nodes, values = closed_form_lemma1b(cfg)
    assert nodes[np.argmax(values)] == nodes[0] == node
    report = nf.verify("lemma1b", cfg, seed=0)
    assert report.measured == pytest.approx(values.max(), rel=1e-12)
    assert report.measured == pytest.approx(value, abs=1e-4)


def libm_row(x, rng):
    """Reference row: each mode summed through one cosine per node."""
    u = np.zeros_like(x)
    for _ in range(5):
        k = rng.uniform(0.05, 2.5)
        u += rng.normal(scale=0.3) * np.cos(k * x + rng.uniform(0, 2 * np.pi))
    return u + rng.normal(scale=0.1, size=x.shape)


@pytest.mark.parametrize("n", [4096, 1009])
def test_field_corpus_matches_libm_sum_and_draw_order(cauchy, n):
    grid = nf.Grid1D(50.0, n)
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy,
                           kernel=nf.make_bump_kernel(grid),
                           nonlinearity=nf.Nonlinearity.tanh(),
                           field=nf.ExternalField(), dt=0.05)
    ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    assert np.array_equal(_field_corpus(cfg, 1, rng)[0], libm_row(grid.nodes, ref_rng))
    assert rng.uniform() == ref_rng.uniform()


@pytest.mark.parametrize("name", OPERATOR_CHECKS)
def test_verify_is_a_battery_of_one(name, tanh_cfg, battery_reports):
    by_name = {r.name: r for r in battery_reports}
    assert nf.verify(name, tanh_cfg, seed=0) == by_name[name]


@pytest.fixture
def corpus_draws(monkeypatch):
    """Row counts of every corpus draw made through nlfield.bounds."""
    counts = []

    def counting(cfg, count, rng):
        counts.append(count)
        return _field_corpus(cfg, count, rng)

    monkeypatch.setattr(nlfield.bounds, "_field_corpus", counting)
    return counts


def test_corpus_checks_draw_once_per_battery(tanh_cfg, corpus_draws):
    # the operator checks draw no field; each trajectory check draws its
    # one start row
    nf.battery(tanh_cfg, OPERATOR_CHECKS, seed=0)
    assert corpus_draws == []
    nf.battery(tanh_cfg, ["absorbing", "w_bound", "gronwall_continuity"], seed=0)
    assert corpus_draws == [1, 1, 1]


def test_battery_rejects_unknown_name_before_any_draw(tanh_cfg, corpus_draws):
    with pytest.raises(ValueError, match="nope"):
        nf.battery(tanh_cfg, ["absorbing", "nope"], seed=0)
    assert corpus_draws == []


@pytest.mark.parametrize("names", [
    [name] for name in ("lemma1a", "lemma1a_deriv", "lemma1b",
                        "prop_lipschitz", "gronwall_continuity")
] + [["absorbing", "lemma1b"], ["lemma1a", "lemma1a_deriv", "prop_lipschitz"],
     None], ids=lambda names: "+".join(names) if names else "all")
def test_battery_rejects_gaussian_weight_before_any_draw(names, tanh_cfg,
                                                         gaussian, corpus_draws):
    # the gaussian weight has no finite K: rho(c - 1)/rho(c) = exp(c - 1/2),
    # so a check whose constant uses K or rho_1 has no bound to measure
    cfg = dataclasses.replace(tanh_cfg, weight=gaussian)
    with pytest.raises(nf.ConfigError, match="no finite K") as err:
        nf.battery(cfg, names, seed=0)
    assert err.value.key_path == "weight"
    assert corpus_draws == []


def test_battery_of_no_checks_is_empty(tanh_cfg, corpus_draws):
    # only names=None selects every check
    assert nf.battery(tanh_cfg, [], seed=0) == []
    assert corpus_draws == []


def test_battery_reports_in_the_order_given(tanh_cfg):
    names = ["prop_lipschitz", "absorbing", "lemma1b", "lemma1a"]
    reports = nf.battery(tanh_cfg, names, seed=0)
    assert [r.name for r in reports] == names


# ---------------------------------------------------------------------------
# planted defects: each must trip a named check
# ---------------------------------------------------------------------------

def test_convolution_without_dx_trips_the_lemma_checks(tanh_cfg, monkeypatch):
    # G convolves on the same path, so prop_lipschitz trips with them
    inverse = nlfield.kernel._inverse

    def no_dx(kernel, product):
        return inverse(kernel, product) / kernel.grid.spacing

    monkeypatch.setattr(nlfield.kernel, "_inverse", no_dx)
    reports = nf.battery(tanh_cfg, OPERATOR_CHECKS, seed=0)
    assert [r.name for r in reports if not r.passed] == OPERATOR_CHECKS
    for r in reports[:3]:
        assert r.measured > 10.0 * r.theoretical


def test_understated_response_lipschitz_trips_prop_lipschitz(tanh_cfg,
                                                             monkeypatch):
    # g = 5 tanh is 5-Lipschitz while the config still states l_g = 1 and
    # g'(0) = 1: along the maximiser of -I + 2 J it reads 2.016, along
    # that of J 9.072 > 4.464
    monkeypatch.setattr(nf.Nonlinearity, "__call__",
                        lambda self, s, out=None: 5.0 * np.tanh(s))
    report = nf.verify("prop_lipschitz", tanh_cfg, seed=0)
    assert not report.passed
    assert report.measured == pytest.approx(9.072, abs=1e-3)


def test_kernel_heavier_than_its_stated_norms_trips_the_lemma_checks(tanh_cfg):
    # samples, both spectra and their edge matrices x1.5 while norm_l1 and
    # norm_sup still state the unit-mass kernel; lemma1a passes it at 1.511
    k = tanh_cfg.kernel
    heavy = dataclasses.replace(
        k, samples=1.5 * k.samples,
        _spectrum=1.5 * k._spectrum, _deriv_spectrum=1.5 * k._deriv_spectrum,
        _edges=tuple(1.5 * e for e in k._edges),
        _deriv_edges=tuple(1.5 * e for e in k._deriv_edges))
    cfg = dataclasses.replace(tanh_cfg, kernel=heavy)
    reports = {r.name: r for r in nf.battery(cfg, OPERATOR_CHECKS, seed=0)}
    assert [r.name for r in reports.values() if not r.passed] == \
        ["lemma1a_deriv", "lemma1b"]
    assert reports["lemma1a_deriv"].measured == pytest.approx(2.2556, abs=1e-4)
    assert reports["lemma1b"].measured == pytest.approx(107.0108, abs=1e-4)
    assert reports["lemma1b"].theoretical == pytest.approx(101.1712, abs=1e-4)


def test_understated_weight_constant_trips_lemma1a_deriv(tanh_cfg, monkeypatch):
    # K = 1 in place of the Cauchy weight's 3: the norm of J is 1.0071, and
    # 0.967 at 5 power-method steps, so the step count is guarded here too
    monkeypatch.setattr(nlfield.bounds, "CAUCHY_K", 1.0)
    reports = nf.battery(tanh_cfg, OPERATOR_CHECKS, seed=0)
    assert [r.name for r in reports if not r.passed] == ["lemma1a", "lemma1a_deriv"]


def test_interior_mask_one_node_wider_moves_lemma1b(tanh_cfg, monkeypatch):
    # the exact value sits on the mask's first interior node, so a mask
    # widened by one node at each cut reads the next node out
    assert nf.verify("lemma1b", tanh_cfg, seed=0).measured == \
        pytest.approx(71.3405, abs=1e-4)
    monkeypatch.setattr(
        nf.Grid1D, "interior_mask", lambda self, margin=1.0:
        np.abs(self.nodes) <= self.half_length - margin + 0.5 * self.spacing)
    assert nf.verify("lemma1b", tanh_cfg, seed=0).measured == \
        pytest.approx(71.3761, abs=1e-4)
