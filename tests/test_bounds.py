"""Explicit-constant calculators and the inequality battery."""

import dataclasses
import json
import logging
import math
from importlib import resources

import numpy as np
import pytest

import nlfield as nf
import nlfield.bounds
import nlfield.dynamics
import nlfield.kernel
from nlfield.bounds import _BLOCK, CHECK_NAMES, _field_corpus, _scaled_to_norm
from nlfield.dynamics import _nonlinear_term
from nlfield.kernel import _fft_convolve, _fft_convolve_both
from nlfield.weighted_space import _lp_norm, quad_weights

CORPUS_CHECKS = ["lemma1a", "lemma1a_deriv", "lemma1b", "prop_lipschitz"]


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


def test_battery_specific_anchors(battery_reports, kernel):
    by_name = {r.name: r for r in battery_reports}
    # convolution norm checks are anchored at the cauchy admissibility constant
    assert by_name["lemma1a"].theoretical == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert by_name["lemma1a_deriv"].theoretical == pytest.approx(math.sqrt(3.0), rel=1e-12)
    # interior pointwise bound: sup of kernel over the weight floor
    assert by_name["lemma1b"].theoretical == pytest.approx(
        kernel.norm_sup * 2.0 * math.pi, rel=1e-12)
    assert by_name["absorbing"].theoretical == 1.0
    assert by_name["w_bound"].theoretical == 1.0
    assert by_name["c1_attractor"].theoretical == pytest.approx(13.50, abs=0.01)


def test_verify_deterministic(tanh_cfg):
    a = nf.verify("lemma1a", tanh_cfg, samples=50, seed=7)
    b = nf.verify("lemma1a", tanh_cfg, samples=50, seed=7)
    assert a == b
    c = nf.verify("lemma1a", tanh_cfg, samples=50, seed=8)
    assert c.measured != a.measured


def test_verify_unknown_name(tanh_cfg):
    with pytest.raises(ValueError):
        nf.verify("lemma9z", tanh_cfg)


def test_battery_subset_selection(tanh_cfg):
    reports = nf.battery(tanh_cfg, names=["lemma1b", "prop_lipschitz"], samples=40, seed=2)
    assert [r.name for r in reports] == ["lemma1b", "prop_lipschitz"]
    assert all(r.passed for r in reports)
    assert all(r.samples == 40 and r.seed == 2 for r in reports)


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
    u0 = _scaled_to_norm(cfg, np.random.default_rng(seed), 1.1)
    state, v, worst = nf.TrajectoryState(0.0, u0), u0.values, 0.0
    for _ in range(160):  # the check's horizon 8 in steps of 0.05
        state = nf.step_exponential(state, cfg)
        v = math.exp(-cfg.dt) * v
        worst = max(worst, float(np.max(np.abs(state.u.values - v))))
    report = nf.verify("w_bound", cfg, samples=1, seed=seed)
    assert worst > 0.1
    assert report.measured == pytest.approx(worst, rel=0, abs=1e-12)


def test_prop_lipschitz_trips_on_non_finite_field(tanh_cfg, monkeypatch):
    # planted defect: a field that returns NaN must not vanish into max()
    monkeypatch.setattr(nf.ExternalField, "__call__", lambda self, t, s: math.nan)
    with pytest.raises(nf.BlowUpError):
        nf.verify("prop_lipschitz", tanh_cfg, samples=4, seed=0)


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
    nf.verify("gronwall_continuity", base, samples=1, seed=0)
    assert fields[0] == base.field
    # tanh(20)^2 rounds to 1, so h(t, 20) is the sup over s at time t
    gap = max(abs(fields[1](t, 20.0) - fields[0](t, 20.0))
              for t in np.linspace(0.0, 1.0, 201))
    assert gap <= 0.02 + 1e-15


# ---------------------------------------------------------------------------
# the shared corpus of the four corpus checks
# ---------------------------------------------------------------------------

def redrawn_corpus_worst(cfg, samples, seed):
    """Reference: each corpus check re-seeds and redraws its own rows."""
    w = quad_weights(cfg.weight, cfg.grid)
    mask = cfg.grid.interior_mask()
    measures = {
        "lemma1a": lambda u: _lp_norm(_fft_convolve(cfg.kernel, u), w, cfg.p),
        "lemma1a_deriv": lambda u: _lp_norm(
            _fft_convolve_both(cfg.kernel, u[None], 1)[1][0], w, cfg.p),
        "lemma1b": lambda u: float(np.max(np.abs(_fft_convolve(cfg.kernel, u)[mask]))),
    }
    worst = {}
    for name, measure in measures.items():
        corpus = _field_corpus(cfg, samples, np.random.default_rng(seed))
        worst[name] = max(measure(u) / _lp_norm(u, w, cfg.p) for u in corpus)
    rng = np.random.default_rng(seed)
    corpus = _field_corpus(cfg, 2 * samples, rng)
    ratios = []
    for u, v in zip(corpus[::2], corpus[1::2]):
        t = rng.uniform(0.0, 10.0)
        diff = (-u + _nonlinear_term(cfg, t, u)) - (-v + _nonlinear_term(cfg, t, v))
        ratios.append(_lp_norm(diff, w, cfg.p) / _lp_norm(u - v, w, cfg.p))
    worst["prop_lipschitz"] = max(ratios)
    return worst


@pytest.mark.parametrize("p,beta,weight,amplitude", [
    (2.0, 2.0, "cauchy", 0.0),
    (3.0, 3.0, "cauchy", 0.2),
    (2.5, 2.0, "gaussian", 0.1),
])
def test_shared_corpus_matches_per_check_redraw(grid, kernel, p, beta, weight,
                                                amplitude):
    field = nf.ExternalField("pulsed", amplitude, 1.0) if amplitude \
        else nf.ExternalField()
    cfg = nf.ProcessConfig(beta=beta, p=p, grid=grid,
                           weight=nf.WeightFunction(weight), kernel=kernel,
                           nonlinearity=nf.Nonlinearity.tanh(), field=field,
                           dt=0.05)
    # an odd count leaves the last pair with one lemma row; the others put
    # the lemma/prop boundary mid-block, on a block edge, and in a corpus
    # of one pair
    for samples in (1, _BLOCK // 2, _BLOCK, 30, 31, 2 * _BLOCK + 5):
        expected = redrawn_corpus_worst(cfg, samples, 7)
        if weight == "cauchy":
            reports = nf.battery(cfg, CORPUS_CHECKS, samples=samples, seed=7)
            worst = {r.name: r.measured for r in reports}
        else:
            # the battery rejects this weight, but the walk uses no
            # constant, so its ratios still match the redraw bit for bit
            worst = nlfield.bounds._corpus_worst(cfg, samples, 7)
        assert worst == expected


def libm_corpus(x, count, rng):
    """Reference rows: each mode summed through one cosine per node."""
    rows = []
    for _ in range(count):
        u = np.zeros_like(x)
        for _ in range(5):
            k = rng.uniform(0.05, 2.5)
            u += rng.normal(scale=0.3) * np.cos(k * x + rng.uniform(0, 2 * np.pi))
        u += rng.normal(scale=0.1, size=x.shape)
        rows.append(u)
    return np.array(rows)


def row_table_corpus(x, dx, count, rng):
    """Reference rows: each row's angle-addition table built on its own."""
    n = x.size
    b = math.isqrt(n - 1) + 1
    heads = x[::b]
    steps = dx * np.arange(b)
    rows = np.empty((count, n))
    for row in rows:
        k, amp, phase = np.array([[rng.uniform(0.05, 2.5), rng.normal(scale=0.3),
                                   rng.uniform(0, 2 * np.pi)] for _ in range(5)]).T
        theta = np.multiply.outer(heads, k) + phase
        psi = np.multiply.outer(k, steps)
        table = np.hstack([amp * np.cos(theta), -amp * np.sin(theta)])
        row[:] = (table @ np.vstack([np.cos(psi), np.sin(psi)])).ravel()[:n]
        row += rng.normal(scale=0.1, size=n)
    return rows


@pytest.mark.parametrize("n", [4096, 1009])
def test_field_corpus_matches_libm_sum_and_draw_order(cauchy, n):
    # 1009 is prime, so the last block of the cos/sin table is cropped; 40
    # rows end in a part block of the batched table, which must give the
    # bits of the row-by-row table
    grid = nf.Grid1D(50.0, n)
    cfg = nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy,
                           kernel=nf.make_bump_kernel(grid),
                           nonlinearity=nf.Nonlinearity.tanh(),
                           field=nf.ExternalField(), dt=0.05)
    ref_rng, row_rng, rng = (np.random.default_rng(11) for _ in range(3))
    expected = libm_corpus(grid.nodes, 40, ref_rng)
    by_row = row_table_corpus(grid.nodes, grid.spacing, 40, row_rng)
    corpus = _field_corpus(cfg, 40, rng)
    assert corpus.shape == (40, n)
    np.testing.assert_allclose(corpus, expected, rtol=0, atol=1e-12)
    assert np.array_equal(corpus, by_row)
    assert rng.uniform() == ref_rng.uniform() == row_rng.uniform()


def test_corpus_pass_convolves_each_row_once(tanh_cfg, monkeypatch):
    # one forward transform of every row; back: J*u of every row, which G
    # reuses, and J'*u of the first `samples` rows; none inside dynamics.
    # At 11 samples the second block holds no lemma row, and an unclamped
    # block[:samples - first] would transform a 34th row back.
    def counting(name, transform):
        def counted(kernel, values):
            rows[name] += len(values)
            calls[name] += 1
            return transform(kernel, values)
        return counted

    def in_dynamics(kernel, values):
        rows["dynamics"] += len(values)
        return _fft_convolve(kernel, values)

    monkeypatch.setattr(nlfield.kernel, "_forward",
                        counting("forward", nlfield.kernel._forward))
    monkeypatch.setattr(nlfield.kernel, "_inverse",
                        counting("inverse", nlfield.kernel._inverse))
    monkeypatch.setattr(nlfield.dynamics, "_fft_convolve", in_dynamics)
    for samples in (10, 11, 2 * _BLOCK + 5):
        rows = {"forward": 0, "inverse": 0, "dynamics": 0}
        calls = {"forward": 0, "inverse": 0}
        nf.battery(tanh_cfg, CORPUS_CHECKS, samples=samples, seed=0)
        assert rows == {"forward": 2 * samples, "inverse": 3 * samples,
                        "dynamics": 0}
        assert calls["forward"] == math.ceil(2 * samples / _BLOCK)


@pytest.mark.parametrize("name", CORPUS_CHECKS)
def test_verify_is_a_battery_of_one(name, tanh_cfg, battery_reports):
    by_name = {r.name: r for r in battery_reports}
    assert nf.verify(name, tanh_cfg, 500, 0) == by_name[name]


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
    nf.battery(tanh_cfg, CORPUS_CHECKS, samples=12, seed=0)
    assert corpus_draws == [24]


def test_battery_rejects_unknown_name_before_any_draw(tanh_cfg, corpus_draws):
    with pytest.raises(ValueError, match="nope"):
        nf.battery(tanh_cfg, ["lemma1a", "nope"], samples=12, seed=0)
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
        nf.battery(cfg, names, samples=12, seed=0)
    assert err.value.key_path == "weight"
    assert corpus_draws == []


def test_battery_of_no_checks_is_empty(tanh_cfg, corpus_draws):
    # only names=None selects every check
    assert nf.battery(tanh_cfg, [], samples=12, seed=0) == []
    assert corpus_draws == []


def test_battery_reports_in_the_order_given(tanh_cfg):
    names = ["prop_lipschitz", "absorbing", "lemma1b", "lemma1a"]
    reports = nf.battery(tanh_cfg, names, samples=12, seed=0)
    assert [r.name for r in reports] == names


# ---------------------------------------------------------------------------
# planted defects: each must trip the shared pass
# ---------------------------------------------------------------------------

def test_convolution_without_dx_trips_the_lemma_checks(tanh_cfg, monkeypatch):
    inverse = nlfield.kernel._inverse

    def no_dx(kernel, product):
        return inverse(kernel, product) / kernel.grid.spacing

    monkeypatch.setattr(nlfield.kernel, "_inverse", no_dx)
    reports = nf.battery(tanh_cfg, CORPUS_CHECKS, samples=100, seed=0)
    assert [r.name for r in reports if not r.passed] == \
        ["lemma1a", "lemma1a_deriv", "lemma1b"]
    for r in reports[:3]:
        assert r.measured > 10.0 * r.theoretical


def test_understated_response_lipschitz_trips_prop_lipschitz(tanh_cfg,
                                                             monkeypatch):
    # g = 5 tanh is 5-Lipschitz while the config still states l_g = 1
    monkeypatch.setattr(nf.Nonlinearity, "__call__",
                        lambda self, s, out=None: 5.0 * np.tanh(s))
    report = nf.verify("prop_lipschitz", tanh_cfg, samples=100, seed=0)
    assert not report.passed
    assert report.measured > report.theoretical


def test_kernel_heavier_than_its_stated_norms_trips_the_lemma_checks(tanh_cfg):
    # samples, both spectra and their edge matrices x1.5 while norm_l1 and
    # norm_sup still state the unit-mass kernel; lemma1a alone would pass
    # it (ratio 0.861)
    k = tanh_cfg.kernel
    heavy = dataclasses.replace(
        k, samples=1.5 * k.samples,
        _spectrum=1.5 * k._spectrum, _deriv_spectrum=1.5 * k._deriv_spectrum,
        _edges=tuple(1.5 * e for e in k._edges),
        _deriv_edges=tuple(1.5 * e for e in k._deriv_edges))
    cfg = dataclasses.replace(tanh_cfg, kernel=heavy)
    reports = nf.battery(cfg, CORPUS_CHECKS, samples=200, seed=0)
    assert [r.name for r in reports if not r.passed] == ["lemma1a_deriv", "lemma1b"]


def test_understated_weight_constant_trips_lemma1a_deriv(tanh_cfg, monkeypatch):
    # K = 1 in place of the Cauchy weight's 3; lemma1a passes it at 0.994
    monkeypatch.setattr(nlfield.bounds, "CAUCHY_K", 1.0)
    reports = nf.battery(tanh_cfg, CORPUS_CHECKS, samples=200, seed=0)
    assert [r.name for r in reports if not r.passed] == ["lemma1a_deriv"]
