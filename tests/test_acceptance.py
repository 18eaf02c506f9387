"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Each numbered test is a claim about the package as a whole; running
``pytest -v tests/test_acceptance.py`` therefore prints a per-claim
pass/fail table.  The heavy shared objects (attractor samples, the
semicontinuity sweep, the check battery) come from the session fixtures
in conftest.py, so this file adds little runtime on top of the module
tests.

Three claims are expected to fail, and each is marked xfail rather than
silently loosened:

  * claim 2's same-constant norm bound for the derivative kernel at
    p = 3: the derivative kernel has mass 1.657, not 1, and the power
    method reaches 1.50 > 3^(1/3) = 1.4422 (the mass-corrected bound is
    asserted instead);
  * claim 3's stated pointwise constant ||J||_inf 2 pi = 5.206: a field
    concentrated at the first interior node, x = -48.97, attains 71.34
    (the Hoelder bound on the kernel window, 101.17, is asserted
    instead);
  * claim 6's threshold anchor literal 0.2664327, which disagrees with
    both independent computation routes by about 1.3e-5, far outside its
    own 1e-6 tolerance, while the routes agree with each other to 1e-16.

See the assertions in those tests for the exact numbers.
"""

import dataclasses
import math

import numpy as np
import pytest

import nlfield as nf
from nlfield.cli import main
from nlfield.weighted_space import quad_weights


def norm2(grid, weight, values):
    return nf.weighted_norm(nf.WeightedField(grid, weight, values), 2.0)


def scaled_to_norm(field, target):
    return field.with_values(field.values * (target / nf.weighted_norm(field, 2.0)))


# ---------------------------------------------------------------------------
# 1-4: convolution and right-hand-side inequalities
# ---------------------------------------------------------------------------

def test_criterion_01_convolution_oracle(grid, cauchy, kernel, corpus_factory):
    # FFT and direct summation must agree to 1e-10 relative on 100 fields
    worst = 0.0
    for u in corpus_factory(grid, cauchy, 100, seed=0):
        fast = nf.convolve_fast(kernel, u).values
        direct = nf.convolve_direct(kernel, u).values
        worst = max(worst, np.max(np.abs(fast - direct)) / np.max(np.abs(direct)))
    assert worst < 1e-10


def test_criterion_02_convolution_norm_bound(tanh_cfg):
    # ||J*u|| <= 3^(1/p) ||u|| + 1e-9, p in {2, 3}, with the same constant
    # claimed for the derivative kernel; each norm by the power method
    reports = {}
    for p in (2.0, 3.0):
        cfg = dataclasses.replace(tanh_cfg, p=p)
        for name in ("lemma1a", "lemma1a_deriv"):
            reports[(name, p)] = nf.verify(name, cfg, samples=500, seed=0)

    # the plain kernel holds at both exponents, the derivative kernel at
    # p = 2; these are theorems (unit kernel mass, Jensen) and must pass
    for key in (("lemma1a", 2.0), ("lemma1a", 3.0), ("lemma1a_deriv", 2.0)):
        r = reports[key]
        assert r.theoretical == pytest.approx(3.0 ** (1.0 / key[1]), rel=1e-12)
        assert r.passed
        assert r.measured <= r.theoretical + 1e-9

    # the derivative kernel always satisfies the mass-corrected bound
    # 3^(1/p) ||J'||_1 (Young's step without the unit-mass shortcut),
    # which its check uses at p != 2
    deriv3 = reports[("lemma1a_deriv", 3.0)]
    corrected = 3.0 ** (1.0 / 3.0) * tanh_cfg.kernel.deriv_norm_l1
    assert deriv3.theoretical == pytest.approx(corrected, rel=1e-12)
    assert deriv3.passed

    stated = 3.0 ** (1.0 / 3.0)
    if deriv3.measured > stated + 1e-9:
        print(f"derivative-kernel norm bound: FAIL at p = 3  measured "
              f"{deriv3.measured:.6f} vs same-constant claim {stated:.6f} "
              f"(mass-corrected bound {corrected:.4f} holds)")
        pytest.xfail(
            "the same-constant claim fails for the derivative kernel at "
            "p = 3: its mass is 1.657, not 1, and the power method reaches "
            f"{deriv3.measured:.4f} > 3^(1/3) = 1.4422; the mass-corrected "
            "bound is verified instead")
    assert deriv3.measured <= stated + 1e-9


def test_criterion_03_pointwise_interior_bound(tanh_cfg):
    # interior |J*u| <= C ||u||_{2,rho}: the sup over u is attained, and
    # the corrected claim is that it exceeds the stated ||J||_inf 2 pi and
    # lies under the Hoelder bound on the kernel window, which the check
    # uses
    r = nf.verify("lemma1b", tanh_cfg, samples=500, seed=0)
    assert r.passed
    assert tanh_cfg.kernel.norm_sup * 2.0 * math.pi < r.measured <= r.theoretical
    assert r.measured == pytest.approx(71.3405, abs=1e-4)
    assert r.theoretical == pytest.approx(101.1712, abs=1e-4)


def test_criterion_03_stated_pointwise_constant(tanh_cfg):
    # the stated constant ||J||_inf / rho_1 = ||J||_inf 2 pi, claimed on the
    # whole interior; rho_1 = min_{|y|<=1} rho holds only near the origin
    r = nf.verify("lemma1b", tanh_cfg, samples=500, seed=0)
    stated = tanh_cfg.kernel.norm_sup * 2.0 * math.pi
    assert stated == pytest.approx(5.2061, abs=1e-4)
    if r.measured > stated + 1e-9:
        print(f"pointwise interior bound: FAIL  exact value {r.measured:.4f} "
              f"at the first interior node vs stated {stated:.4f} "
              f"(Hoelder bound {r.theoretical:.4f} holds)")
        pytest.xfail(
            "the stated constant ||J||_inf 2 pi = 5.206 fails on the "
            "interior: at x = -48.97 a field attains 71.34, since rho there "
            "is far below rho_1; the Hoelder bound 101.17 is verified "
            "instead")
    assert r.measured <= stated + 1e-9


def test_criterion_04_rhs_lipschitz(pulsed_cfg):
    # ratio over 200 pairs stays below 1 + l_g beta 3^(1/p) + beta l_h
    r = nf.verify("prop_lipschitz", pulsed_cfg, samples=200, seed=0)
    stated = 1.0 + 2.0 * math.sqrt(3.0) + 2.0 * 0.2 * nf.K1_TANH
    assert r.theoretical == pytest.approx(stated, rel=1e-12)
    assert r.passed
    assert r.margin > 0.0
    print(f"rhs Lipschitz: measured {r.measured:.6f} vs stated "
          f"{r.theoretical:.6f}, margin {r.margin:.4f}")


# ---------------------------------------------------------------------------
# 5-6: integrator order and the bistability threshold
# ---------------------------------------------------------------------------

def test_criterion_05_integrator_order(tanh_cfg, grid, cauchy, corpus_factory):
    u0 = corpus_factory(grid, cauchy, 2, seed=0)[1]

    def endpoint(dt):
        return nf.evolve(u0, 0.0, 2.0, dataclasses.replace(tanh_cfg, dt=dt))

    ref = endpoint(0.05 / 8.0)
    e1 = norm2(grid, cauchy, endpoint(0.05).values - ref.values)
    e2 = norm2(grid, cauchy, endpoint(0.025).values - ref.values)
    assert 3.5 <= e1 / e2 <= 4.5

    # with the coupling off the integrator reduces to exact decay
    decay = dataclasses.replace(tanh_cfg, nonlinearity=nf.Nonlinearity.zero())
    out = nf.evolve(u0, 0.0, 2.0, decay)
    assert np.max(np.abs(out.values - math.exp(-2.0) * u0.values)) <= 1e-14


def test_criterion_06_threshold_anchor():
    g = nf.Nonlinearity.tanh()
    by_fold = nf.compute_h_star(2.0, g)
    by_closed_form = nf.tanh_h_star(2.0)
    # independent recomputation of the tangency condition: the response
    # grazes the diagonal where its slope is 1, i.e. at s = -sqrt(1-1/beta)
    s_c = math.sqrt(1.0 - 1.0 / 2.0)
    by_hand = s_c - math.atanh(s_c) / 2.0
    assert abs(by_fold - by_closed_form) <= 1e-12
    assert by_closed_form == pytest.approx(by_hand, abs=1e-9)

    anchor = 0.2664327
    off = abs(by_fold - anchor)
    if off > 1e-6:
        print(f"threshold anchor check: FAIL  quoted {anchor} is {off:.3e} "
              f"from the value {by_fold:.10f} that both independent "
              f"routes agree on (route gap "
              f"{abs(by_fold - by_closed_form):.1e})")
        pytest.xfail(f"quoted anchor 0.2664327 differs by {off:.2e} from the "
                     "threshold both independent routes produce; the "
                     "computation is confirmed, the literal is not")
    assert off <= 1e-6


# ---------------------------------------------------------------------------
# 7-8: absorbing ball and the bounded/decaying splitting
# ---------------------------------------------------------------------------

def test_criterion_07_absorbing_ball_entry(tanh_cfg, grid, cauchy,
                                           corpus_factory):
    # from norm 10, entry into B(0; 1.1) is guaranteed once the decayed
    # start is below 0.1, i.e. for tau <= t + ln(0.01); entry may come
    # earlier, never later than one step past the prediction
    radius, eps = 10.0, 0.1
    u10 = scaled_to_norm(corpus_factory(grid, cauchy, 1, seed=5)[0], radius)
    for extra in (0.0, 1.0, 3.0):
        tau = math.log(eps / radius) - extra
        norms = []

        def watch(s, vals):
            norms.append((s, norm2(grid, cauchy, vals)))

        nf.evolve(u10, tau, 0.0, tanh_cfg, observer=watch)
        assert norms[-1][1] <= 1.0 + eps + 1e-3
        entry = next(s for s, n in norms if n <= 1.0 + eps)
        predicted = tau + math.log(radius / eps)
        assert entry <= predicted + tanh_cfg.dt + 1e-9
        for s, n in norms:
            assert n <= math.exp(-(s - tau)) * radius + 1.0 + 1e-3


def test_criterion_08_splitting_and_tail(pulsed_cfg, grid, cauchy,
                                         corpus_factory):
    u0 = scaled_to_norm(corpus_factory(grid, cauchy, 1, seed=0)[0], 1.1)

    # the split read along the run ends on the returned state at t
    seen = []
    direct = nf.evolve(u0, 0.0, 8.0, pulsed_cfg,
                       observer=lambda s, vals: seen.append((s, vals)))
    assert seen[-1][0] == 8.0
    gap = norm2(grid, cauchy, seen[-1][1] - direct.values)
    assert gap <= 1e-10

    # the forced part w(s) = u(s) - exp(-s) u0 never exceeds the response
    # ceiling along the run (160 steps)
    w_sup = []
    nf.evolve(u0, 0.0, 160 * pulsed_cfg.dt, pulsed_cfg,
              observer=lambda s, vals: w_sup.append(
                  float(np.max(np.abs(vals - math.exp(-s) * u0.values)))))
    assert len(w_sup) == 1 + 160
    assert max(w_sup) <= 1.0 + 1e-9

    # the radius chosen from the weight tail caps the exterior
    # contribution of w at eta/4: a^p tail(R) <= (eta/4)^p with a = 1
    eta = 0.1
    R = nf.radius_for_tail(cauchy, (eta / 4.0) ** 2.0)
    wide = nf.Grid1D(1100.0, 32768)
    assert R < wide.half_length
    wide_cfg = dataclasses.replace(pulsed_cfg, grid=wide,
                                   kernel=nf.make_bump_kernel(wide))
    w0 = scaled_to_norm(corpus_factory(wide, cauchy, 1, seed=0)[0], 1.1)
    w = nf.evolve(w0, 0.0, 6.0, wide_cfg).values - math.exp(-6.0) * w0.values
    ext = np.abs(wide.nodes) > R
    qw = quad_weights(cauchy, wide)
    exterior = math.sqrt(float(np.dot(qw[ext], w[ext] ** 2)))
    assert exterior <= eta / 4.0
    print(f"splitting tail: R = {R:.1f}, exterior contribution "
          f"{exterior:.3e} vs budget {eta / 4.0}")


# ---------------------------------------------------------------------------
# 9-12: attractor structure, regularity, and continuity in the field
# ---------------------------------------------------------------------------

def test_criterion_09_attractor_structure(bistable_attractor,
                                          contraction_attractor, s_star):
    # weak gain: the singleton zero state
    cont = contraction_attractor
    assert cont.converged and len(cont.members) == 1
    assert nf.weighted_norm(cont.members[0], cont.p) <= 1e-4

    # bistable gain: the two saturated constant states (evaluated three
    # interaction radii inside, past the zero-extension boundary layer)
    bist = bistable_attractor
    assert bist.converged
    assert abs(s_star - 0.95750) <= 1e-4
    interior = bist.members[0].grid.interior_mask(3.0)
    for target in (s_star, -s_star):
        assert min(np.max(np.abs(m.values[interior] - target))
                   for m in bist.members) <= 1e-4

    # every member sits inside the response ball of radius a = 1
    for sample in (bist, cont):
        for m in sample.members:
            assert nf.weighted_norm(m, sample.p) <= 1.0 + 1e-3


def test_criterion_10_member_slope_bound(tanh_cfg, bistable_attractor):
    h_star = nf.compute_h_star(tanh_cfg.beta, tanh_cfg.nonlinearity)
    bound = nf.c1_regularity_bound(tanh_cfg, h_star)
    assert bound == pytest.approx(13.50, abs=0.01)
    interior = tanh_cfg.grid.interior_mask()
    slope = max(float(np.max(np.abs(nf.finite_difference(m).values[interior])))
                for m in bistable_attractor.members)
    assert slope <= bound + 0.01
    print(f"interior slope: measured {slope:.4e} vs bound {bound:.4f} "
          f"(ratio {slope / bound:.2e})")


def test_criterion_11_process_continuity(pulsed_cfg):
    # twin runs whose fields differ by 0.02 in sup over horizon 1.0
    h_gap, horizon = 0.02, 1.0
    r = nf.verify("gronwall_continuity", pulsed_cfg, samples=1, seed=0)
    assert r.theoretical == pytest.approx(
        nf.continuity_envelope(pulsed_cfg, h_gap, horizon), rel=1e-12)
    assert r.passed
    # the exponential envelope is astronomically loose; the factor-ten
    # bound below is a regression guard for this integrator, not a
    # theoretical constant
    assert r.measured <= 10.0 * h_gap


def test_criterion_12_upper_semicontinuity(sweep_curve, pulsed_cfg):
    curve = sweep_curve
    assert curve.epsilons == (0.4, 0.2, 0.1, 0.05, 0.0)
    assert all(curve.converged)
    d = curve.distances
    assert d[-1] == 0.0
    for a, b in zip(d, d[1:]):
        assert b <= a + 1e-6
    # the last nonzero scaling leaves a field gap of 0.05 * sup|h|
    field_gap = 0.05 * pulsed_cfg.field.sup
    assert d[-2] <= 10.0 * field_gap


# ---------------------------------------------------------------------------
# 13: determinism of the full battery through the command line
# ---------------------------------------------------------------------------

def test_criterion_13_battery_determinism(tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text("beta: 2.0\nn_points: 1024\nverify:\n  samples: 200\n")
    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["verify", "--config", str(config), "--out", str(out)])
        assert rc == 0
        lines = (out / "verify.csv").read_text().splitlines()
        assert lines[0].startswith("# nlfield ")
        bodies.append(lines[1:])
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) == 1 + len(nf.CHECK_NAMES)
