"""Root counting for the constant states and the bistability threshold."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import nlfield as nf
from conftest import full_grid_count_roots
from nlfield import bifurcation

TANH = nf.Nonlinearity.tanh()


def closed_form_h_star(beta: float) -> float:
    r = math.sqrt(1.0 - 1.0 / beta)
    return r - math.atanh(r) / beta


# ---------------------------------------------------------------------------
# count_roots
# ---------------------------------------------------------------------------

def test_three_roots_below_threshold(s_star):
    report = nf.count_roots(2.0, 0.0, TANH)
    assert report.count == 3
    assert report.roots == pytest.approx((-s_star, 0.0, s_star), abs=1e-10)


def test_single_root_for_weak_gain():
    report = nf.count_roots(0.5, 0.0, TANH)
    assert report.count == 1
    assert abs(report.roots[0]) < 1e-10


def test_single_root_above_threshold():
    report = nf.count_roots(2.0, 0.5, TANH)
    assert report.count == 1
    assert report.roots[0] > 0.9


def test_root_report_invariants():
    for beta, h in ((2.0, 0.0), (2.0, 0.1), (4.0, 0.3), (1.5, 0.05), (0.7, 0.2)):
        report = nf.count_roots(beta, h, TANH)
        assert report.beta == beta and report.h == h
        for s in report.roots:
            assert abs(math.tanh(beta * s + beta * h) - s) <= 1e-10
        gaps = np.diff(report.roots)
        assert np.all(gaps > 1e-8)


def test_count_transitions_at_threshold():
    h_star = closed_form_h_star(2.0)
    assert nf.count_roots(2.0, h_star - 1e-3, TANH).count == 3
    assert nf.count_roots(2.0, h_star + 1e-3, TANH).count == 1


def test_tangency_at_exact_threshold_is_not_a_root():
    # at the fold the lower pair merges at s = -sqrt(1 - 1/beta) without
    # a sign change, so only the upper root is counted
    report = nf.count_roots(2.0, closed_form_h_star(2.0), TANH)
    assert report.count == 1
    assert report.roots[0] > 0.0


def test_count_roots_validation():
    with pytest.raises(ValueError):
        nf.count_roots(-1.0, 0.0, TANH)


def planted_zero_runs(s, runs):
    """g(x) = x exactly on the nodes of the inclusive runs, x - 1 / x + 1
    at other nodes left / right of the origin: at beta 1 and h 0, phi is
    exactly zero on each run and -1 / +1 off them."""
    planted = np.concatenate([s[a : b + 1] for a, b in runs])

    def g(x):
        x = np.asarray(x, dtype=float)
        offset = np.where(np.isin(x, planted), 0.0, np.where(x < 0.0, -1.0, 1.0))
        return x + offset

    return g


def test_exact_zero_runs_give_one_root_at_midpoint(monkeypatch):
    # every planted run of exact zeros is one root, at its midpoint
    n = 41
    s = np.linspace(-1.0, 1.0, n)
    runs = [(0, 2), (10, 10), (19, 21), (30, 33), (38, 40)]  # inclusive
    g = planted_zero_runs(s, runs)
    monkeypatch.setattr(bifurcation, "SCAN_INTERVAL", (-1.0, 1.0))
    monkeypatch.setattr(bifurcation, "SCAN_POINTS", n)
    report = nf.count_roots(1.0, 0.0, g)
    assert report.roots == tuple(float(0.5 * (s[a] + s[b])) for a, b in runs)


def root_bits(report):
    return [r.hex() for r in report.roots]


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.0001, 1.5, 2.0, 3.0, 4.0, 10.0])
def test_blocked_scan_equals_the_full_grid_scan(beta):
    # the grid ends in a partial block, so a loop that skips it shows
    assert bifurcation.SCAN_POINTS % bifurcation._SCAN_BLOCK != 0
    h_star = nf.tanh_h_star(beta)
    for g in (TANH, nf.Nonlinearity.zero()):
        for h in (0.0, h_star * (1.0 - 1e-3), h_star, h_star * (1.0 + 1e-3), 1.5 * h_star):
            report = nf.count_roots(beta, h, g)
            reference = full_grid_count_roots(beta, h, g)
            assert report == reference, (g.name, h)
            assert root_bits(report) == root_bits(reference), (g.name, h)


def test_blocked_scan_across_block_edges(monkeypatch):
    # blocks of 10 over 41 nodes: zero runs straddle the block edges at 10
    # and 30, the strict sign change between s[19] < 0 and s[20] = 0 the
    # edge at 20, and the last block holds node 40 alone
    n = 41
    s = np.linspace(-1.0, 1.0, n)
    runs = [(0, 2), (8, 12), (28, 33), (36, 38)]
    g = planted_zero_runs(s, runs)
    monkeypatch.setattr(bifurcation, "SCAN_INTERVAL", (-1.0, 1.0))
    monkeypatch.setattr(bifurcation, "SCAN_POINTS", n)
    monkeypatch.setattr(bifurcation, "_SCAN_BLOCK", 10)
    report = nf.count_roots(1.0, 0.0, g)
    assert report == full_grid_count_roots(1.0, 0.0, g)
    mids = [float(0.5 * (s[a] + s[b])) for a, b in runs]
    assert report.count == 5
    assert report.roots[:2] + report.roots[3:] == tuple(mids)
    assert s[19] < report.roots[2] <= s[20]


def test_a_scan_holds_no_grid_sized_float_temporaries():
    nf.count_roots(2.0, 0.1, TANH)  # builds the scan grid
    tracemalloc.start()
    try:
        nf.count_roots(2.0, 0.1, TANH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one float64 row over the 1e5 scan nodes alone takes 800 kB
    assert peak < 2**20


def test_a_nan_response_is_rejected():
    with pytest.raises(ValueError, match="NaN at a scan node"):
        nf.count_roots(2.0, math.nan, TANH)


@pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
def test_root_count_phase_diagram(beta):
    h_star = closed_form_h_star(beta)
    for h in np.linspace(0.0, h_star - 1e-4, 8):
        assert nf.count_roots(beta, float(h), TANH).count == 3
    for h in np.linspace(h_star + 1e-4, 1.0, 8):
        assert nf.count_roots(beta, float(h), TANH).count == 1


# ---------------------------------------------------------------------------
# compute_h_star
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [2.0, 4.0])
def test_h_star_matches_closed_form(beta):
    computed = nf.compute_h_star(beta, TANH)
    assert abs(computed - closed_form_h_star(beta)) <= 1e-12
    assert abs(computed - nf.tanh_h_star(beta)) <= 1e-12


@pytest.mark.parametrize("beta", [1.0001, 1.01, 1.05, 1.5, 2.0, 3.0, 4.0, 10.0, 50.0])
def test_h_star_is_the_fold_height(beta):
    assert abs(nf.compute_h_star(beta, TANH) - nf.tanh_h_star(beta)) <= 1e-15


def test_h_star_costs_two_scans(monkeypatch):
    calls = []

    def counting(beta, h, g):
        calls.append(h)
        return nf.count_roots(beta, h, g)

    monkeypatch.setattr(bifurcation, "count_roots", counting)
    h_star = nf.compute_h_star(2.0, TANH)
    assert calls == [h_star * (1.0 - 1e-3), h_star * (1.0 + 1e-3)]


def test_misplaced_fold_is_rejected(monkeypatch):
    # a fold height 1% too high leaves one root just below it
    true_peak = bifurcation._fold_peak
    monkeypatch.setattr(bifurcation, "_fold_peak",
                        lambda beta, g: 1.01 * true_peak(beta, g))
    with pytest.raises(nf.NotBistableError, match="not confirmed"):
        nf.compute_h_star(2.0, TANH)


def test_doubled_deriv_fold_is_rejected(monkeypatch):
    # the fold root moves out to where beta g' = 1/2: the planted fold
    # reads h* about 0.21, with three roots on both sides of it
    true_deriv = nf.Nonlinearity.deriv
    monkeypatch.setattr(nf.Nonlinearity, "deriv",
                        lambda self, s: 2.0 * true_deriv(self, s))
    with pytest.raises(nf.NotBistableError, match="3 roots below it, 3 above"):
        nf.compute_h_star(2.0, TANH)


def test_h_star_beta_four_anchor():
    assert nf.compute_h_star(4.0, TANH) == pytest.approx(0.5367856, abs=1e-6)


def test_closed_form_saddle_node_consistency():
    # the fold solves sech^2(beta s + beta h) = 1/beta with s a root;
    # recover h* independently from that system via a root finder
    beta = 2.0
    arg = math.atanh(math.sqrt(1.0 - 1.0 / beta))  # beta*(s+h) at the fold

    def fold_residual(h):
        s = -math.sqrt(1.0 - 1.0 / beta)  # tanh(-arg)
        return beta * (s + h) + arg

    h_from_fold = brentq(fold_residual, 0.0, 1.0, xtol=1e-14)
    assert nf.compute_h_star(beta, TANH) == pytest.approx(h_from_fold, abs=1e-12)


def test_h_star_monotone_in_beta():
    ladder = [1.05, 1.2, 1.5, 2.0, 3.0, 4.0]
    values = [nf.compute_h_star(b, TANH) for b in ladder]
    assert all(v > 0.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_h_star_degenerate_below_one(caplog, monkeypatch):
    def no_scan(*args):
        raise AssertionError("count_roots called for beta <= 1")

    monkeypatch.setattr(bifurcation, "count_roots", no_scan)
    with caplog.at_level(logging.WARNING, logger="nlfield.bifurcation"):
        assert nf.compute_h_star(0.8, TANH) == 0.0
        assert nf.compute_h_star(1.0, TANH) == 0.0
    assert any("h* undefined" in r.getMessage() for r in caplog.records)


def test_h_star_of_zero_response_is_zero_with_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="nlfield.bifurcation"):
        assert nf.compute_h_star(2.0, nf.Nonlinearity.zero()) == 0.0
    assert any("h* undefined" in r.getMessage() for r in caplog.records)


def test_h_star_warnings_name_their_reason(caplog):
    with caplog.at_level(logging.WARNING, logger="nlfield.bifurcation"):
        nf.compute_h_star(0.8, TANH)
        nf.compute_h_star(2.0, nf.Nonlinearity.zero())
    below, flat = (r.getMessage() for r in caplog.records)
    assert "at or below the bistability threshold" in below
    assert "no three-root regime at h=0" in flat
    assert "bistability threshold" not in flat


def test_h_star_without_transition_in_range_raises(monkeypatch):
    # g = 3 tanh at beta 4 keeps three roots at h = 2 inside [-4, 4]
    class ThreeTanh(nf.Nonlinearity):
        def __call__(self, s):
            return 3.0 * np.tanh(s)

        def deriv(self, s):
            return 3.0 * super().deriv(s)

    g = ThreeTanh.tanh()
    monkeypatch.setattr(bifurcation, "SCAN_INTERVAL", (-4.0, 4.0))
    assert nf.count_roots(4.0, 0.0, g).count == 3
    assert nf.count_roots(4.0, 2.0, g).count == 3
    with pytest.raises(nf.NotBistableError, match="still three roots at h=2"):
        nf.compute_h_star(4.0, g)
