"""Shared fixtures: grids, weights, kernels, reference configs, corpora.

Everything here is immutable and seeded, so session scope is safe and
the expensive objects (attractor samples, the sweep, the verification
battery) are computed exactly once per test session.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import nlfield as nf
from nlfield import bifurcation

# tau ladder shared by the attractor and sweep experiments
LADDER = (-4.0, -8.0, -16.0, -32.0)


def list_schedule(tau, t, dt):
    """The steps from tau to t as the list of every step size: full steps
    of dt plus one shortened tail.  The reference rule for the package's
    (steps, tail) schedule."""
    span = t - tau
    if span < -1e-12:
        raise nf.TimeOrderError(f"cannot evolve backwards: tau={tau}, t={t}")
    if span <= 1e-12:
        return []
    n_full = int(math.floor(span / dt + 1e-9))
    deltas = [dt] * n_full
    rem = span - n_full * dt
    if rem > 1e-9 * max(1.0, dt):
        deltas.append(rem)
    return deltas


def full_grid_count_roots(beta, h, g):
    """Roots of s = g(beta s + beta h) from one float64 evaluation of phi
    over every scan node at once.  The reference rule for the package's
    blocked int8 scan."""
    def phi(s):
        return g(beta * s + beta * h) - s

    s = np.linspace(bifurcation.SCAN_INTERVAL[0], bifurcation.SCAN_INTERVAL[1],
                    bifurcation.SCAN_POINTS)
    sign = np.sign(phi(s))
    zero = np.concatenate(([False], sign == 0.0, [False]))
    edges = np.diff(zero.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    roots = [float(r) for r in 0.5 * (s[starts] + s[ends])]
    for i in np.flatnonzero((sign[:-1] * sign[1:]) < 0.0):
        roots.append(bifurcation._bisect(phi, float(s[i]), float(s[i + 1])))
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > bifurcation.ROOT_SEPARATION:
            merged.append(r)
    return nf.RootReport(beta=beta, h=h, roots=tuple(merged))


@pytest.fixture(scope="session")
def cauchy():
    return nf.WeightFunction.cauchy()


@pytest.fixture(scope="session")
def gaussian():
    return nf.WeightFunction.gaussian()


@pytest.fixture(scope="session")
def grid():
    return nf.Grid1D(50.0, 4096)


@pytest.fixture(scope="session")
def fine_grid():
    return nf.Grid1D(50.0, 8192)


@pytest.fixture(scope="session")
def unit_spacing_grid():
    # dx = 0.01 divides the unit window exactly
    return nf.Grid1D(50.0, 10000)


@pytest.fixture(scope="session")
def wide_grid():
    # tail mass beyond 200 is ~3.2e-3; used by the near-unit norm checks
    return nf.Grid1D(200.0, 32768)


@pytest.fixture(scope="session")
def kernel(grid):
    return nf.make_bump_kernel(grid)


@pytest.fixture(scope="session")
def fine_kernel(fine_grid):
    return nf.make_bump_kernel(fine_grid)


@pytest.fixture(scope="session")
def tanh_cfg(grid, cauchy, kernel):
    return nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy,
                            kernel=kernel, nonlinearity=nf.Nonlinearity.tanh(),
                            field=nf.ExternalField(), dt=0.05)


@pytest.fixture(scope="session")
def contraction_cfg(grid, cauchy, kernel):
    return nf.ProcessConfig(beta=0.5, p=2.0, grid=grid, weight=cauchy,
                            kernel=kernel, nonlinearity=nf.Nonlinearity.tanh(),
                            field=nf.ExternalField(), dt=0.05)


@pytest.fixture(scope="session")
def pulsed_cfg(grid, cauchy, kernel):
    return nf.ProcessConfig(beta=2.0, p=2.0, grid=grid, weight=cauchy,
                            kernel=kernel, nonlinearity=nf.Nonlinearity.tanh(),
                            field=nf.ExternalField("pulsed", 0.2, 1.0), dt=0.05)


@pytest.fixture(scope="session")
def corpus_factory():
    """Seeded random smooth fields plus small iid noise."""
    def make(grid, weight, count, seed=0, noise=0.1):
        rng = np.random.default_rng(seed)
        x = grid.nodes
        fields = []
        for _ in range(count):
            u = np.zeros_like(x)
            for _ in range(5):
                amp = rng.normal(scale=0.3)
                freq = rng.uniform(0.05, 2.5)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                u += amp * np.cos(freq * x + phase)
            if noise:
                u += rng.normal(scale=noise, size=x.shape)
            fields.append(nf.WeightedField(grid, weight, u))
        return fields
    return make


@pytest.fixture(scope="session")
def s_star():
    """Positive root of s = tanh(2s), by an external root finder."""
    return brentq(lambda s: math.tanh(2.0 * s) - s, 0.5, 1.5, xtol=1e-14)


@pytest.fixture(scope="session")
def bistable_attractor(tanh_cfg):
    return nf.approximate_pullback_attractor(0.0, tanh_cfg, n_samples=8,
                                             tau_ladder=LADDER, seed=0)


@pytest.fixture(scope="session")
def contraction_attractor(contraction_cfg):
    return nf.approximate_pullback_attractor(0.0, contraction_cfg, n_samples=8,
                                             tau_ladder=LADDER, seed=0)


@pytest.fixture(scope="session")
def sweep_curve(pulsed_cfg):
    return nf.upper_semicontinuity_sweep(0.0, pulsed_cfg,
                                         [0.4, 0.2, 0.1, 0.05, 0.0],
                                         n_samples=6, tau_ladder=LADDER, seed=0)


@pytest.fixture(scope="session")
def battery_reports(tanh_cfg):
    return nf.battery(tanh_cfg, seed=0)
