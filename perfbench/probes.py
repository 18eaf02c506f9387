"""Layer probes: fixed-size calls into single layers, timed in isolation.

Each probe runs on one of the benchmark's two grid sizes: n = 4096
(cauchy weight, p = 2, padded FFT length 4176) and the refined n = 8192
(gaussian weight, p = 3, padded FFT length 8354 = 2 * 4177).  The FFT
round trip is also timed at the next 5-smooth length at or above the
padded length, which is the cost the padded length could have.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_GRIDS = ((4096, "cauchy", 2.0), (8192, "gaussian", 3.0))


def next_5smooth(n: int) -> int:
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


def max_prime_factor(n: int) -> int:
    best, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            best, n = f, n // f
        f += 1
    return max(best, n) if n > 1 else best


def _time_us(fn, min_batch_s: float = 0.01, batches: int = 5) -> float:
    """Median per-call microseconds over batches of at least min_batch_s."""
    fn()
    k = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        k *= 2
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        per_call.append((time.perf_counter() - t0) / k)
    return float(np.median(per_call)) * 1e6


# the reference kernel's time on the host that defines host-normalized
# seconds: a time t measured while the kernel took r microseconds counts
# as t * REF_US / r
REF_US = 125.0

_REF_X = np.random.default_rng(0).standard_normal(4096)


def host_reference_us() -> float:
    """Median microseconds of a fixed numpy kernel that runs no nlfield code.

    The kernel (an FFT round trip at the padded length 4176 and a tanh on
    4096 points) has the shape of one nonlinear-term evaluation, so it
    slows down with the host the way the program does.
    """
    x = _REF_X
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(40):
            y = np.fft.irfft(np.fft.rfft(x, 4176), 4176)
            np.tanh(2.0 * y[:4096] + 0.1 * x)
        per_call.append((time.perf_counter() - t0) / 40)
    return float(np.median(per_call)) * 1e6


def run_probes(nf) -> dict:
    out = {}
    rng = np.random.default_rng(12345)
    g = nf.Nonlinearity.tanh()
    for n, weight, p in PROBE_GRIDS:
        grid = nf.Grid1D(50.0, n)
        kernel = nf.make_bump_kernel(grid)
        cfg = nf.ProcessConfig(beta=2.0, p=p, grid=grid,
                               weight=nf.WeightFunction(weight), kernel=kernel,
                               nonlinearity=g, field=nf.ExternalField(), dt=0.05)
        u = nf.WeightedField(grid, cfg.weight,
                             0.5 * np.cos(0.3 * grid.nodes)
                             + 0.1 * rng.standard_normal(n))
        state = nf.TrajectoryState(t=0.0, u=u)
        fft_len = getattr(kernel, "_fft_len", n + 2 * kernel.half_width)
        smooth = next_5smooth(fft_len)
        x = u.values
        tag = f"probe.n{n}"
        out[f"{tag}.fft_len"] = (fft_len, "count")
        out[f"{tag}.fft_len_5smooth"] = (smooth, "count")
        out[f"{tag}.fft_roundtrip_us"] = (_time_us(
            lambda: np.fft.irfft(np.fft.rfft(x, fft_len), fft_len)), "us")
        out[f"{tag}.fft_roundtrip_5smooth_us"] = (_time_us(
            lambda: np.fft.irfft(np.fft.rfft(x, smooth), smooth)), "us")
        out[f"{tag}.convolve_fast_us"] = (_time_us(
            lambda: nf.convolve_fast(kernel, u)), "us")
        out[f"{tag}.convolve_direct_us"] = (_time_us(
            lambda: nf.convolve_direct(kernel, u)), "us")
        out[f"{tag}.rhs_f_us"] = (_time_us(lambda: nf.rhs_f(0.0, u, cfg)), "us")
        out[f"{tag}.step_exponential_us"] = (_time_us(
            lambda: nf.step_exponential(state, cfg)), "us")
        out[f"{tag}.weighted_norm_us"] = (_time_us(
            lambda: nf.weighted_norm(u, p)), "us")

    grid = nf.Grid1D(50.0, 4096)
    weight = nf.WeightFunction("cauchy")
    members = [nf.WeightedField(grid, weight, np.full(4096, c) + 0.01 * rng.standard_normal(4096))
               for c in np.linspace(-1.0, 1.0, 8)]
    out["probe.hausdorff_semidist_8x8_us"] = (_time_us(
        lambda: nf.hausdorff_semidist(members, members[::-1], 2.0)), "us")
    out["probe.count_roots_us"] = (_time_us(
        lambda: nf.count_roots(2.0, 0.1, g)), "us")
    return out
