"""In-memory span recorder and the wrappers that feed it.

The package itself is not instrumented.  `instrument` replaces module
attributes (functions looked up at call time, such as
`nlfield.attractor.evolve` or `numpy.fft.rfft`) with wrappers that open a
span, call the original and close the span; `Tracer.restore` puts the
originals back.  A span is (name, start, end, parent); spans nest on a
stack, which is exact because the benchmark pins every pool to one
thread.  Self time is a span's duration minus the durations of its
direct children.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = defaultdict(float)
        self._patched: list = []
        self.missing: set = set()

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.intern(name))

    # -- patching -----------------------------------------------------------

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Replace module.attr by a span-recording wrapper.

        `name` is a span name or a callable (args, kwargs) -> span name;
        `after(args, kwargs, result)` records counters once the call
        returned.  Missing attributes are noted, not fatal, so that a
        refactor of the package degrades the trace instead of breaking it.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        fixed = self.intern(name) if isinstance(name, str) else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else tracer.intern(name(args, kwargs))
            idx = tracer.open(nid)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def table(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        excl = np.bincount(nid, weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(excl[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _fft_len(args, kwargs) -> int:
    if len(args) > 1 and args[1] is not None:
        return int(args[1])
    if kwargs.get("n") is not None:
        return int(kwargs["n"])
    return int(np.shape(args[0])[-1])


def instrument(tracer: Tracer) -> None:
    """Put span wrappers around the layer boundaries of nlfield."""
    mods = {name: importlib.import_module(f"nlfield.{name}")
            for name in ("cli", "dynamics", "attractor", "bifurcation", "bounds")}
    accel = None
    try:
        accel = importlib.import_module("nlfield._accel")
    except ImportError:
        tracer.missing.add("nlfield._accel")
    c = tracer.counters

    # kernel: every real FFT the package runs, wherever it is called from
    def count_fft(args, kwargs, out):
        n = _fft_len(args, kwargs)
        c["fft_len_max"] = max(c["fft_len_max"], n)
        c["fft_flops"] += 2.5 * n * math.log2(n)
        c["fft_bytes"] += 8 * n + 16 * (n // 2 + 1)

    def count_rfft(args, kwargs, out):
        c["rfft_calls"] += 1
        c["rfft_points"] += _fft_len(args, kwargs)
        count_fft(args, kwargs, out)

    tracer.wrap(np.fft, "rfft", "kernel.rfft", count_rfft)
    tracer.wrap(np.fft, "irfft", "kernel.irfft", count_fft)
    tracer.wrap(mods["bounds"], "convolve_fast", "kernel.convolve_fast")
    tracer.wrap(mods["bounds"], "convolve_derivative", "kernel.convolve_derivative")
    tracer.wrap(mods["cli"], "make_bump_kernel", "kernel.make_bump_kernel")

    # dynamics
    for mod in (mods["cli"], mods["attractor"], mods["bounds"]):
        tracer.wrap(mod, "evolve", "dynamics.evolve")
    dyn = mods["dynamics"]
    tracer.wrap(dyn, "_step_raw", "dynamics.step_exponential")
    tracer.wrap(dyn, "_step_split_raw", "dynamics.step_exponential")
    tracer.wrap(dyn, "_nonlinear_term", "dynamics.nonlinear_term")
    tracer.wrap(mods["bounds"], "rhs_f", "dynamics.rhs_f")

    # attractor: ladder rungs, dedup and set distances
    att = mods["attractor"]
    for mod in (mods["cli"], mods["bounds"], att):
        tracer.wrap(mod, "approximate_pullback_attractor", "attractor.pullback")
    tracer.wrap(mods["cli"], "upper_semicontinuity_sweep", "attractor.sweep")
    tracer.wrap(att, "sample_absorbing_ball", "attractor.sample_absorbing_ball")

    def rung_name(args, kwargs):
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        return f"attractor.rung.{tau_tag(tau)}"

    def count_rung(args, kwargs, out):
        c["rungs_run"] += 1
        c["members_evolved"] += len(args[0])

    def count_dedup(args, kwargs, out):
        c["dedup_in"] += len(args[0])
        c["dedup_kept"] += len(out)

    tracer.wrap(att, "_evolve_endpoints", rung_name, count_rung)
    tracer.wrap(att, "_dedup", "attractor.dedup", count_dedup)
    tracer.wrap(att, "hausdorff_semidist", "attractor.hausdorff_semidist")

    # bifurcation
    bif = mods["bifurcation"]
    for mod in (mods["cli"], bif):
        tracer.wrap(mod, "count_roots", "bifurcation.count_roots")
    for mod in (mods["cli"], mods["bounds"]):
        tracer.wrap(mod, "compute_h_star", "bifurcation.compute_h_star")

    # bounds: one span per named check, and the size of every field corpus
    bnd = mods["bounds"]

    def check_name(args, kwargs):
        return f"bounds.{args[0] if args else kwargs['name']}"

    def count_corpus(args, kwargs, out):
        c["corpus_fields"] += len(out)

    tracer.wrap(bnd, "verify", check_name)
    tracer.wrap(bnd, "_field_corpus", "bounds.field_corpus", count_corpus)

    # weighted space
    for mod in (mods["cli"], mods["attractor"], mods["bounds"]):
        tracer.wrap(mod, "weighted_norm", "weighted_space.weighted_norm")
    for mod in (mods["cli"], mods["bounds"]):
        tracer.wrap(mod, "finite_difference", "weighted_space.finite_difference")

    # numeric kernels behind the norms and set distances
    if accel is not None:
        tracer.wrap(accel, "pairwise_lp", "accel.pairwise_lp")
        tracer.wrap(accel, "wpow_sum", "accel.wpow_sum")

    # cli: config parsing and CSV output
    def count_csv(args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        c["csv_bytes"] += os.path.getsize(path)

    tracer.wrap(mods["cli"], "parse_config", "cli.parse_config")
    tracer.wrap(mods["cli"], "_write_csv", "cli.write_csv", count_csv)


def tau_tag(tau) -> str:
    tau = float(tau)
    text = f"{abs(tau):g}".replace(".", "p")
    return f"tau_m{text}" if tau < 0 else f"tau_{text}"
