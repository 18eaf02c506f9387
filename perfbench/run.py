"""nlfield benchmark: end-to-end and per-layer metrics for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pullback --seed 1 --seconds 35 --trace 0

The workload's ops (CLI-equivalent jobs, see workloads.py) run in rounds
in this process through `nlfield.cli.main` until the time budget is
spent; every op execution passes through the correctness gate.  Set-up
is measured separately in fresh interpreters.  Reported times are
host-normalized: each op's wall time is scaled by a fixed numpy
reference kernel timed just before and after it (see run_rounds and
README.md); raw seconds stay in the results file.  With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 half the budget
runs untraced and half traced (span wrappers from tracing.py), and the
last line holds the per-layer metrics and the layer probes.  The line
before it is the run manifest.  Full results, including every op
execution and the span table, go to .perfbench/results/, and the raw
spans of a traced run to a .npz next to them.

Every thread pool is pinned to one thread.  The package is imported from
src/ of the checkout this script lives in; without it the run exits 2
and prints no result.
"""

from __future__ import annotations

import os

_THREAD_ENV = {"NLFIELD_THREADS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(_THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5

RUNG_TAUS = (-4.0, -8.0, -16.0, -32.0, -12.0, -20.0)
MODULES = ("cli", "kernel", "dynamics", "attractor", "bifurcation", "bounds",
           "weighted_space", "accel")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, bad set-up)."""


def load_package():
    if not (SRC / "nlfield" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nlfield

    if Path(nlfield.__file__).resolve().parent != SRC / "nlfield":
        raise BenchmarkError(f"nlfield imported from {nlfield.__file__}, not {SRC}")
    return nlfield


# ---------------------------------------------------------------------------
# set-up, manifest
# ---------------------------------------------------------------------------

def measure_setup(config_paths: list) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    ref = probes.host_reference_us()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), *map(str, config_paths)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        ref_after = probes.host_reference_us()
        times.append({"s": raw, "ref_us": 0.5 * (ref + ref_after),
                      "norm_s": raw * probes.REF_US / (0.5 * (ref + ref_after))})
        ref = ref_after
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nlfield").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest(nf, args) -> dict:
    accel = sys.modules.get("nlfield._accel")
    backend = getattr(accel, "backend_name", None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "nlfield": nf.__version__,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "backend": backend() if callable(backend) else "n/a",
        "threads": {k: os.environ.get(k) for k in _THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# rounds of ops
# ---------------------------------------------------------------------------

def _ratio(err: float, tol: float) -> float:
    if err == 0.0:
        return 0.0
    if not (tol > 0.0) or not math.isfinite(err):
        return math.inf
    return err / tol


def run_op(nf, op, out_dir: Path, tracer=None) -> dict:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cli = sys.modules["nlfield.cli"]
    buf = io.StringIO()
    rc, error = None, None
    if tracer is not None:
        tracing.instrument(tracer)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is not None:
                with tracer.span(f"op.{op.name}"):
                    rc = cli.main(op.argv(str(out_dir)))
            else:
                rc = cli.main(op.argv(str(out_dir)))
    except SystemExit as e:  # argparse rejected the arguments
        error = f"SystemExit({e.code})"
    except Exception as e:  # the op failed; record it and keep running
        error = f"{type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()

    rec = {"op": op.name, "s": elapsed, "rc": rc, "steps": 0, "max_ratio": 0.0,
           "ok": False, "error": error}
    if error is None and rc not in op.expect_rc:
        rec["error"] = f"exit status {rc}, expected {op.expect_rc}"
    if rec["error"] is None:
        try:
            comps, steps, info = op.gate(nf, op, str(out_dir), rc, buf.getvalue())
        except wl.GateFailure as e:
            rec["error"] = f"gate: {e}"
        else:
            ratios = {}
            for label, err, tol in comps:
                ratios[label] = max(ratios.get(label, 0.0), _ratio(err, tol))
            worst = max(ratios.values(), default=0.0)
            rec.update(steps=steps, max_ratio=worst, ratios=ratios, info=info,
                       ok=worst <= 1.0)
            if worst > 1.0:
                bad = [k for k, v in ratios.items() if v > 1.0]
                rec["error"] = f"gate: out of tolerance: {bad}"
    return rec


def run_rounds(nf, ops, work: Path, budget: float, tracer=None) -> list:
    """Whole rounds of the op list while the next one fits in the budget.

    The host reference kernel runs between ops; each op's host-normalized
    time uses the mean of the references just before and just after it.
    """
    rounds = []
    t0 = time.perf_counter()
    ref = probes.host_reference_us()
    while True:
        rnd = []
        for op in ops:
            rec = run_op(nf, op, work / "out" / op.name, tracer)
            ref_after = probes.host_reference_us()
            rec["ref_us"] = 0.5 * (ref + ref_after)
            rec["norm_s"] = rec["s"] * probes.REF_US / rec["ref_us"]
            ref = ref_after
            rnd.append(rec)
        rounds.append(rnd)
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rounds) > budget:
            return rounds


def _op_medians(rounds, key="norm_s") -> list:
    """Median time of each op of the list over the rounds."""
    return [statistics.median(rnd[i][key] for rnd in rounds)
            for i in range(len(rounds[0]))]


def end_to_end(rounds, setup_times) -> dict:
    # times are host-normalized (see run_rounds); the op list's wall time
    # is the sum of its ops' medians, which damps a burst of host noise
    # that hits a single op
    wall = sum(_op_medians(rounds))
    steps = statistics.median(sum(r["steps"] for r in rnd) for rnd in rounds)
    execs = [r for rnd in rounds for r in rnd]
    failed = sum(1 for r in execs if not r["ok"])
    return {
        "setup_s": (statistics.median(t["norm_s"] for t in setup_times), "s"),
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(_op_medians(rounds)), "s"),
        "steps_per_s": (steps / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / len(execs), "ratio"),
        "max_err_ratio": (max(r["max_ratio"] for r in execs), "ratio"),
    }


def per_layer(tracer, untraced, traced, probe_metrics) -> dict:
    tab = tracer.table()
    n = len(traced)
    c = tracer.counters

    def s(name, key="s"):
        return tab.get(name, {}).get(key, 0.0) / n

    def calls(name):
        return tab.get(name, {}).get("calls", 0) / n

    fft_len = int(c["fft_len_max"])
    steps = calls("dynamics.step_exponential")
    evolved = c["dedup_in"]
    wall_u = sum(_op_medians(untraced))
    wall_t = sum(_op_medians(traced))
    op_total = sum(v["s"] for k, v in tab.items() if k.startswith("op."))
    layer_self = sum(v["self_s"] for k, v in tab.items() if not k.startswith("op."))
    m = {
        "cli.parse_config_s": (s("cli.parse_config"), "s"),
        "cli.write_csv_s": (s("cli.write_csv"), "s"),
        "cli.csv_bytes": (c["csv_bytes"] / n, "B"),
        "kernel.fft_len": (fft_len, "count"),
        "kernel.fft_len_max_prime": (probes.max_prime_factor(fft_len) if fft_len else 0,
                                     "count"),
        "kernel.rfft_calls": (c["rfft_calls"] / n, "count"),
        "kernel.rfft_points": (c["rfft_points"] / n, "count"),
        "kernel.fft_flops_est": (c["fft_flops"] / n, "flop"),
        "kernel.fft_bytes_est": (c["fft_bytes"] / n, "B"),
        "kernel.fft_s": (s("kernel.rfft") + s("kernel.irfft"), "s"),
        "kernel.convolve_s": (s("kernel.convolve_fast") + s("kernel.convolve_derivative"), "s"),
        "dynamics.evolve.calls": (calls("dynamics.evolve"), "count"),
        "dynamics.evolve.self_s": (s("dynamics.evolve", "self_s"), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.us_per_step": (s("dynamics.step_exponential") / steps * 1e6
                                 if steps else 0.0, "us"),
        "dynamics.rhs_f.s": (s("dynamics.rhs_f"), "s"),
        "dynamics.step_exponential.s": (s("dynamics.step_exponential"), "s"),
        "dynamics.nonlinear_term.s": (s("dynamics.nonlinear_term"), "s"),
        "attractor.rungs_run": (c["rungs_run"] / n, "count"),
        "attractor.members_evolved": (c["members_evolved"] / n, "count"),
        "attractor.members_kept_ratio": (c["dedup_kept"] / evolved if evolved else 0.0,
                                         "ratio"),
        "attractor.dedup.s": (s("attractor.dedup"), "s"),
        "attractor.hausdorff_semidist.s": (s("attractor.hausdorff_semidist"), "s"),
        "bifurcation.count_roots.calls": (calls("bifurcation.count_roots"), "count"),
        "bifurcation.count_roots.s": (s("bifurcation.count_roots"), "s"),
        "bifurcation.compute_h_star.s": (s("bifurcation.compute_h_star"), "s"),
        "bounds.corpus_fields": (c["corpus_fields"] / n, "count"),
        "bounds.stated_bound_misses": (sum(len(r.get("info", {}).get("findings", []))
                                           for rnd in traced for r in rnd) / n, "count"),
        "weighted_space.weighted_norm.calls": (calls("weighted_space.weighted_norm"), "count"),
        "weighted_space.weighted_norm.s": (s("weighted_space.weighted_norm"), "s"),
        "weighted_space.finite_difference.s": (s("weighted_space.finite_difference"), "s"),
        "accel.pairwise_lp.s": (s("accel.pairwise_lp"), "s"),
        "accel.wpow_sum.calls": (calls("accel.wpow_sum"), "count"),
        "accel.wpow_sum.s": (s("accel.wpow_sum"), "s"),
        "trace_overhead_frac": (wall_t / wall_u - 1.0, "ratio"),
        "trace.wall_s": (wall_t, "s"),
        "trace.untraced_wall_s": (wall_u, "s"),
        "trace.layer_self_frac": (layer_self / op_total if op_total else 0.0, "ratio"),
        "trace.spans": (len(tracer.start) / n, "count"),
        "host.ref_us": (statistics.median(r["ref_us"] for rnd in untraced + traced
                                          for r in rnd), "us"),
        "host.untraced_wall_raw_s": (sum(_op_medians(untraced, "s")), "s"),
    }
    for tau in RUNG_TAUS:
        tag = tracing.tau_tag(tau)
        m[f"attractor.rung_s.{tag}"] = (s(f"attractor.rung.{tag}"), "s")
    for check in wl.BATTERY_CHECKS:
        m[f"bounds.{check}.s"] = (s(f"bounds.{check}"), "s")
    # self time by module; together with the op roots they sum to the
    # traced wall time of a round
    for mod in MODULES + ("op",):
        m[f"self_s.{mod}"] = (sum(v["self_s"] for k, v in tab.items()
                                  if k.split(".", 1)[0] == mod) / n, "s")
    m.update(probe_metrics)
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        nf = load_package()
    except (BenchmarkError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    results = OUT / "results"
    log_handler = None
    try:
        ops = wl.make_ops(args.workload, args.seed)
        paths = wl.write_configs(ops, str(work / "configs"))
        cli = importlib.import_module("nlfield.cli")
        for path in paths:
            with open(path, encoding="utf-8") as f:
                cli.parse_config(f.read())  # the shipped schema must accept it
        setup_times = measure_setup(paths)

        # the CLI logs at INFO; keep its log in the work directory
        log_handler = logging.FileHandler(work / "cli.log")
        logging.basicConfig(level=logging.INFO, handlers=[log_handler])

        info = manifest(nf, args)
        detail = {"manifest": info, "setup_times": setup_times,
                  "configs": {op.name: op.config for op in ops}}
        if args.trace == 0:
            rounds = run_rounds(nf, ops, work, args.seconds)
            metrics = end_to_end(rounds, setup_times)
            execs = [r for rnd in rounds for r in rnd]
            detail["wall_raw_s"] = sum(_op_medians(rounds, "s"))
        else:
            untraced = run_rounds(nf, ops, work, args.seconds / 2)
            tracer = tracing.Tracer()
            traced = run_rounds(nf, ops, work, args.seconds / 2, tracer)
            metrics = per_layer(tracer, untraced, traced, probes.run_probes(nf))
            execs = [r for rnd in untraced + traced for r in rnd]
            detail.update(span_table=tracer.table(), missing_hooks=sorted(tracer.missing),
                          traced_rounds=len(traced))
            results.mkdir(parents=True, exist_ok=True)
            tracer.save(str(results / f"{tag}-spans.npz"))
        failed = sum(1 for r in execs if not r["ok"])
        result = {"correct": failed == 0, "attempted": len(execs), "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        detail.update(executions=execs, result=result)
        results.mkdir(parents=True, exist_ok=True)
        with open(results / f"{tag}.json", "w", encoding="utf-8") as f:
            json.dump(detail, f, indent=1, default=str)
    except (BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if log_handler is not None:
            logging.getLogger().removeHandler(log_handler)
            log_handler.close()
        shutil.rmtree(work, ignore_errors=True)
    for r in execs:
        if not r["ok"]:
            print(f"op {r['op']} failed: {r['error']}", file=sys.stderr)
    print(json.dumps({"manifest": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
