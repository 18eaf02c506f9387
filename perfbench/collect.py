"""Run the benchmark over several seeds and summarise each metric.

Usage (from the repository root):

    python3 perfbench/collect.py --workloads pullback,trajectory,battery \
        --seeds 1,2,3,4,5,6,7,8,9,10 --seconds 30 --trace 0 --out summary.json

For every workload and metric the summary holds the per-seed values, the
median, the quartiles (statistics.quantiles, n=4) and the spread, which
is the interquartile distance as a share of the median.  A --trace 1
collection records the per-layer metrics the same way.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="pullback,trajectory,battery")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    summary = {"seconds": float(args.seconds), "trace": int(args.trace), "workloads": {}}
    manifest = None
    ok = True
    for wl in args.workloads.split(","):
        per_metric: dict = {}
        runs = []
        for seed in args.seeds.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", seed, "--seconds", args.seconds, "--trace", args.trace]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                ok = False
                continue
            manifest = json.loads(lines[-2])["manifest"]
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append({"seed": int(seed), "run_s": time.perf_counter() - t0,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
            print(f"{wl} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        summary["workloads"][wl] = {
            "runs": runs,
            "metrics": {k: {"unit": v["unit"], **summarise(v["values"])}
                        for k, v in per_metric.items()}}
    summary["manifest"] = manifest
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=1)
    for wl, data in summary["workloads"].items():
        for name, m in data["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{wl:11s} {name:40s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {spread}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
