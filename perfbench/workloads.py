"""Seeded workload generation and the correctness gate for every op.

A workload is a list of ops; an op is one CLI-equivalent job
(`nlfield <command> --config <yaml> --out <dir>`) on a generated config.
The workload seed only draws inputs (config seeds, field amplitudes,
initial data, h ladders); the sizes that set the cost of an op are fixed
per workload, so runs on different seeds do the same amount of work.

Each op carries a gate that compares the op's output files with
references computed independently of the code path under test, in the
tolerance classes the package documents:

    ALGEBRAIC    1e-12 relative  (norms, sups, slopes recomputed from CSVs)
    QUADRATURE   1e-9  absolute  (FFT vs direct convolution, time grid)
    TRAJECTORY   1e-3  absolute  (states reached by time stepping, h*)

A gate returns a list of (label, error, tolerance) comparisons; an op
fails when any error exceeds its tolerance, when the command exits with
an unexpected status, or when an expected output is missing.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

ALGEBRAIC = 1e-12
QUADRATURE = 1e-9
TRAJECTORY = 1e-3

WORKLOADS = ("pullback", "trajectory", "battery")

# checks of the verify battery that the battery workload runs; the
# attractor-backed c1_attractor is measured by the pullback workload
BATTERY_CHECKS = ("lemma1a", "lemma1a_deriv", "lemma1b", "prop_lipschitz",
                  "absorbing", "w_bound", "gronwall_continuity")
BATTERY_SAMPLES = 800

# fixed time spans inside the verify checks (see nlfield.bounds): absorbing
# starts at log(eps / radius) = log(0.1 / 10), w_bound runs to horizon 8,
# gronwall_continuity runs two trajectories to horizon 1
_CHECK_SPANS = {
    "absorbing": [(math.log(0.1 / 10.0), 0.0)],
    "w_bound": [(0.0, 8.0)],
    "gronwall_continuity": [(0.0, 1.0), (0.0, 1.0)],
}


@dataclass
class Op:
    """One CLI job with its config, expected exit status and gate."""

    name: str
    command: str
    config: dict
    # gate(nf, op, out_dir, rc, stdout) -> (comparisons, member-steps, info)
    gate: object
    expect_rc: tuple = (0,)
    config_path: str = ""

    def argv(self, out_dir: str) -> list:
        return [self.command, "--config", self.config_path, "--out", out_dir]


class GateFailure(Exception):
    """An output is missing or malformed, so no comparison is possible."""


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def _nodes(half_length: float, n: int) -> np.ndarray:
    dx = 2.0 * half_length / n
    return -half_length + dx * np.arange(n)


def _quad_weights(kind: str, half_length: float, n: int) -> np.ndarray:
    x = _nodes(half_length, n)
    dx = 2.0 * half_length / n
    if kind == "cauchy":
        rho = 1.0 / (math.pi * (1.0 + x * x))
    else:
        rho = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return rho * dx


def _norm(u: np.ndarray, w: np.ndarray, p: float) -> float:
    return float(np.dot(w, np.abs(u) ** p)) ** (1.0 / p)


def _interior(half_length: float, n: int) -> np.ndarray:
    dx = 2.0 * half_length / n
    return np.abs(_nodes(half_length, n)) <= half_length - 1.0 - 0.5 * dx


def _schedule_steps(tau: float, t: float, dt: float) -> int:
    # number of steps evolve takes from tau to t: full dt steps plus a
    # shortened tail step when the span is not a multiple of dt
    span = t - tau
    if span <= 1e-12:
        return 0
    n_full = int(math.floor(span / dt + 1e-9))
    rem = span - n_full * dt
    return n_full + (1 if rem > 1e-9 * max(1.0, dt) else 0)


def _read_csv(path: str) -> list:
    if not os.path.exists(path):
        raise GateFailure(f"missing output {os.path.basename(path)}")
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    if not rows:
        raise GateFailure(f"empty output {os.path.basename(path)}")
    return rows


def _conv_oracle(nf, cfg: dict, u: np.ndarray) -> tuple:
    """convolve_fast against the convolve_direct oracle on the interior."""
    grid = nf.Grid1D(cfg["half_length"], cfg["n_points"])
    weight = nf.WeightFunction(cfg["weight"])
    kernel = nf.make_bump_kernel(grid)
    f = nf.WeightedField(grid, weight, u)
    mask = _interior(cfg["half_length"], cfg["n_points"])
    fast = nf.convolve_fast(kernel, f).values[mask]
    direct = nf.convolve_direct(kernel, f).values[mask]
    # the convolution is a quadrature of J(x - y) u(y), so the two paths
    # are held to the quadrature class
    return ("convolve_fast_vs_direct", float(np.max(np.abs(fast - direct))),
            QUADRATURE)


def _probe_field(cfg: dict) -> np.ndarray:
    # a fixed smooth field for the convolution oracle of ops that write no
    # field; seed-independent, so its rounding error is the same every run
    x = _nodes(cfg["half_length"], cfg["n_points"])
    return 0.2 * np.cos(0.3 * x) + 0.1 * np.sin(1.7 * x + 0.4)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _gate_attractor(nf, op: Op, out_dir: str, rc: int, stdout: str):
    cfg = op.config
    att = cfg["attractor"]
    meta = dict(_read_csv(os.path.join(out_dir, "attractor_meta.csv"))[1:])
    if meta.get("converged") != "true":
        raise GateFailure("attractor run did not converge")
    n_members = int(meta["n_members"])
    rows = _read_csv(os.path.join(out_dir, "members.csv"))[1:]
    n = cfg["n_points"]
    if len(rows) != n_members * n:
        raise GateFailure(f"members.csv has {len(rows)} rows, want {n_members * n}")
    members = np.array([float(r[2]) for r in rows]).reshape(n_members, n)

    # constant states from the root count; zero-field configs only
    roots = nf.count_roots(cfg["beta"], 0.0, nf.Nonlinearity.tanh()).roots
    w = _quad_weights(cfg["weight"], cfg["half_length"], n)
    mass = float(np.sum(w)) ** (1.0 / cfg["p"])
    out = []
    for i, m in enumerate(members):
        reported = float(meta[f"member_norm_{i}"])
        mine = _norm(m, w, cfg["p"])
        out.append(("member_norm_recomputed", abs(reported - mine),
                    ALGEBRAIC * max(mine, 1.0)))
        out.append(("member_norm_vs_root",
                    min(abs(reported - abs(r) * mass) for r in roots), TRAJECTORY))
        out.append(_conv_oracle(nf, cfg, m))

    deepest = float(meta["deepest_tau"])
    used = [tau for tau in att["tau_ladder"] if tau >= deepest]
    steps = att["n_samples"] * sum(_schedule_steps(tau, att["t"], cfg["dt"])
                                   for tau in used)
    return out, steps, {"rungs": len(used), "members": n_members}


def _gate_sweep(nf, op: Op, out_dir: str, rc: int, stdout: str):
    cfg = op.config
    sw = cfg["sweep"]
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))[1:]
    if len(rows) != len(sw["epsilons"]):
        raise GateFailure("sweep.csv does not have one row per epsilon")
    out = []
    for (eps, dist, env, conv), want in zip(rows, sw["epsilons"]):
        if float(eps) != want:
            raise GateFailure(f"sweep row for epsilon {eps}, want {want}")
        if conv != "true":
            raise GateFailure(f"sweep leg epsilon={eps} did not converge")
        if want == 0.0:
            # shared seeds make the unperturbed leg exactly zero
            out.append(("sweep_eps0_distance", float(dist), 0.0))
        elif not float(dist) <= float(env):
            raise GateFailure(f"sweep leg epsilon={eps} exceeds its envelope")
    out.append(_conv_oracle(nf, cfg, _probe_field(cfg)))

    # every leg converged, and a ladder can only converge once a second
    # rung has run: with a two-rung ladder each leg ran both rungs
    legs = 1 + sum(1 for e in sw["epsilons"] if e != 0.0)
    steps = legs * sw["n_samples"] * sum(
        _schedule_steps(tau, sw["t"], cfg["dt"]) for tau in sw["tau_ladder"])
    return out, steps, {"legs": legs}


def _gate_simulate(nf, op: Op, out_dir: str, rc: int, stdout: str):
    cfg = op.config
    sim = cfg["simulate"]
    p = cfg["p"]
    n = cfg["n_points"]
    steps = _schedule_steps(sim["tau"], sim["t"], cfg["dt"])
    rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))[1:]
    if len(rows) != steps + 1:
        raise GateFailure(f"trajectory.csv has {len(rows)} rows, want {steps + 1}")
    traj = np.array([[float(v) for v in r] for r in rows])
    expect_t = np.minimum(sim["tau"] + cfg["dt"] * np.arange(steps + 1), sim["t"])
    out = [("trajectory_time_grid", float(np.max(np.abs(traj[:, 0] - expect_t))),
            QUADRATURE)]

    w = _quad_weights(cfg["weight"], cfg["half_length"], n)
    x = _nodes(cfg["half_length"], n)
    mask = _interior(cfg["half_length"], n)
    dx = 2.0 * cfg["half_length"] / n
    by_time = {row[0]: row for row in traj}
    last = None
    for i in range(sim["snapshots"]):
        path = os.path.join(out_dir, f"snapshot_{i:03d}.csv")
        snap = np.array([[float(v) for v in r]
                         for r in _read_csv(path)[1:]])
        if snap.shape != (n, 3):
            raise GateFailure(f"{os.path.basename(path)} has shape {snap.shape}")
        s = snap[0, 0]
        if s not in by_time:
            raise GateFailure(f"snapshot time {s} is not a trajectory time")
        row = by_time[s]
        u = snap[:, 2]
        out.append(("snapshot_nodes", float(np.max(np.abs(snap[:, 1] - x))),
                    ALGEBRAIC * cfg["half_length"]))
        norm = _norm(u, w, p)
        out.append(("trajectory_norm_recomputed", abs(row[1] - norm),
                    ALGEBRAIC * max(norm, 1.0)))
        out.append(("trajectory_sup_recomputed",
                    abs(row[2] - float(np.max(np.abs(u)))), ALGEBRAIC))
        slope = float(np.max(np.abs(np.gradient(u, dx)[mask])))
        out.append(("trajectory_slope_recomputed", abs(row[3] - slope),
                    ALGEBRAIC * max(slope, 1.0)))
        last = u
    if last is None:
        raise GateFailure("no snapshot written")
    out.append(_conv_oracle(nf, cfg, last))

    if cfg["field"]["family"] == "zero" and sim["initial"]["kind"] == "constant":
        # a positive constant start relaxes onto the positive constant root
        roots = nf.count_roots(cfg["beta"], 0.0, nf.Nonlinearity.tanh()).roots
        s_star = max(roots)
        mass = float(np.sum(w)) ** (1.0 / p)
        out.append(("final_norm_vs_root", abs(traj[-1, 1] - s_star * mass),
                    TRAJECTORY))
    return out, steps, {}


def _gate_hstar(nf, op: Op, out_dir: str, rc: int, stdout: str):
    cfg = op.config
    lines = [ln for ln in stdout.splitlines() if ln.startswith("h_star = ")]
    if len(lines) != 1:
        raise GateFailure("hstar printed no threshold")
    h_star = float(lines[0].split("=", 1)[1])
    ref = nf.tanh_h_star(cfg["beta"])
    out = [("h_star_vs_closed_form", abs(h_star - ref), TRAJECTORY)]
    rows = _read_csv(os.path.join(out_dir, "hstar.csv"))[1:]
    ladder = cfg["hstar"]["h_ladder"]
    if [float(r[0]) for r in rows] != ladder:
        raise GateFailure("hstar.csv ladder differs from the config")
    for h, r in zip(ladder, rows):
        want = 3 if h < ref else 1
        out.append(("root_count", float(int(r[1]) != want), 0.0))
    return out, 0, {}


def _valid_bound(nf, cfg: dict, name: str):
    """A provable bound for checks whose stated constant is known not to
    hold, or None for checks whose stated constant must hold.

    lemma1a_deriv at p != 2: the paper's same-constant claim fails because
    the derivative kernel's mass is not 1; Young's inequality gives
    3^(1/p) ||J'||_1.

    lemma1b: the stated constant ||J||_inf / min_{|y|<=1} rho(y) only
    holds near the origin, but the check applies it on the whole interior.
    Hoelder on the kernel window gives, at node i,
    |J*u|(x_i) <= ||J||_inf (sum_{|j-i|<=m} rho_j^(-1/(p-1)) dx)^((p-1)/p) ||u||.
    """
    grid = nf.Grid1D(cfg["half_length"], cfg["n_points"])
    kernel = nf.make_bump_kernel(grid)
    p = cfg["p"]
    if name == "lemma1a_deriv" and p != 2.0:
        return 3.0 ** (1.0 / p) * kernel.deriv_norm_l1
    if name == "lemma1b":
        n = cfg["n_points"]
        dx = 2.0 * cfg["half_length"] / n
        with np.errstate(over="ignore", divide="ignore"):
            inv = (_quad_weights(cfg["weight"], cfg["half_length"], n) / dx) \
                ** (-1.0 / (p - 1.0)) * dx
        csum = np.concatenate([[0.0], np.cumsum(inv)])
        i = np.arange(n)
        m = kernel.half_width
        window = csum[np.minimum(i + m + 1, n)] - csum[np.maximum(i - m, 0)]
        mask = _interior(cfg["half_length"], n)
        return kernel.norm_sup * float(np.max(window[mask])) ** ((p - 1.0) / p)
    return None


def _gate_verify(nf, op: Op, out_dir: str, rc: int, stdout: str):
    cfg = op.config
    rows = _read_csv(os.path.join(out_dir, "verify.csv"))
    header, rows = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    names = [r[col["name"]] for r in rows]
    if names != list(cfg["verify"]["checks"]):
        raise GateFailure(f"verify.csv checks {names}")
    out = []
    failed = []
    findings = []
    for r in rows:
        if r[col["passed"]] == "true":
            continue
        name = r[col["name"]]
        measured = float(r[col["measured"]])
        stated = float(r[col["theoretical"]])
        valid = _valid_bound(nf, cfg, name)
        if valid is None:
            failed.append(f"{name} measured {measured:.6g} > {stated:.6g}")
            continue
        # a known-false stated constant: the verdict fails, the
        # measurement must still respect the provable bound
        findings.append(f"{name} measured {measured:.6g} > stated {stated:.6g}"
                        f" (provable bound {valid:.6g})")
        out.append((f"{name}_provable_bound", max(0.0, measured - valid), QUADRATURE))
    if failed:
        raise GateFailure("verify verdicts failed: " + "; ".join(failed))
    if (rc == 0) != (not findings):
        raise GateFailure(f"verify exited {rc} with {len(findings)} failed verdicts")
    out.append(_conv_oracle(nf, cfg, _probe_field(cfg)))
    steps = sum(_schedule_steps(a, b, cfg["dt"])
                for name in cfg["verify"]["checks"]
                for a, b in _CHECK_SPANS.get(name, []))
    return out, steps, {"findings": findings}


# ---------------------------------------------------------------------------
# config generation
# ---------------------------------------------------------------------------

def _base(beta: float, p: float, weight: str, n: int, seed: int) -> dict:
    return {"model": "tanh", "beta": beta, "p": p, "weight": weight,
            "half_length": 50.0, "n_points": n, "dt": 0.05,
            "field": {"family": "zero", "amplitude": 0.0, "omega": 1.0},
            "seed": seed, "output": "out"}


def _pulsed(rng, lo: float, hi: float) -> dict:
    return {"family": "pulsed", "amplitude": round(float(rng.uniform(lo, hi)), 6),
            "omega": round(float(rng.uniform(0.8, 1.2)), 6)}


def _h_ladder(rng, beta: float, count: int = 6) -> list:
    # forcing levels in [0, 1.5 h*], kept 1e-3 clear of the threshold so
    # the expected root count is unambiguous
    h_star = math.sqrt(1.0 - 1.0 / beta) - math.atanh(math.sqrt(1.0 - 1.0 / beta)) / beta
    out = [0.0]
    while len(out) < count:
        h = round(float(rng.uniform(0.0, 1.5 * h_star)), 6)
        if abs(h - h_star) > 1e-3:
            out.append(h)
    return sorted(out)


def make_ops(workload: str, seed: int) -> list:
    """The op list of one workload; inputs drawn from the workload seed."""
    salt = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, salt])

    def draw_seed():
        return int(rng.integers(0, 2**31 - 1))

    if workload == "pullback":
        # every ladder below converges at its last rung on every seed (the
        # last gap is 4e-4 or less against the 1e-3 tolerance, the gap
        # before it above 1e-3), so each seed runs the same steps; ops stay
        # short because the host-speed reference is sampled between ops
        bistable = _base(2.0, 2.0, "cauchy", 4096, draw_seed())
        bistable["attractor"] = {"t": 0.0, "tau_ladder": [-16.0, -32.0],
                                 "n_samples": 4}
        contraction = _base(0.5, 2.0, "cauchy", 4096, draw_seed())
        contraction["attractor"] = {"t": 0.0, "tau_ladder": [-4.0, -8.0, -16.0, -32.0],
                                    "n_samples": 4}
        sweep = _base(2.0, 2.0, "cauchy", 4096, draw_seed())
        sweep["field"] = _pulsed(rng, 0.12, 0.22)
        sweep["sweep"] = {"t": 0.0, "epsilons": [0.2, 0.0],
                          "tau_ladder": [-12.0, -20.0], "n_samples": 4}
        return [Op("attractor_bistable", "attractor", bistable, _gate_attractor),
                Op("attractor_contraction", "attractor", contraction, _gate_attractor),
                Op("sweep_pulsed", "sweep", sweep, _gate_sweep)]

    if workload == "trajectory":
        coarse = _base(2.0, 2.0, "cauchy", 4096, draw_seed())
        coarse["simulate"] = {"tau": 0.0, "t": 60.0,
                              "initial": {"kind": "constant",
                                          "value": round(float(rng.uniform(0.2, 0.9)), 6)},
                              "snapshots": 4}
        refined = _base(2.0, 3.0, "gaussian", 8192, draw_seed())
        refined["field"] = _pulsed(rng, 0.08, 0.2)
        refined["simulate"] = {"tau": 0.0, "t": 16.0,
                               "initial": {"kind": "random",
                                           "norm": round(float(rng.uniform(0.5, 1.5)), 6)},
                               "snapshots": 4}
        return [Op("simulate_n4096_p2_cauchy", "simulate", coarse, _gate_simulate),
                Op("simulate_n8192_p3_gaussian", "simulate", refined, _gate_simulate)]

    if workload == "battery":
        ops = []
        for p, beta, weight in ((2.0, 2.0, "cauchy"), (3.0, 3.0, "cauchy")):
            cfg = _base(beta, p, weight, 4096, draw_seed())
            if p != 2.0:
                cfg["field"] = _pulsed(rng, 0.1, 0.3)
            cfg["hstar"] = {"h_ladder": _h_ladder(rng, beta)}
            cfg["verify"] = {"checks": list(BATTERY_CHECKS),
                             "samples": BATTERY_SAMPLES}
            tag = f"p{int(p)}"
            ops.append(Op(f"hstar_{tag}", "hstar", cfg, _gate_hstar))
            # exit 1 is expected when a known-false stated constant fails
            ops.append(Op(f"verify_{tag}", "verify", cfg, _gate_verify,
                          expect_rc=(0, 1)))
        return ops

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_configs(ops: list, directory: str) -> list:
    """Write each op's config as YAML; returns the distinct config paths."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for op in ops:
        text = yaml.safe_dump(op.config, sort_keys=False)
        if text not in paths:
            paths[text] = os.path.join(directory, f"{op.name}.yaml")
            with open(paths[text], "w", encoding="utf-8") as f:
                f.write(text)
        op.config_path = paths[text]
    return list(paths.values())
