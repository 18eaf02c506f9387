"""Command line driver.

One YAML document (validated against the shipped JSON schema, unknown
keys rejected, schema defaults filled in) drives five subcommands; each
reads its own block of the document by key.  The package checks the
schema's keyword subset itself (_schema_errors), with the messages and
key paths of a Draft 2020-12 validator whose "integer" excludes floats:

    simulate    integrate one trajectory, record norms and snapshots
    attractor   approximate the pullback attractor at a time t
    hstar       bistability threshold plus a root-count table
    verify      run the inequality check battery
    sweep       attractor displacement under field perturbations

Every emitted CSV starts with a "# nlfield <version>" comment line; the
body below it is byte-stable for a fixed config and seed, with all
numbers printed at 17 significant digits.  Exit status: 0 success, 1 a
check failed or a run did not stabilize, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import operator
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from . import __version__
from .attractor import approximate_pullback_attractor, \
    upper_semicontinuity_sweep, _ladder_taus
from .bifurcation import _fold_peak, compute_h_star, count_roots
from .bounds import battery, _C1_MEMBERS
from .dynamics import ExternalField, Nonlinearity, ProcessConfig, \
    _integrate, _step_schedule
from .errors import ConfigError, GridTooCoarseError, NlfieldError, \
    TimeOrderError
from .kernel import make_bump_kernel
from .weighted_space import Grid1D, WeightedField, WeightFunction, \
    _lp_norm, quad_weights, weighted_norm

log = logging.getLogger(__name__)

# a check whose measured/theoretical falls below this passes by a margin
# too wide to catch a defect; verify names it in a warning
VACUOUS_RATIO = 1e-3


@functools.cache
def _schema() -> dict:
    ref = resources.files("nlfield").joinpath("schema/config_schema.json")
    with ref.open(encoding="utf-8") as f:
        return json.load(f)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# "integer" admits no YAML float such as 4096.0, which every integer key's
# consumer (array sizes, seeds) rejects with a TypeError
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _is_number,
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}


def _type(node, rule, schema, path):
    if not _TYPES[rule](node):
        yield path, f"{node!r} is not of type {rule!r}"


def _enum(node, rule, schema, path):
    if node not in rule:
        yield path, f"{node!r} is not one of {rule!r}"


def _bound(fails, relation):
    def check(node, rule, schema, path):
        if _is_number(node) and fails(node, rule):
            yield path, f"{node!r} is {relation} {rule!r}"
    return check


def _min_items(node, rule, schema, path):
    if isinstance(node, list) and len(node) < rule:
        yield path, f"{node!r} " + ("should be non-empty" if rule == 1
                                    else "is too short")


def _items(node, rule, schema, path):
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _schema_errors(item, rule, path + (i,))


def _properties(node, rule, schema, path):
    if isinstance(node, dict):
        for key, sub in rule.items():
            if key in node:
                yield from _schema_errors(node[key], sub, path + (key,))


def _additional_properties(node, rule, schema, path):
    # false on every object of the schema (the tests check), so rule is
    # not read
    if isinstance(node, dict):
        extras = sorted((k for k in node if k not in schema.get("properties", {})),
                        key=str)
        if extras:
            yield path, ("Additional properties are not allowed ("
                         + ", ".join(map(repr, extras))
                         + (" was" if len(extras) == 1 else " were")
                         + " unexpected)")


def _required(node, rule, schema, path):
    if isinstance(node, dict):
        for key in rule:
            if key not in node:
                yield path, f"{key!r} is a required property"


# the keywords config_schema.json uses; any other key of a schema node
# ("description", "default", ...) states nothing to check
_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "minItems": _min_items,
    "items": _items,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "required": _required,
}


def _schema_errors(node, schema: dict, path: tuple = ()):
    """Yield (key path, message) for each way node breaks schema.

    A schema node's keywords are visited in the node's own order, so that
    two errors on one path come out in the order jsonschema gives them.
    """
    for key, rule in schema.items():
        check = _KEYWORDS.get(key)
        if check is not None:
            yield from check(node, rule, schema, path)


@dataclass(frozen=True)
class ExperimentConfig:
    process: ProcessConfig
    seed: int
    out_dir: str
    # the validated document with schema defaults; each subcommand reads
    # its own block by key
    blocks: dict


def _apply_defaults(node: dict, schema_node: dict, path: str):
    for key, sub in schema_node.get("properties", {}).items():
        here = f"{path}.{key}" if path else key
        if sub.get("type") == "object":
            node.setdefault(key, {})
            _apply_defaults(node[key], sub, here)
        elif key not in node and "default" in sub:
            node[key] = sub["default"]
            log.info("default applied: %s = %r", here, sub["default"])


def _check_finite(node, path: str = "") -> None:
    # the schema admits YAML .nan, .inf and integers past the float range;
    # no key takes them
    if (isinstance(node, (int, float)) and not isinstance(node, bool)
            and not abs(node) <= sys.float_info.max):
        raise ConfigError("must be a finite number", path)
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, sub in items:
            _check_finite(sub, f"{path}.{key}" if path else str(key))


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a YAML document and build the experiment description.

    overrides (the command line's seed and output) replace their keys
    before validation.  Defaults from the schema are applied and echoed
    to the run log; violations carry the offending key path.
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"not parseable as YAML: {e}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping")
    data.update(overrides or {})

    errors = sorted(_schema_errors(data, _schema()), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise ConfigError(message, ".".join(map(str, path)))
    _check_finite(data)

    _apply_defaults(data, _schema(), "")
    if "samples" in data["verify"]:
        log.warning("verify.samples is not read: every check is deterministic"
                    " and c1_attractor evolves a fixed %d members", _C1_MEMBERS)

    weight = WeightFunction(data["weight"])
    grid = Grid1D(data["half_length"], data["n_points"])
    try:
        kernel = make_bump_kernel(grid)
    except GridTooCoarseError as e:
        raise ConfigError(str(e), "n_points")

    g = Nonlinearity.tanh() if data["model"] == "tanh" else Nonlinearity.zero()
    fb = data["field"]
    try:
        field = ExternalField(fb["family"], fb["amplitude"], fb["omega"])
    except ValueError as e:
        raise ConfigError(str(e), "field.amplitude")

    if field.family != "zero":
        # the fold height, which compute_h_star returns as h* wherever it
        # confirms a bistable regime; its two confirming scans run only
        # where h* is printed or bounds a check
        h_star = _fold_peak(data["beta"], g)
        if 0.0 < h_star <= field.sup:
            raise ConfigError(
                f"field amplitude {field.sup} is not below the bistability "
                f"threshold h* = {h_star:.6f} at beta = {data['beta']}",
                "field.amplitude")

    process = ProcessConfig(beta=data["beta"], p=float(data["p"]), grid=grid,
                            weight=weight, kernel=kernel, nonlinearity=g,
                            field=field, dt=data["dt"])

    sim = data["simulate"]
    spans = {"simulate.t": (sim["tau"], sim["t"])}
    for name in ("attractor", "sweep"):
        blk = data[name]
        try:
            taus = _ladder_taus(blk["t"], blk["tau_ladder"])
        except (ValueError, TimeOrderError) as e:
            raise ConfigError(str(e), f"{name}.tau_ladder")
        spans[f"{name}.tau_ladder"] = (min(taus), blk["t"])
    for key, (tau, t) in spans.items():
        try:
            _step_schedule(tau, t, process.dt)
        except TimeOrderError as e:
            raise ConfigError(str(e), key)

    return ExperimentConfig(process=process, seed=data["seed"],
                            out_dir=data["output"], blocks=data)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _format_column(col) -> list[str]:
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return [format(v, ".17g") for v in col.tolist()]
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    return [_fmt(v) for v in col]


def _write_csv(path: str, names: list[str], *columns) -> None:
    """Write a versioned CSV from equal-length columns, one per name.

    A float or integer array column is formatted in one pass; the cells of
    any other column go through _fmt one by one.  Both print the same text.
    """
    _write_cells(path, names, [_format_column(col) for col in columns])


def _write_cells(path: str, names: list[str], cells: list[list[str]]) -> None:
    """Write a versioned CSV from columns already formatted as text."""
    with open(path, "w", newline="") as f:
        f.write(f"# nlfield {__version__}\n")
        f.write(",".join(names) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _initial_field(exp: ExperimentConfig) -> WeightedField:
    cfg = exp.process
    init = exp.blocks["simulate"]["initial"]
    if init["kind"] == "constant":
        vals = np.full(cfg.grid.n_points, float(init["value"]))
        return WeightedField(cfg.grid, cfg.weight, vals)
    rng = np.random.default_rng(exp.seed)
    x = cfg.grid.nodes
    u = np.zeros_like(x)
    for _ in range(6):
        u += rng.normal(scale=0.3) * np.cos(rng.uniform(0.05, 2.0) * x
                                            + rng.uniform(0, 2 * np.pi))
    u += rng.normal(scale=0.05, size=x.shape)
    f = WeightedField(cfg.grid, cfg.weight, u)
    n = weighted_norm(f, cfg.p)
    return f.with_values(u * (init["norm"] / n))


def _cmd_simulate(exp: ExperimentConfig) -> int:
    cfg = exp.process
    blk = exp.blocks["simulate"]
    u0 = _initial_field(exp)
    w = quad_weights(cfg.weight, cfg.grid)
    # the interior is one run of nodes [lo, hi) clear of both ends, so its
    # centred differences need no one-sided end values
    lo, hi = np.flatnonzero(cfg.grid.interior_mask())[[0, -1]] + (0, 1)
    two_dx = 2.0 * cfg.grid.spacing
    rows = []
    # snapshots: equally spaced over the observer calls (tau and each step)
    calls = _step_schedule(blk["tau"], blk["t"], cfg.dt)[0] + 1
    picks = set(np.linspace(0, calls - 1, min(blk["snapshots"], calls)).round().astype(int))
    fields = []

    def watch(s, vals):
        if len(rows) in picks:
            fields.append((s, vals))
        # max |v| is the larger of max v and -min v, and dividing by 2 dx
        # after taking it rounds alike; abs turns a -0.0 max into the 0.0
        # that np.abs gives
        d = vals[lo + 1:hi + 1] - vals[lo - 1:hi - 1]
        rows.append((s, _lp_norm(vals, w, cfg.p), abs(max(vals.max(), -vals.min())),
                     abs(max(d.max(), -d.min())) / two_dx))

    # one G evaluation per step, as in a ladder restart (dynamics docstring)
    _integrate(u0.values, blk["tau"], blk["t"], cfg, observer=watch, carry=[])
    _write_csv(os.path.join(exp.out_dir, "trajectory.csv"),
               ["t", "norm", "sup", "interior_max_slope"],
               *np.array(rows, dtype=float).T)

    # the node column is the same in every snapshot and the time column
    # one repeated cell, so each is formatted once
    x = _format_column(cfg.grid.nodes)
    for i, (s, vals) in enumerate(fields):
        _write_cells(os.path.join(exp.out_dir, f"snapshot_{i:03d}.csv"),
                     ["t", "x", "u"], [[_fmt(float(s))] * len(x), x, _format_column(vals)])
    return 0


def _cmd_attractor(exp: ExperimentConfig) -> int:
    cfg = exp.process
    blk = exp.blocks["attractor"]
    sample = approximate_pullback_attractor(blk["t"], cfg, blk["n_samples"],
                                            blk["tau_ladder"], seed=exp.seed)
    x = cfg.grid.nodes
    k = len(sample.members)
    _write_csv(os.path.join(exp.out_dir, "members.csv"),
               ["member", "x", "value"], np.repeat(np.arange(k), len(x)),
               np.tile(x, k), np.concatenate([m.values for m in sample.members]))
    meta = [("t", sample.t), ("n_members", len(sample)),
            ("converged", sample.converged), ("seed", sample.seed),
            ("config_digest", sample.digest),
            ("deepest_tau", min(sample.taus)), ("ladder_step", sample.step),
            ("ladder_step_error", sample.step_error)]
    meta += [(f"rung_gap_{i}", g) for i, g in enumerate(sample.rung_gaps)]
    meta += [(f"member_norm_{i}", weighted_norm(m, cfg.p))
             for i, m in enumerate(sample.members)]
    _write_csv(os.path.join(exp.out_dir, "attractor_meta.csv"),
               ["key", "value"], *zip(*meta))
    if not sample.converged:
        log.warning("attractor run did not stabilize over the ladder")
        return 1
    return 0


def _cmd_hstar(exp: ExperimentConfig) -> int:
    cfg = exp.process
    h_star = compute_h_star(cfg.beta, cfg.nonlinearity)
    ladder = exp.blocks["hstar"].get("h_ladder")
    if ladder is None:
        if h_star > 0.0:
            ladder = (0.0, 0.5 * h_star, max(h_star - 1e-3, 0.0),
                      h_star + 1e-3, 1.5 * h_star)
        else:
            ladder = (0.0, 0.25, 0.5)
    counts = [count_roots(cfg.beta, h, cfg.nonlinearity).count for h in ladder]
    _write_csv(os.path.join(exp.out_dir, "hstar.csv"), ["h", "root_count"],
               ladder, counts)
    print(f"h_star = {h_star:.17g}")
    return 0


def _cmd_verify(exp: ExperimentConfig) -> int:
    blk = exp.blocks["verify"]
    reports = battery(exp.process, names=blk.get("checks"), seed=exp.seed)
    ratios = [r.measured / r.theoretical if r.theoretical else math.nan
              for r in reports]
    _write_csv(os.path.join(exp.out_dir, "verify.csv"),
               ["name", "theoretical", "measured", "margin", "passed",
                "seed", "config_digest", "ratio"],
               *zip(*((r.name, r.theoretical, r.measured, r.margin, r.passed,
                       r.seed, r.digest, q) for r, q in zip(reports, ratios))))
    for r, q in zip(reports, ratios):
        marker = "pass" if r.passed else "FAIL"
        log.info("%-20s %s  measured %.6g vs bound %.6g (ratio %.3g)", r.name,
                 marker, r.measured, r.theoretical, q)
    vacuous = [f"{r.name} ({q:.2g})" for r, q in zip(reports, ratios)
               if q < VACUOUS_RATIO]
    if vacuous:
        log.warning("vacuous bounds, measured/theoretical below %g: %s",
                    VACUOUS_RATIO, ", ".join(vacuous))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_sweep(exp: ExperimentConfig) -> int:
    blk = exp.blocks["sweep"]
    curve = upper_semicontinuity_sweep(blk["t"], exp.process, blk["epsilons"],
                                       blk["n_samples"], blk["tau_ladder"],
                                       seed=exp.seed)
    _write_csv(os.path.join(exp.out_dir, "sweep.csv"),
               ["epsilon", "distance", "envelope", "converged"],
               curve.epsilons, curve.distances, curve.envelopes,
               curve.converged)
    if not all(curve.converged):
        log.warning("sweep contains non-stabilized attractor runs")
        return 1
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "attractor": _cmd_attractor,
    "hstar": _cmd_hstar,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlfield",
        description="Numerical laboratory for a nonlocal evolution equation "
                    "in weighted L^p spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "integrate one trajectory and record norm diagnostics",
        "attractor": "approximate the pullback attractor at a fixed time",
        "hstar": "compute the bistability threshold and a root-count table",
        "verify": "run the inequality check battery",
        "sweep": "attractor displacement under shrinking field perturbations",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="YAML experiment file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the output directory")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2

    overrides = {"seed": args.seed, "output": args.out}
    try:
        exp = parse_config(text, {k: v for k, v in overrides.items() if v is not None})
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    created = not os.path.isdir(exp.out_dir)
    try:
        os.makedirs(exp.out_dir, exist_ok=True)
    except OSError as e:
        print(f"error: output: cannot create {exp.out_dir!r}: {e.strerror}",
              file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command](exp)
    except NlfieldError as e:
        print(f"error: {e}", file=sys.stderr)
        # a run rejected before writing anything leaves no empty directory
        # it made itself; one that existed before stays
        if created and not os.listdir(exp.out_dir):
            os.rmdir(exp.out_dir)
        return 2


if __name__ == "__main__":
    sys.exit(main())
