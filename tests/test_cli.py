"""Config parsing and command line driver tests.

Commands run in process through main(argv); CSV artifacts land in
pytest tmp directories.  Small grids (1024 nodes) keep the runs fast;
the physics on them is checked in the module test files.  The rerun
tests at the end run every shipped config through every subcommand,
twice, and one attractor run in a fresh interpreter.
"""

import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlfield as nf
import nlfield.attractor
import nlfield.bounds
from nlfield import bifurcation, cli, dynamics
from nlfield.bifurcation import compute_h_star, count_roots, tanh_h_star
from nlfield.bounds import CHECK_NAMES, BoundReport, c1_regularity_bound
from nlfield.cli import main, parse_config
from nlfield.errors import BlowUpError, ConfigError
from nlfield.weighted_space import WeightedField, _lp_norm, quad_weights, \
    weighted_norm


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_rows(path):
    """CSV body as list of row lists, skipping the version comment."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# nlfield ")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_minimal_config_gets_schema_defaults(caplog):
    with caplog.at_level(logging.INFO, logger="nlfield.cli"):
        exp = parse_config("beta: 2.0\n")
    cfg = exp.process
    assert cfg.beta == 2.0
    assert cfg.p == 2.0
    assert cfg.dt == 0.05
    assert cfg.grid.half_length == 50.0
    assert cfg.grid.n_points == 4096
    assert cfg.weight.kind == "cauchy"
    assert cfg.nonlinearity.name == "tanh"
    assert cfg.field.family == "zero"
    assert exp.seed == 0
    assert exp.out_dir == "out"
    sim = exp.blocks["simulate"]
    assert sim["tau"] == 0.0 and sim["t"] == 10.0
    assert sim["initial"]["kind"] == "constant" and sim["snapshots"] == 0
    assert exp.blocks["attractor"]["tau_ladder"] == [-4.0, -8.0, -16.0, -32.0]
    # an absent checks list stays absent: battery reads None as every check
    # in CHECK_NAMES order (test_verify_without_checks_asks_for_every_check)
    assert "checks" not in exp.blocks["verify"]
    assert exp.blocks["sweep"]["epsilons"] == [0.4, 0.2, 0.1, 0.05, 0.0]
    assert "h_ladder" not in exp.blocks["hstar"]
    # every filled-in default is echoed with its key path
    messages = [r.getMessage() for r in caplog.records]
    assert any("default applied: dt = 0.05" in m for m in messages)
    assert any("default applied: simulate.initial.kind = 'constant'" in m
               for m in messages)


def test_every_schema_default_lands_in_the_document():
    doc = parse_config("beta: 2.0\n").blocks
    seen = []

    def walk(schema_node, node, path):
        for key, sub in schema_node.get("properties", {}).items():
            here = f"{path}.{key}" if path else key
            if sub.get("type") == "object":
                walk(sub, node[key], here)
            elif "default" in sub:
                assert node[key] == sub["default"], here
                seen.append(here)

    walk(cli._schema(), doc, "")
    # the walk reached every default the schema states, nested ones included
    assert len(seen) == json.dumps(cli._schema()).count('"default":')
    assert "simulate.initial.norm" in seen and "sweep.n_samples" in seen


def test_explicit_values_are_not_defaulted(caplog):
    with caplog.at_level(logging.INFO, logger="nlfield.cli"):
        exp = parse_config("beta: 1.5\ndt: 0.02\n")
    assert exp.process.dt == 0.02
    assert not any("default applied: dt" in r.getMessage()
                   for r in caplog.records)


def test_missing_beta_rejected():
    with pytest.raises(ConfigError, match="beta"):
        parse_config("p: 2.0\n")


def test_negative_beta_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("beta: -1.0\n")
    assert err.value.key_path == "beta"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="wavelength"):
        parse_config("beta: 2.0\nwavelength: 3\n")


def test_oversized_time_step_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("beta: 2.0\ndt: 0.2\n")
    assert err.value.key_path == "dt"


def test_non_mapping_documents_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="YAML"):
        parse_config("beta: [unclosed\n")


def test_field_amplitude_must_stay_below_threshold(tmp_path, capsys):
    doc = "beta: 2.0\nfield:\n  family: pulsed\n  amplitude: 0.3\n"
    with pytest.raises(ConfigError, match="threshold") as err:
        parse_config(doc)
    assert err.value.key_path == "field.amplitude"
    # below threshold the same amplitude parses fine
    parse_config(doc.replace("0.3", "0.2"))
    # weak-gain regime has no threshold to enforce
    parse_config(doc.replace("beta: 2.0", "beta: 0.9"))
    # the guard's fold height is compute_h_star's h* to the bit: an
    # amplitude at h* exits 2, the next double below it parses
    h_star = compute_h_star(2.0, nf.Nonlinearity.tanh())
    at = doc.replace("0.3", repr(h_star)) + f"output: {tmp_path / 'run'}\n"
    assert main(["simulate", "--config", write_config(tmp_path, at)]) == 2
    assert capsys.readouterr().err.startswith("error: field.amplitude: ")
    parse_config(doc.replace("0.3", repr(math.nextafter(h_star, 0.0))))


def test_amplitude_guard_runs_no_scan(tmp_path, monkeypatch):
    # the guard reads the fold height; the two scans that confirm it as h*
    # run only where h* is printed or bounds a check
    scans = []

    def counting(beta, h, g):
        scans.append(h)
        return count_roots(beta, h, g)

    def uncalled(beta, g):
        raise AssertionError("h* computed outside hstar and c1_attractor")

    monkeypatch.setattr(bifurcation, "count_roots", counting)
    monkeypatch.setattr(cli, "count_roots", counting)
    sweep = Path(__file__).parent.parent / "configs" / "sweep.yaml"
    exp = parse_config(sweep.read_text(encoding="utf-8"))
    assert exp.process.field.family == "pulsed" and scans == []

    monkeypatch.setattr(cli, "compute_h_star", uncalled)
    monkeypatch.setattr(nlfield.bounds, "compute_h_star", uncalled)
    doc = (SMALL.format(beta=2.0, out=tmp_path / "run")
           + "field:\n  family: pulsed\n  amplitude: 0.2\nsimulate:\n  t: 0.5\n")
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    assert scans == []


def test_end_time_before_start_rejected():
    doc = "beta: 2.0\nsimulate:\n  tau: 2.0\n  t: 1.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.key_path == "simulate.t"


def test_bad_tau_ladders_rejected():
    base = "beta: 2.0\nattractor:\n  t: 0.0\n  tau_ladder: [{}]\n"
    with pytest.raises(ConfigError, match="decreasing") as err:
        parse_config(base.format("-4.0, -2.0"))
    assert err.value.key_path == "attractor.tau_ladder"
    with pytest.raises(ConfigError, match="precede"):
        parse_config(base.format("1.0"))


def test_zero_model_turns_coupling_off():
    exp = parse_config("beta: 2.0\nmodel: zero\n")
    assert exp.process.nonlinearity.name == "zero"
    assert exp.process.nonlinearity(3.7) == 0.0


def test_coarse_grid_rejected_via_config():
    with pytest.raises(ConfigError) as err:
        parse_config("beta: 2.0\nn_points: 512\n")
    assert err.value.key_path == "n_points"


def test_schema_boundaries_settle_grid_and_process_checks():
    # the schema states every condition Grid1D and ProcessConfig raise on,
    # so values at its edges either parse or fail as a ConfigError with
    # a key path, never as a bare ValueError
    with pytest.raises(ConfigError) as err:
        parse_config("beta: 2.0\nhalf_length: 4\nn_points: 80\n")
    assert err.value.key_path == "n_points"
    exp = parse_config("beta: 2.0\nhalf_length: 4\nn_points: 81\n")
    assert exp.process.grid.spacing < 0.1
    assert parse_config("beta: 2.0\ndt: 0.1\n").process.dt == 0.1
    assert parse_config("beta: 2.0\np: 1.000001\n").process.p == 1.000001
    assert parse_config("beta: 1.0e-300\n").process.beta == 1.0e-300


def test_zero_field_with_amplitude_exits_2_naming_amplitude(tmp_path, capsys):
    doc = "beta: 2.0\nfield:\n  family: zero\n  amplitude: 0.3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.key_path == "field.amplitude"
    path = write_config(tmp_path, doc)
    assert main(["hstar", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert ("error: field.amplitude: zero field must have zero amplitude"
            in capsys.readouterr().err)


def test_empty_document_exits_2_naming_beta(tmp_path, capsys):
    path = write_config(tmp_path, "")
    assert main(["hstar", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "error: 'beta' is a required property" in capsys.readouterr().err


# YAML reads 4096.0 as a float; each integer key must reject it at parse
# time instead of crashing in the command that consumes it
INTEGRAL_FLOATS = [
    ("simulate", "n_points: 4096.0\n", "n_points", "4096.0"),
    ("simulate", "seed: 3.0\nsimulate:\n  initial:\n    kind: random\n", "seed", "3.0"),
    ("simulate", "simulate:\n  snapshots: 2.0\n", "simulate.snapshots", "2.0"),
    ("attractor", "attractor:\n  n_samples: 3.0\n", "attractor.n_samples", "3.0"),
    ("sweep", "sweep:\n  n_samples: 3.0\n", "sweep.n_samples", "3.0"),
    ("verify", "verify:\n  samples: 4.0\n", "verify.samples", "4.0"),
]


@pytest.mark.parametrize("command,doc,key_path,value", INTEGRAL_FLOATS,
                         ids=[case[2] for case in INTEGRAL_FLOATS])
def test_integral_float_at_integer_key_exits_2(command, doc, key_path, value,
                                               tmp_path, capsys):
    path = write_config(tmp_path, "beta: 2.0\n" + doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error: {key_path}: {value} is not of type 'integer'" in err.splitlines()
    assert "Traceback" not in err


# an integer past the float range must stop at parse time, before a
# command's float() raises OverflowError on it
BIG = "1" + "0" * 400
NON_FINITE = [
    pytest.param("beta: 2.0\nsimulate:\n  t: .inf\n", "simulate.t",
                 id="simulate.t-inf"),
    pytest.param("beta: 2.0\nattractor:\n  t: .inf\n", "attractor.t",
                 id="attractor.t-inf"),
    pytest.param("beta: 2.0\nattractor:\n  tau_ladder: [.nan]\n",
                 "attractor.tau_ladder.0", id="attractor.tau_ladder.0-nan"),
    ("beta: .nan\n", "beta"),
    ("beta: .inf\n", "beta"),
    pytest.param("beta: 2.0\nfield:\n  omega: .nan\n", "field.omega",
                 id="field.omega-nan"),
    pytest.param("beta: 2.0\nsweep:\n  epsilons: [.nan]\n", "sweep.epsilons.0",
                 id="sweep.epsilons.0-nan"),
    pytest.param("beta: 0.5\nfield:\n  family: pulsed\n  amplitude: .inf\n",
                 "field.amplitude", id="field.amplitude-inf"),
    pytest.param(f"beta: {BIG}\n", "beta", id="beta-1e400"),
    pytest.param(f"beta: 2.0\np: {BIG}\n", "p", id="p-1e400"),
    pytest.param(f"beta: 2.0\nhalf_length: {BIG}\n", "half_length",
                 id="half_length-1e400"),
    pytest.param(f"beta: 2.0\nn_points: {BIG}\n", "n_points", id="n_points-1e400"),
]


@pytest.mark.parametrize("doc,key_path", NON_FINITE)
def test_non_finite_numbers_rejected_with_key_path(doc, key_path, tmp_path, capsys):
    with pytest.raises(ConfigError, match="finite") as err:
        parse_config(doc)
    assert err.value.key_path == key_path
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {key_path}: must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("doc,key_path", [
    ("simulate: {t: 1.0e+300}\n", "simulate.t"),
    ("attractor: {tau_ladder: [-1.0e+300]}\n", "attractor.tau_ladder"),
    ("sweep: {tau_ladder: [-1.0e+300]}\n", "sweep.tau_ladder"),
    ("dt: 1.0e-300\n", "simulate.t"),  # simulate's default span 10 first
], ids=["simulate", "attractor", "sweep", "dt"])
def test_span_too_long_to_schedule_exits_2(doc, key_path, tmp_path, capsys):
    # past 1e8 steps of dt the step schedule refuses a span; parse_config
    # asks it for each stated span, so the run stops before it starts
    path = write_config(tmp_path, "beta: 2.0\nn_points: 1024\n" + doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key_path}: a span of ")
    assert " steps of dt " in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_span_of_exactly_max_steps_is_accepted():
    # 5e6 / 0.05 is 1e8 steps, the most a span may take; parsed, not run
    assert parse_config("beta: 2.0\nsimulate: {t: 5.0e+6}\n").blocks[
        "simulate"]["t"] == 5.0e6
    with pytest.raises(ConfigError, match="steps of dt"):
        parse_config("beta: 2.0\nsimulate: {t: 5.000001e+6}\n")


@pytest.mark.parametrize("check,span", [
    ("absorbing", 4.60517), ("w_bound", 8), ("gronwall_continuity", 1),
])
def test_verify_span_too_long_to_schedule_exits_2(check, span, tmp_path, capsys,
                                                   monkeypatch):
    # every stated span is short enough; the check's own span is not
    def refuse(*args):
        raise AssertionError("a step was taken")

    # with the limit dropped the first step fails at once, instead of looping
    monkeypatch.setattr(dynamics, "_step_raw", refuse)
    doc = ("beta: 2.0\nn_points: 1024\ndt: 1.0e-300\nsimulate: {tau: 0, t: 0}\n"
           "attractor: {tau_ladder: [-1.0e-295]}\nsweep: {tau_ladder: [-1.0e-295]}\n"
           f"verify: {{checks: [{check}]}}\n")
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: a span of {span:g} needs {span / 1e-300:.3g} steps "
                        "of dt 1e-300, more than 1e+08\n")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# command runs
# ---------------------------------------------------------------------------

SMALL = """\
beta: {beta}
n_points: 1024
output: {out}
"""


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["hstar", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, "beta: -3\n")
    rc = main(["hstar", "--config", path])
    assert rc == 2
    assert "error: beta" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_override_exits_2_naming_seed(seed, tmp_path, capsys):
    # an integer reaches the schema as the document's seed; a non-integer
    # stops in argparse
    path = write_config(tmp_path, SMALL.format(beta=2.0, out=tmp_path / "o"))
    argv = ["verify", "--config", path, "--seed", seed]
    if seed == "x":
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert ("error: seed: -1 is less than the minimum of 0"
                in capsys.readouterr().err)


def test_seed_override_is_validated_in_place_of_the_file_seed(tmp_path, capsys):
    doc = SMALL.format(beta=2.0, out=tmp_path / "o") + "seed: -3\n"
    path = write_config(tmp_path, doc)
    assert main(["hstar", "--config", path]) == 2
    assert "error: seed: -3 is less than the minimum of 0" in capsys.readouterr().err
    assert main(["hstar", "--config", path, "--seed", "2"]) == 0
    assert parse_config(doc, {"seed": 2}).seed == 2


def test_seed_override_equal_to_the_file_seed_writes_the_same_bytes(tmp_path):
    # a shallow bistable ladder, so that the members depend on the seed
    doc = (SMALL.format(beta=2.0, out=tmp_path / "plain") + "seed: 0\n"
           + "attractor:\n  t: 0.0\n  n_samples: 4\n  tau_ladder: [-0.5, -1.0]\n")
    path = write_config(tmp_path, doc)
    main(["attractor", "--config", path])
    for seed in ("0", "1"):
        main(["attractor", "--config", path, "--seed", seed,
              "--out", str(tmp_path / seed)])
    plain = (tmp_path / "plain" / "members.csv").read_bytes()
    assert (tmp_path / "0" / "members.csv").read_bytes() == plain
    assert (tmp_path / "1" / "members.csv").read_bytes() != plain


@pytest.mark.parametrize("out,reason", [
    ("afile", "File exists"),
    ("afile/sub", "Not a directory"),
], ids=["existing_file", "below_a_file"])
@pytest.mark.parametrize("via_config", [False, True], ids=["out_flag", "output_key"])
def test_uncreatable_output_exits_2_naming_output(out, reason, via_config,
                                                  tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    target = tmp_path / out
    path = write_config(tmp_path, SMALL.format(
        beta=2.0, out=target if via_config else tmp_path / "o"))
    argv = ["hstar", "--config", path]
    if not via_config:
        argv += ["--out", str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output: ")
    assert reason in err


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).parent.parent / "configs").glob("*.yaml")),
    ids=lambda p: p.name)
def test_shipped_configs_are_valid(path):
    parse_config(path.read_text(encoding="utf-8"))


def test_hstar_command_prints_threshold_and_table(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_config(tmp_path, SMALL.format(beta=2.0, out=out))
    rc = main(["hstar", "--config", path])
    assert rc == 0
    assert "h_star = 0.26641998767677599" in capsys.readouterr().out

    header, rows = read_rows(out / "hstar.csv")
    assert header == ["h", "root_count"]
    counts = [int(r[1]) for r in rows]
    assert counts == [3, 3, 3, 1, 1]
    h_star = 0.26641998767677599
    assert abs(h_star - tanh_h_star(2.0)) <= 1e-15
    assert float(rows[1][0]) == pytest.approx(0.5 * h_star, rel=1e-15)


def test_hstar_custom_ladder(tmp_path):
    out = tmp_path / "run"
    doc = SMALL.format(beta=2.0, out=out) + "hstar:\n  h_ladder: [0.0, 0.5]\n"
    path = write_config(tmp_path, doc)
    assert main(["hstar", "--config", path]) == 0
    _, rows = read_rows(out / "hstar.csv")
    assert [float(r[0]) for r in rows] == [0.0, 0.5]
    assert [int(r[1]) for r in rows] == [3, 1]


def test_hstar_on_pulsed_config_computes_threshold_once(tmp_path, capsys,
                                                       monkeypatch):
    # the amplitude guard reads the fold height; the command alone
    # computes the confirmed h* it prints
    calls = []

    def counting(beta, g):
        calls.append(beta)
        return compute_h_star(beta, g)

    monkeypatch.setattr(cli, "compute_h_star", counting)
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "field:\n  family: pulsed\n  amplitude: 0.2\n")
    assert main(["hstar", "--config", write_config(tmp_path, doc)]) == 0
    assert calls == [2.0]
    assert "h_star = 0.26641998767677599" in capsys.readouterr().out
    assert abs(0.26641998767677599 - tanh_h_star(2.0)) <= 1e-15
    _, rows = read_rows(out / "hstar.csv")
    assert [int(r[1]) for r in rows] == [3, 3, 3, 1, 1]


def test_verify_on_pulsed_config_computes_threshold_once(tmp_path,
                                                         monkeypatch):
    # the amplitude guard reads the fold height; c1_attractor alone
    # computes the confirmed h* it bounds with
    calls, returned, bounded = [], [], []

    def counting(beta, g):
        calls.append(beta)
        returned.append(compute_h_star(beta, g))
        return returned[-1]

    def spy_bound(cfg, h_star):
        bounded.append(h_star)
        return c1_regularity_bound(cfg, h_star)

    monkeypatch.setattr(cli, "compute_h_star", counting)
    monkeypatch.setattr(nlfield.bounds, "compute_h_star", counting)
    monkeypatch.setattr(nlfield.bounds, "c1_regularity_bound", spy_bound)
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "field:\n  family: pulsed\n  amplitude: 0.2\n"
             "verify:\n  checks: [c1_attractor]\n")
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
    assert calls == [2.0]
    # the bound takes the confirmed h* itself, not a neighbouring double
    # that rounds to the same bound
    assert [h.hex() for h in bounded] == [h.hex() for h in returned]
    _, rows = read_rows(out / "verify.csv")
    assert float(rows[0][1]) == c1_regularity_bound(
        parse_config(doc).process, returned[0])


@pytest.mark.parametrize("command", ["hstar", "verify"])
def test_misplaced_fold_exits_2(tmp_path, capsys, monkeypatch, command):
    # a fold height 1% too high leaves one root just below it: the guard
    # passes amplitude 0.2, and the scans that hstar and c1_attractor run
    # reject the fold with NotBistableError, exit 2
    true_peak = bifurcation._fold_peak
    monkeypatch.setattr(bifurcation, "_fold_peak",
                        lambda beta, g: 1.01 * true_peak(beta, g))
    doc = (SMALL.format(beta=2.0, out=tmp_path / "run")
           + "field:\n  family: pulsed\n  amplitude: 0.2\n"
             "verify:\n  checks: [c1_attractor]\n")
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not confirmed" in err


ZERO_MODEL = SMALL + "model: zero\n"


def test_hstar_on_zero_model_is_zero(tmp_path, capsys):
    # a response without a three-root regime has h* = 0, not an error
    out = tmp_path / "run"
    path = write_config(tmp_path, ZERO_MODEL.format(beta=2.0, out=out))
    assert main(["hstar", "--config", path]) == 0
    assert "h_star = 0\n" in capsys.readouterr().out
    _, rows = read_rows(out / "hstar.csv")
    assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.5]
    assert [int(r[1]) for r in rows] == [1, 1, 1]


def test_pulsed_field_on_zero_model_is_not_capped(tmp_path, capsys):
    out = tmp_path / "run"
    doc = (ZERO_MODEL.format(beta=2.0, out=out)
           + "field:\n  family: pulsed\n  amplitude: 0.5\n")
    assert main(["hstar", "--config", write_config(tmp_path, doc)]) == 0
    assert "h_star = 0\n" in capsys.readouterr().out


def test_simulate_single_instant(tmp_path):
    out = tmp_path / "run"
    doc = SMALL.format(beta=2.0, out=out) + "simulate:\n  tau: 0.0\n  t: 0.0\n"
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 0
    header, rows = read_rows(out / "trajectory.csv")
    assert header == ["t", "norm", "sup", "interior_max_slope"]
    assert len(rows) == 1
    t, norm, sup, slope = map(float, rows[0])
    assert t == 0.0
    assert sup == 0.5            # default constant initial value
    assert slope == 0.0          # constants have no interior slope
    assert 0.0 < norm < 0.5


def test_simulate_writes_snapshots(tmp_path):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "simulate:\n  tau: 0.0\n  t: 0.5\n  snapshots: 3\n")
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 0

    _, rows = read_rows(out / "trajectory.csv")
    assert len(rows) == 11       # dt 0.05 over [0, 0.5], endpoints included
    times = [float(r[0]) for r in rows]
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.5, abs=1e-12)

    names = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert names == ["snapshot_000.csv", "snapshot_001.csv", "snapshot_002.csv"]
    header, srows = read_rows(out / "snapshot_000.csv")
    assert header == ["t", "x", "u"]
    assert len(srows) == 1024
    assert all(float(r[0]) == 0.0 for r in srows[:5])
    assert float(srows[0][2]) == 0.5


def test_simulate_rows_match_their_snapshots(tmp_path):
    # a snapshot at every observer call, so each trajectory row can be
    # recomputed from the field it describes, with the public functions
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "p: 3.0\nsimulate:\n  tau: 0.0\n  t: 0.5\n  snapshots: 11\n"
             "  initial:\n    kind: random\n    norm: 0.7\n")
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    cfg = parse_config(doc).process
    mask = cfg.grid.interior_mask()
    _, rows = read_rows(out / "trajectory.csv")
    assert len(rows) == 11
    for i, row in enumerate(rows):
        _, srows = read_rows(out / f"snapshot_{i:03d}.csv")
        u = np.array([float(r[2]) for r in srows])
        slope = np.gradient(u, cfg.grid.spacing, edge_order=1)[mask]
        expected = (float(srows[0][0]),
                    weighted_norm(WeightedField(cfg.grid, cfg.weight, u), cfg.p),
                    float(np.max(np.abs(u))), float(np.max(np.abs(slope))))
        assert tuple(float(v) for v in row) == expected
        assert slope.any()


def test_simulate_slope_covers_the_interior_and_no_more(tmp_path, monkeypatch):
    # two observed fields with a step just inside each end of the interior
    # stencil, the left one taller in the first and the right one in the
    # second, and spikes one node further out: a slope range that gains
    # or drops a node at either end misreads one of the rows
    doc = SMALL.format(beta=2.0, out=tmp_path / "run")
    cfg = parse_config(doc).process
    mask = cfg.grid.interior_mask()
    idx = np.flatnonzero(mask)
    lo, hi = idx[0], idx[-1] + 1
    u = np.zeros(cfg.grid.n_points)
    u[[lo - 2, lo - 1, hi, hi + 1]] = -100.0, 3.0, -2.0, 50.0
    v = u.copy()
    v[lo - 1] = 1.0

    def two_fields(u0, tau, t, cfg, observer, carry):
        observer(tau, u)
        observer(t, v)
        return v

    monkeypatch.setattr(cli, "_integrate", two_fields)
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    _, rows = read_rows(tmp_path / "run" / "trajectory.csv")
    expected = []
    for f in (u, v):
        slope = np.gradient(f, cfg.grid.spacing, edge_order=1)[mask]
        expected.append([np.max(np.abs(f)), np.max(np.abs(slope))])
    assert [[float(c) for c in row[2:]] for row in rows] == expected
    two_dx = 2.0 * cfg.grid.spacing
    assert expected == [[100.0, 3.0 / two_dx], [100.0, 2.0 / two_dx]]


@pytest.mark.parametrize("half_length,n_points", [
    (4, 81), (4, 100), (50.0, 1009), (50.0, 4090), (50.0, 4096), (7.3, 151)])
def test_simulate_interior_is_one_run_clear_of_both_ends(half_length, n_points):
    # simulate takes the interior slope from the neighbours of the nodes
    # lo..hi-1 of the mask's index range, so the mask must be exactly that
    # range and leave both end nodes out
    grid = parse_config(f"beta: 2.0\nhalf_length: {half_length}\n"
                        f"n_points: {n_points}\n").process.grid
    idx = np.flatnonzero(grid.interior_mask())
    lo, hi = idx[0], idx[-1] + 1
    assert idx.tolist() == list(range(lo, hi))
    assert lo >= 1 and hi <= n_points - 1


def test_simulate_negative_zero_start_reads_zero(tmp_path):
    # np.abs reads -0.0 as 0; the observer's max and -min must print the
    # same "0", not "-0"
    out = tmp_path / "run"
    doc = (ZERO_MODEL.format(beta=2.0, out=out)
           + "simulate:\n  t: 0.1\n  initial:\n    value: -0.0\n")
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    _, rows = read_rows(out / "trajectory.csv")
    assert [row[2:] for row in rows] == [["0", "0"]] * 3


def test_write_csv_cells_match_per_cell_format(tmp_path):
    cells = [True, False, 7, np.int64(-3), "key", 0.25, np.float64(2.0 / 3.0),
             -0.0, 5e-324, math.inf, -math.inf, math.nan]
    floats = np.array([0.1, np.float64(2.0 / 3.0), -0.0, 5e-324, math.inf,
                       -math.inf, math.nan, 1e300, -2.5e-308, 123456789.0,
                       1.0, 0.0])
    path = tmp_path / "cells.csv"
    cli._write_csv(str(path), ["cell", "array", "listed"], cells, floats,
                   list(floats))
    header, rows = read_rows(path)
    assert header == ["cell", "array", "listed"]
    assert rows == [[cli._fmt(a), cli._fmt(b), cli._fmt(b)]
                    for a, b in zip(cells, floats)]
    with pytest.raises(ValueError):
        cli._write_csv(str(path), ["a", "b"], [1.0], np.zeros(2))


def test_write_csv_integer_arrays_match_per_cell_format(tmp_path):
    columns = [np.arange(-3, 9), np.arange(12, dtype=np.uint8),
               np.array([0, 1, -1, 2**31 - 1, -2**31, 7] * 2, dtype=np.int32),
               np.array([2**63 - 1, -2**63] + [0] * 10, dtype=np.int64)]
    path = tmp_path / "ints.csv"
    cli._write_csv(str(path), ["a", "b", "c", "d"], *columns)
    _, rows = read_rows(path)
    assert rows == [[cli._fmt(v) for v in row] for row in zip(*columns)]


def test_snapshot_bytes_match_per_cell_format(tmp_path):
    # the node and time columns are formatted once per run and per
    # snapshot; the text must be what _fmt gives cell by cell
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "simulate:\n  tau: 0\n  t: 0.5\n  snapshots: 3\n"
           + "  initial:\n    kind: random\n    norm: 0.7\n")
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    x = parse_config(doc).process.grid.nodes
    for path in sorted(out.glob("snapshot_*.csv")):
        _, rows = read_rows(path)
        t = float(rows[0][0])
        u = [float(r[2]) for r in rows]
        cells = [",".join([cli._fmt(t), cli._fmt(xi), cli._fmt(ui)])
                 for xi, ui in zip(x, u)]
        want = f"# nlfield {cli.__version__}\nt,x,u\n" + "\n".join(cells) + "\n"
        assert path.read_text() == want


def per_cell_text(header, rows):
    """The CSV text _fmt gives cell by cell, for rows of parsed values."""
    lines = [",".join(map(cli._fmt, row)) for row in rows]
    return f"# nlfield {cli.__version__}\n{header}\n" + "".join(f"{s}\n" for s in lines)


NEGATIVE_ZERO_START = "  initial:\n    value: -0.0\n"
RANDOM_START = "  initial:\n    kind: random\n    norm: 0.7\n"


@pytest.mark.parametrize("model,start", [(SMALL, RANDOM_START),
                                         (ZERO_MODEL, NEGATIVE_ZERO_START)],
                         ids=["random", "negative-zero"])
def test_trajectory_bytes_match_per_cell_format(model, start, tmp_path):
    out = tmp_path / "run"
    doc = (model.format(beta=2.0, out=out)
           + "simulate:\n  t: 0.5\n  snapshots: 2\n" + start)
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    path = out / "trajectory.csv"
    _, rows = read_rows(path)
    assert len(rows) == 11
    assert path.read_text() == per_cell_text(
        "t,norm,sup,interior_max_slope", [[float(c) for c in r] for r in rows])
    _, srows = read_rows(out / "snapshot_000.csv")
    # the -0.0 start prints as "-0"
    assert ({r[2] for r in srows} == {"-0"}) == (start == NEGATIVE_ZERO_START)


def test_members_bytes_match_per_cell_format(tmp_path):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "attractor:\n  t: 0.0\n  n_samples: 4\n  tau_ladder: [-0.5, -1.0]\n")
    assert main(["attractor", "--config", write_config(tmp_path, doc)]) == 1
    x = parse_config(doc).process.grid.nodes
    meta = dict(read_rows(out / "attractor_meta.csv")[1])
    k = int(meta["n_members"])
    assert k > 1
    _, rows = read_rows(out / "members.csv")
    keys = [(i, xi) for i in range(k) for xi in x]
    assert [int(r[0]) for r in rows] == [i for i, _ in keys]
    cells = [(i, xi, float(r[2])) for (i, xi), r in zip(keys, rows, strict=True)]
    assert (out / "members.csv").read_text() == per_cell_text("member,x,value", cells)


@pytest.mark.parametrize("chunk", [7, 1000])
def test_bulk_tables_do_not_depend_on_the_write_chunk(chunk, tmp_path, monkeypatch):
    # 1024 nodes and 11 trajectory rows leave a partial last chunk
    # at either size
    def run(name):
        out = tmp_path / name
        doc = (SMALL.format(beta=2.0, out=out) + "simulate:\n  t: 0.5\n  snapshots: 2\n"
               + RANDOM_START + "attractor:\n  t: 0.0\n  n_samples: 4\n"
               "  tau_ladder: [-0.5, -1.0]\n")
        path = write_config(tmp_path, doc, f"{name}.yaml")
        assert main(["simulate", "--config", path]) == 0
        assert main(["attractor", "--config", path]) == 1
        return {p.name: p.read_bytes() for p in out.iterdir()}

    whole = run("whole")
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    assert 1024 % chunk and 11 % chunk
    chunked = run("chunked")
    assert sorted(chunked) == ["attractor_meta.csv", "members.csv", "snapshot_000.csv",
                               "snapshot_001.csv", "trajectory.csv"]
    assert chunked == whole


def test_simulate_n8192_with_snapshots_stays_small(tmp_path):
    # the refined trajectory op's shape over 40 steps: 1.6 MB peak, of
    # which the node rows take about 0.6 MB; the per-cell column lists
    # read 2.2 MB, one whole-file template per snapshot 2.5 MB, and
    # keeping every observed field another 2.6 MB
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out).replace("n_points: 1024", "n_points: 8192")
           + "p: 3.0\nweight: gaussian\n" + PULSED
           + "simulate:\n  t: 2.0\n  snapshots: 4\n" + RANDOM_START)
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 0
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert len(list(out.glob("snapshot_*.csv"))) == 4


def test_simulate_keeps_only_snapshot_fields(tmp_path):
    # 1201 observed fields of 8 kB each; only the 4 picked ones are kept
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "simulate:\n  tau: 0.0\n  t: 60.0\n  snapshots: 4\n")
    path = write_config(tmp_path, doc)
    tracemalloc.start()
    try:
        assert main(["simulate", "--config", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(list(out.glob("snapshot_*.csv"))) == 4
    _, rows = read_rows(out / "snapshot_003.csv")
    assert float(rows[0][0]) == 60.0


def test_simulate_random_initial_hits_target_norm(tmp_path):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "simulate:\n  tau: 0.0\n  t: 0.0\n"
             "  initial:\n    kind: random\n    norm: 0.7\n")
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path]) == 0
    _, rows = read_rows(out / "trajectory.csv")
    assert float(rows[0][1]) == pytest.approx(0.7, rel=1e-12)


PULSED = "field:\n  family: pulsed\n  amplitude: 0.2\n"


def test_simulate_evaluates_g_once_per_step_plus_once(tmp_path, monkeypatch):
    # G at the start for the trapezoid first step, then G at each step's
    # predictor alone; the trapezoid would evaluate it twice per step
    term = dynamics._nonlinear_term
    times = []

    def counting(*args, **kwargs):
        times.append(args[1])
        return term(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_nonlinear_term", counting)
    out = tmp_path / "run"
    # ten steps of 0.05 and a tail of 0.02
    doc = SMALL.format(beta=2.0, out=out) + PULSED + "simulate:\n  t: 0.52\n"
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    _, rows = read_rows(out / "trajectory.csv")
    steps = len(rows) - 1
    assert steps == 11
    assert len(times) == steps + 1
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.52, abs=1e-12)


def test_simulate_steps_like_a_ladder_restart(tmp_path):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out) + PULSED
           + "simulate:\n  t: 2.0\n  initial:\n    kind: random\n")
    assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
    exp = parse_config(doc)
    cfg = exp.process
    u0 = cli._initial_field(exp).values
    w = quad_weights(cfg.weight, cfg.grid)
    carried = _lp_norm(dynamics._integrate(u0, 0.0, 2.0, cfg, carry=[]), w, cfg.p)
    trapezoid = _lp_norm(dynamics._integrate(u0, 0.0, 2.0, cfg), w, cfg.p)
    _, rows = read_rows(out / "trajectory.csv")
    # 17 significant digits give the double back bit for bit
    assert float(rows[-1][1]) == carried != trapezoid


def test_simulate_stepper_converges_at_second_order_below_the_trapezoid():
    # configs/bistable.yaml with its random start (seed 0, norm 1) over
    # [0, 2], weighted l^2 endpoint errors against a dt/64 reference:
    # carried 8.0e-5, 1.1e-5, 2.0e-6, 4.8e-7 (ratios 7.2, 5.5, 4.2, falling
    # to second order from above), trapezoid 5.1e-4, 1.3e-4, 3.4e-5, 8.7e-6
    text = (Path(__file__).parent.parent / "configs" / "bistable.yaml").read_text()
    text = text.replace("    kind: constant\n    value: 0.5\n", "    kind: random\n")
    exp = parse_config(text)
    cfg = exp.process
    assert exp.blocks["simulate"]["initial"]["kind"] == "random"
    u0 = cli._initial_field(exp).values
    w = quad_weights(cfg.weight, cfg.grid)
    ref = dynamics._integrate(u0, 0.0, 2.0, dataclasses.replace(cfg, dt=cfg.dt / 64))

    def errors(carry):
        return [_lp_norm(dynamics._integrate(u0, 0.0, 2.0, dataclasses.replace(cfg, dt=h),
                                             carry=[] if carry else None) - ref, w, cfg.p)
                for h in (0.1, 0.05, 0.025, 0.0125)]

    carried, trapezoid = errors(True), errors(False)
    ratios = [a / b for a, b in zip(carried, carried[1:])]
    assert all(r >= 3.5 for r in ratios)
    assert ratios == sorted(ratios, reverse=True) and ratios[-1] <= 4.5
    assert all(c < t for c, t in zip(carried, trapezoid))


@pytest.mark.parametrize("plant, key_path, axiom", [
    # the FOUND plant that prop_lipschitz passes (0.67 against 1.35)
    (lambda mp: mp.setattr(nf.Nonlinearity, "tanh", classmethod(
        lambda cls: cls("tanh", 1.0, 0.1, nf.K1_TANH, 1.0))),
     "model", "tanh: Lipschitz constant violated on samples"),
    # the tanh^2 factor dropped, which no check sees
    (lambda mp: mp.setattr(nf.ExternalField, "__call__", lambda self, t, s: (
        self.amplitude * 0.5 * (1.0 + math.sin(self.omega * t)) * np.ones_like(s))),
     "field", "pulsed: h(t, 0) must vanish"),
], ids=["lipschitz 0.1", "h(t,0) != 0"])
def test_verify_exits_2_on_a_broken_axiom(plant, key_path, axiom, tmp_path,
                                          monkeypatch, capsys):
    out = tmp_path / "run"
    doc = SMALL.format(beta=2.0, out=out) + PULSED
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path]) == 0
    plant(monkeypatch)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "planted")]) == 2
    assert f"error: {key_path}: axiom violated: {axiom}" in capsys.readouterr().err
    assert not (tmp_path / "planted").exists()


def test_attractor_contraction_run_converges(tmp_path):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=0.5, out=out)
           + "attractor:\n  t: 0.0\n  n_samples: 4\n")
    path = write_config(tmp_path, doc)
    assert main(["attractor", "--config", path]) == 0

    header, rows = read_rows(out / "attractor_meta.csv")
    assert header == ["key", "value"]
    meta = dict(rows)
    assert meta["converged"] == "true"
    assert meta["n_members"] == "1"
    assert meta["seed"] == "0"
    assert float(meta["deepest_tau"]) <= -8.0
    # the ladder runs at a step coarser than dt that its estimate accepts
    assert float(meta["ladder_step"]) > 0.05
    assert 0.0 < float(meta["ladder_step_error"]) <= 1e-4
    # weak gain collapses everything near zero
    assert float(meta["member_norm_0"]) < 1e-3

    header, rows = read_rows(out / "members.csv")
    assert header == ["member", "x", "value"]
    assert len(rows) == 1024
    assert {r[0] for r in rows} == {"0"}


def test_attractor_shallow_ladder_reports_failure(tmp_path, caplog):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "attractor:\n  t: 0.0\n  n_samples: 4\n"
             "  tau_ladder: [-0.5, -1.0]\n")
    path = write_config(tmp_path, doc)
    with caplog.at_level(logging.WARNING):
        rc = main(["attractor", "--config", path])
    assert rc == 1
    meta = dict(read_rows(out / "attractor_meta.csv")[1])
    assert meta["converged"] == "false"
    # the ladder says so once, and the CLI adds nothing
    assert [(r.name, r.getMessage().split(" (")[0]) for r in caplog.records] == [
        ("nlfield.attractor", "tau ladder exhausted without stabilization")]


def test_verify_subset_passes(tmp_path, caplog):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "verify:\n  checks: [lemma1a, prop_lipschitz]\n")
    path = write_config(tmp_path, doc)
    with caplog.at_level(logging.INFO):
        assert main(["verify", "--config", path]) == 0
    messages = [r.getMessage() for r in caplog.records]

    header, rows = read_rows(out / "verify.csv")
    assert header == ["name", "theoretical", "measured", "margin",
                      "passed", "seed", "config_digest", "ratio"]
    assert [r[0] for r in rows] == ["lemma1a", "prop_lipschitz"]
    for r in rows:
        assert r[4] == "true"
        assert float(r[3]) == pytest.approx(float(r[1]) - float(r[2]), rel=1e-12)
        assert r[5] == "0"
        ratio = float(r[2]) / float(r[1])
        assert any(m.startswith(r[0]) and m.endswith(f"(ratio {ratio:.3g})")
                   for m in messages)


def test_verify_ratio_column_flags_vacuous_checks(tmp_path, caplog,
                                                  monkeypatch):
    # measured/theoretical lands last; below VACUOUS_RATIO one warning
    # names the check, a stated 0 reads NaN, and no verdict changes
    reports = [BoundReport(name, theoretical, measured, theoretical - measured,
                           True, 0.0, "d", 0)
               for name, theoretical, measured in (("lemma1a", 2.0, 1.5),
                                                   ("gronwall_continuity", 0.02, 1e-7),
                                                   ("absorbing", 0.0, 0.0))]
    monkeypatch.setattr(cli, "battery", lambda *a, **k: reports)
    out = tmp_path / "run"
    path = write_config(tmp_path, SMALL.format(beta=2.0, out=out))
    with caplog.at_level(logging.WARNING, logger="nlfield.cli"):
        assert main(["verify", "--config", path]) == 0
    header, rows = read_rows(out / "verify.csv")
    assert header[-1] == "ratio"
    assert [r[-1] for r in rows] == ["0.75", format(1e-7 / 0.02, ".17g"), "nan"]
    [warning] = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.WARNING]
    assert warning == ("vacuous bounds, measured/theoretical below 0.001: "
                       "gronwall_continuity (5e-06)")


def test_verify_flags_gronwall_continuity_as_vacuous(tmp_path, caplog):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "verify:\n  checks: [lemma1a, gronwall_continuity]\n")
    with caplog.at_level(logging.WARNING, logger="nlfield.cli"):
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
    _, rows = read_rows(out / "verify.csv")
    ratios = {r[0]: float(r[-1]) for r in rows}
    assert ratios["gronwall_continuity"] < cli.VACUOUS_RATIO < ratios["lemma1a"]
    [warning] = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.WARNING]
    assert "gronwall_continuity" in warning and "lemma1a" not in warning


def test_verify_without_checks_asks_for_every_check(tmp_path, monkeypatch):
    asked = []

    def recording(cfg, names=None, *, seed=0):
        asked.append((names, seed))
        return []

    monkeypatch.setattr(cli, "battery", recording)
    out = tmp_path / "run"
    doc = SMALL.format(beta=2.0, out=out)
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
    [(names, seed)] = asked
    assert seed == 0
    assert names is None or list(names) == list(CHECK_NAMES)


def test_verify_failed_check_writes_false(tmp_path, monkeypatch):
    # planted defect: K = 1 in place of the Cauchy weight's 3, under the
    # norm of J, 1.007 at p = 2
    monkeypatch.setattr(nlfield.bounds, "CAUCHY_K", 1.0)
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "verify:\n  checks: [lemma1a]\n")
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path]) == 1
    _, rows = read_rows(out / "verify.csv")
    assert rows[0][4] == "false"
    assert float(rows[0][2]) > float(rows[0][1])


def test_c1_attractor_fails_when_its_ladder_does_not_converge(tmp_path, monkeypatch):
    # planted defect: DEDUP_TOL 0, so no rung gap is ever below it; the
    # slope 0.0109 is far under its bound 13.50, so only the ladder's
    # convergence fails the check
    monkeypatch.setattr(nlfield.attractor, "DEDUP_TOL", 0.0)
    out = tmp_path / "run"
    doc = (f"beta: 2.0\noutput: {out}\n"
           "verify:\n  checks: [c1_attractor]\n")
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 1
    _, [row] = read_rows(out / "verify.csv")
    assert row[0] == "c1_attractor" and row[4] == "false"
    assert float(row[1]) == pytest.approx(13.4958, abs=1e-4)
    assert float(row[2]) == pytest.approx(0.010947, abs=1e-6)


@pytest.mark.parametrize("p, measured", [(54, 2.7496), (60, 2.7658), (100, 2.8242)])
def test_prop_lipschitz_reads_a_verdict_past_p54_on_bistable(p, measured, tmp_path):
    # the stated bound reads 3.0411, 3.0370 and 3.0221 there
    out = tmp_path / "run"
    doc = (CONFIGS / "bistable.yaml").read_text(encoding="utf-8").replace(
        "\np: 2.0\n", f"\np: {p}\n") + "verify:\n  checks: [prop_lipschitz]\n"
    assert main(["verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    header, [cells] = read_rows(out / "verify.csv")
    row = dict(zip(header, cells))
    assert float(row["measured"]) == pytest.approx(measured, abs=1e-4)


def test_verify_exits_2_on_a_non_finite_measurement(tmp_path, capsys, monkeypatch):
    # a planted G that leaves the float range, u * inf, reads 0 * inf = NaN
    # on the zero half of each pair, so prop_lipschitz's ratio is NaN; a NaN
    # is an error, not a verdict
    monkeypatch.setattr(nlfield.bounds, "_nonlinear_term", lambda cfg, t, u: u * math.inf)
    out = tmp_path / "run"
    doc = (f"beta: 2.0\np: 60\nhalf_length: 5.0\nn_points: 128\noutput: {out}\n"
           "verify:\n  checks: [prop_lipschitz]\n")
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert "error: prop_lipschitz: the measurement is nan" in capsys.readouterr().err
    assert not out.exists()


def test_verify_samples_key_is_not_read(tmp_path, caplog):
    # verify.samples still parses, for older configs, but changes no byte of
    # verify.csv: c1_attractor evolves its fixed members at samples 4 too
    doc = "beta: 2.0\nn_points: 1024\nverify:\n  checks: [lemma1b, c1_attractor]\n"
    bodies = []
    for name, extra in (("plain", ""), ("samples", "  samples: 4\n")):
        caplog.clear()
        path = write_config(tmp_path, doc + extra, f"{name}.yaml")
        with caplog.at_level(logging.WARNING, logger="nlfield.cli"):
            assert main(["verify", "--config", path,
                         "--out", str(tmp_path / name)]) == 0
        bodies.append((tmp_path / name / "verify.csv").read_bytes())
        warnings = [r.getMessage() for r in caplog.records
                    if "verify.samples" in r.getMessage()]
        assert len(warnings) == (1 if extra else 0)
    assert bodies[0] == bodies[1]
    assert "is not read" in warnings[0]


@pytest.mark.parametrize("extra, check", [
    ("p: 1.01\nhalf_length: 20.0\n", "lemma1b"),
    ("beta: 100.0\nhalf_length: 20.0\n", "gronwall_continuity"),
    ("beta: 100.0\nhalf_length: 20.0\n", "lemma1a, gronwall_continuity"),
], ids=["lemma1b p 1.01", "gronwall beta 100", "lemma1a+gronwall beta 100"])
def test_verify_exits_2_on_a_non_finite_bound(extra, check, tmp_path, capsys):
    # w^(1 - q) overflows at p 1.01, and the envelope's exponential at
    # beta 100: an infinite bound admits any measurement, so it is an
    # error, not a pass
    out = tmp_path / "run"
    doc = (f"beta: 2.0\nn_points: 1024\noutput: {out}\n{extra}"
           f"verify:\n  checks: [{check}]\n")
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    name = check.split(", ")[-1]
    err = capsys.readouterr().err
    assert f"error: {name}: the bound is inf, not finite" in err
    assert "Traceback" not in err
    assert not out.exists()


# the CLI run in a fresh interpreter, after an optional plant
PLANTED_CLI = "import sys, math, nlfield.bounds\n{plant}\n" \
    "from nlfield.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.mark.parametrize("extra, check, plant", [
    # a planted G that leaves the float range: u * inf raises numpy's
    # invalid warning at the zero rows, inside the check
    ("p: 60\nhalf_length: 5.0\nn_points: 128\n", "prop_lipschitz",
     "nlfield.bounds._nonlinear_term = lambda cfg, t, u: u * math.inf"),
    ("p: 1.01\n", "lemma1a, lemma1a_deriv, lemma1b, prop_lipschitz", ""),
], ids=["p 60", "p 1.01"])
def test_verify_stderr_carries_no_numpy_warning(extra, check, plant, tmp_path):
    # the finite guard reports a non-finite value by its check; numpy's
    # RuntimeWarnings with their source lines would only precede it
    doc = f"beta: 2.0\n{extra}verify:\n  checks: [{check}]\n"
    path = write_config(tmp_path, doc)
    src = Path(nlfield.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-c", PLANTED_CLI.format(plant=plant), "verify",
         "--config", path, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert "the measurement is nan, not finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_verify_on_gaussian_weight_must_list_its_checks(tmp_path, capsys):
    # the default checks include those built on the Cauchy weight's K and
    # rho_1, which the gaussian weight lacks
    out = tmp_path / "run"
    doc = SMALL.format(beta=2.0, out=out) + "weight: gaussian\n"
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert "error: weight: the gaussian weight has no finite K" \
        in capsys.readouterr().err
    assert not (out / "verify.csv").exists()
    doc += "verify:\n  checks: [absorbing, w_bound, c1_attractor]\n"
    assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
    _, rows = read_rows(out / "verify.csv")
    assert [(r[0], r[4]) for r in rows] == [
        ("absorbing", "true"), ("w_bound", "true"), ("c1_attractor", "true")]


def test_rejected_run_removes_only_the_empty_directory_it_made(tmp_path):
    out = tmp_path / "made" / "run"
    doc = SMALL.format(beta=2.0, out=out) + "weight: gaussian\n"
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path]) == 2
    assert not out.exists() and out.parent.is_dir()
    # a directory that was there before the run is never removed
    out.mkdir()
    assert main(["verify", "--config", path]) == 2
    assert out.is_dir() and not any(out.iterdir())


def test_c1_attractor_on_zero_model_has_zero_bound(tmp_path):
    # a = sup|g| = 0 makes the slope bound 0 for any h*, so no threshold
    # search may run on a response without a bistable regime
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "model: zero\nverify:\n  checks: [c1_attractor]\n")
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path]) == 0
    _, rows = read_rows(out / "verify.csv")
    assert [r[0] for r in rows] == ["c1_attractor"]
    assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0
    assert rows[0][4] == "true"


def test_verify_seed_override_lands_in_csv(tmp_path):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "verify:\n  checks: [lemma1a]\n")
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path, "--seed", "7"]) == 0
    _, rows = read_rows(out / "verify.csv")
    assert rows[0][5] == "7"


def test_out_override_redirects_artifacts(tmp_path):
    path = write_config(tmp_path, SMALL.format(beta=2.0, out=tmp_path / "a"))
    alt = tmp_path / "b"
    assert main(["hstar", "--config", path, "--out", str(alt)]) == 0
    assert (alt / "hstar.csv").exists()
    assert not (tmp_path / "a").exists()


def test_sweep_zero_epsilon_is_exact(tmp_path):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "field:\n  family: pulsed\n  amplitude: 0.2\n"
             "sweep:\n  epsilons: [0.2, 0.0]\n  n_samples: 3\n"
             "  tau_ladder: [-4.0, -8.0, -16.0]\n")
    path = write_config(tmp_path, doc)
    assert main(["sweep", "--config", path]) == 0

    header, rows = read_rows(out / "sweep.csv")
    assert header == ["epsilon", "distance", "envelope", "converged"]
    assert [float(r[0]) for r in rows] == [0.2, 0.0]
    assert all(r[3] == "true" for r in rows)
    # scaling the field by zero reproduces the reference attractor exactly
    assert float(rows[1][1]) == 0.0
    for r in rows:
        assert float(r[1]) <= float(r[2])


def test_sweep_shallow_ladder_reports_failure(tmp_path, caplog):
    out = tmp_path / "run"
    doc = (SMALL.format(beta=2.0, out=out)
           + "field:\n  family: pulsed\n  amplitude: 0.2\n"
             "sweep:\n  epsilons: [0.2, 0.0]\n  n_samples: 3\n"
             "  tau_ladder: [-0.5, -1.0]\n")
    path = write_config(tmp_path, doc)
    with caplog.at_level(logging.WARNING):
        assert main(["sweep", "--config", path]) == 1
    _, rows = read_rows(out / "sweep.csv")
    assert [r[3] for r in rows] == ["false", "false"]
    # the unperturbed ladder and the eps 0.2 leg each say so once, and the
    # CLI adds nothing
    assert [(r.name, r.getMessage().split(" (")[0]) for r in caplog.records] == 2 * [
        ("nlfield.attractor", "tau ladder exhausted without stabilization")]


def test_package_error_inside_a_command_exits_2(tmp_path, monkeypatch, capsys):
    def blow_up(cfg, names=None, *, seed=0):
        raise BlowUpError("state left the finite range at t = 0.5")

    monkeypatch.setattr(cli, "battery", blow_up)
    path = write_config(tmp_path, SMALL.format(beta=2.0, out=tmp_path / "o"))
    assert main(["verify", "--config", path]) == 2
    assert ("error: state left the finite range at t = 0.5"
            in capsys.readouterr().err)


# ---------------------------------------------------------------------------
# reruns: each case, run twice, exits 0, writes the same bytes and matches
# its committed reference tables
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).parent.parent / "configs"
COMMANDS = ("simulate", "attractor", "hstar", "verify", "sweep")

# tests/reference/<case id>/ holds these tables of each case's output and,
# in log.txt, its INFO lines that begin with one of LADDER_LINES, all
# written by tests/regen_reference.py
REFERENCE = Path(__file__).parent / "reference"
REFERENCE_TABLES = ("attractor_meta.csv", "hstar.csv", "sweep.csv", "trajectory.csv",
                    "verify.csv")
# the structural lines of a ladder: each rung, each step tried, each sweep leg
LADDER_LINES = ("rung tau=", "ladder step ", "sweep eps=")
# the summary of every attractor member and snapshot of a case: one line
# per field, written by field_summaries
FIELDS = "fields.csv"
# the cells _fmt writes for a float that is not integral: a fraction or an
# exponent, or a non-finite value
FLOAT_CELL = re.compile(r"-?(\d+\.\d+(e[+-]\d+)?|\d+e[+-]\d+|inf|nan)")

# the convolution transforms at the grid's 5-smooth length: n 4090 runs at
# 4096 with a partial wrap band at each cut (34 of the 40 kernel half-width
# nodes), n 1009 at 1024 with none; verify takes J' * u on both in
# lemma1a_deriv's power method, its one J' path, and steps the trajectory
# checks' spans carrying G and its slope
GRID = """\
beta: 0.5
n_points: {n}
simulate:
  t: 10.0
  initial:
    kind: random
    norm: 1.0
  snapshots: 3
attractor:
  tau_ladder: [-4.0, -8.0, -16.0, -32.0]
  n_samples: 4
verify: {{checks: [lemma1a, lemma1a_deriv, lemma1b, prop_lipschitz, absorbing, w_bound, gronwall_continuity]}}
"""

# the refined trajectory op's shape: p 3, the gaussian weight, a pulsed
# field, n 8192 (transformed at 8192, already 5-smooth) and 4 snapshots
GAUSSIAN_SIMULATE = """\
beta: 2.0
p: 3.0
weight: gaussian
n_points: 8192
field: {family: pulsed, amplitude: 0.15, omega: 1.1}
simulate:
  t: 16.0
  snapshots: 4
  initial: {kind: random, norm: 1.0}
"""

# the three checks that need neither the Cauchy weight's K nor its rho_1
GAUSSIAN_VERIFY = """\
beta: 2.0
weight: gaussian
n_points: 1024
verify: {checks: [absorbing, w_bound, c1_attractor]}
"""


def ladder_steps_coarser_than_dt(out, log):
    # a ladder back on the fixed-step path reads ladder_step 0.05 and a NaN
    # estimate; the contraction config accepts 0.8 at about 7.1e-5
    meta = dict(read_rows(out / "attractor_meta.csv")[1])
    assert float(meta["ladder_step"]) > 0.05
    assert float(meta["ladder_step_error"]) <= 1e-4


def four_snapshots(out, log):
    assert len(list(out.glob("snapshot_*.csv"))) == 4


def vacuous_envelope_warns_once(out, log):
    # at seed 2 the ladder reaches horizon 32, where the continuity
    # envelope's rate 29.45 overflows exp: every eps > 0 row reads inf, the
    # eps = 0 row the dedup tolerance, and one warning covers the sweep
    _, rows = read_rows(out / "sweep.csv")
    envelopes = {float(r[0]): r[2] for r in rows}
    assert envelopes[0.0] == "0.001"
    assert all(v == "inf" for eps, v in envelopes.items() if eps > 0.0)
    assert log.count("vacuous") == 1


SHIPPED_CHECKS = {("contraction", "attractor"): ladder_steps_coarser_than_dt}

RERUNS = [
    pytest.param(command, path.read_text(encoding="utf-8"), (),
                 SHIPPED_CHECKS.get((path.stem, command)), id=f"{path.stem}-{command}")
    for path in sorted(CONFIGS.glob("*.yaml")) for command in COMMANDS
] + [
    pytest.param(command, GRID.format(n=n), (), None, id=f"n{n}-{command}")
    for n in (4090, 1009) for command in ("simulate", "attractor", "verify")
] + [
    pytest.param("simulate", GAUSSIAN_SIMULATE, (), four_snapshots,
                 id="gaussian-p3-n8192-simulate"),
    pytest.param("verify", GAUSSIAN_VERIFY, (), None, id="gaussian-verify"),
    pytest.param("sweep", (CONFIGS / "sweep.yaml").read_text(encoding="utf-8"),
                 ("--seed", "2"), vacuous_envelope_warns_once, id="sweep-sweep-seed2"),
]


@pytest.mark.parametrize("command,doc,flags,check", RERUNS)
def test_reruns_exit_0_and_write_the_same_bytes(command, doc, flags, check,
                                                tmp_path, caplog, request):
    # exit 0 means every verify row passed and every ladder converged
    path = write_config(tmp_path, doc)
    trees, logs, ladders = [], [], []
    for run in ("a", "b"):
        out = tmp_path / run
        caplog.clear()
        with caplog.at_level(logging.INFO):
            assert main([command, "--config", path, "--out", str(out), *flags]) == 0
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        logs.append(caplog.text)
        ladders.append(ladder_log(caplog.records))
    a, b = trees
    assert a and sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []
    assert_matches_reference(tmp_path / "a", ladders[0],
                             REFERENCE / request.node.callspec.id)
    if check:
        check(tmp_path / "a", logs[0])


def ladder_log(records):
    """The INFO lines of a run that begin with one of LADDER_LINES, as
    log.txt holds them: one message a line."""
    return "".join(f"{r.getMessage()}\n" for r in records
                   if r.levelno == logging.INFO and r.getMessage().startswith(LADDER_LINES))


def field_summaries(out):
    """One line per attractor member (members.csv) and per snapshot
    (snapshot_*.csv) in out: the l^2 norm of its node values, their sup,
    and its values at five fixed nodes (the first, the quarters and the
    last).  The norm is a correctly rounded sum (math.fsum) of exact
    squares, so it depends on the CSV text alone.  None when out holds
    neither kind of table."""
    fields = []
    for path in sorted([*out.glob("members.csv"), *out.glob("snapshot_*.csv")]):
        table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        if path.name == "members.csv":
            fields += [(f"{path.name}:{int(m)}", table[table[:, 0] == m, 2])
                       for m in np.unique(table[:, 0])]
        else:
            fields.append((path.name, table[:, 2]))
    if not fields:
        return None
    lines = ["field,norm,sup,u[0],u[n/4],u[n/2],u[3n/4],u[n-1]\n"]
    for name, u in fields:
        n = len(u)
        cells = [math.sqrt(math.fsum((u * u).tolist())), float(np.max(np.abs(u))),
                 *u[[0, n // 4, n // 2, 3 * n // 4, n - 1]].tolist()]
        lines.append(",".join([name, *(format(c, ".17g") for c in cells)]) + "\n")
    return "".join(lines)


def cpu_features():
    """numpy's version and the CPU features its dispatch enabled, as
    tests/reference/cpu_features.txt holds them for the reference host."""
    from numpy._core._multiarray_umath import __cpu_features__
    return f"numpy {np.__version__}: " + " ".join(
        name for name, on in __cpu_features__.items() if on)


def cells_match(got, ref):
    # a float cell within 1e-12 relative of the reference, and so exactly
    # where the reference is 0; every other cell (keys, counts, verdicts,
    # digests, integral floats) and every non-finite one exactly
    if got == ref:
        return True
    if not (FLOAT_CELL.fullmatch(got) and FLOAT_CELL.fullmatch(ref)):
        return False
    return abs(float(got) - float(ref)) <= 1e-12 * abs(float(ref))


def assert_matches_reference(out, ladder, ref_dir):
    """The case's ladder lines equal its log.txt, each reference table of
    the case is in out with the same version and header lines, the same
    rows and columns, and matching cells, and so is the summary of its
    members and snapshots (fields.csv) below its header line.

    The ladder lines print their numbers at 3 to 6 digits, so they are
    compared exactly.  The table bytes depend on numpy's CPU dispatch.
    Under the reference host's AVX512 dispatch and under AVX2 (X86_V3)
    the cells agree within 1e-12, which trips on any change to the
    numerics.  Under baseline X86_V2 dispatch three cells formed by
    cancellation move by up to 9.2e-10 relative and fail, so a mismatch
    names the CPU features of both hosts."""
    assert ladder == (ref_dir / "log.txt").read_text()
    hosts = (f"this host {cpu_features()}; reference host "
             f"{(REFERENCE / 'cpu_features.txt').read_text().strip()}")

    def assert_lines_match(name, got, ref, head):
        # the first head lines exactly, then every line cell by cell
        assert got[:head] == ref[:head] and len(got) == len(ref), name
        for line, (g, r) in enumerate(zip(got[head:], ref[head:]), start=head + 1):
            g_cells, r_cells = g.split(","), r.split(",")
            assert len(g_cells) == len(r_cells) and all(map(cells_match, g_cells, r_cells)), \
                f"{name} line {line}: {g!r}, reference {r!r}; {hosts}"

    names = sorted(p.name for p in ref_dir.iterdir() if p.name in REFERENCE_TABLES)
    assert names and names == [n for n in sorted(REFERENCE_TABLES) if (out / n).exists()]
    for name in names:
        assert_lines_match(name, (out / name).read_text().splitlines(),
                           (ref_dir / name).read_text().splitlines(), 2)
    # the field names (members.csv:<i>, snapshot_<i>.csv) are cells that
    # match exactly
    summaries = field_summaries(out)
    assert (summaries is not None) == (ref_dir / FIELDS).exists()
    if summaries is not None:
        assert_lines_match(FIELDS, summaries.splitlines(),
                           (ref_dir / FIELDS).read_text().splitlines(), 1)


def test_fresh_interpreter_loads_no_jsonschema_and_writes_the_same_bytes(tmp_path):
    # jsonschema is a test dependency only, so importing the CLI loads none
    # of it; and an attractor run in a fresh process, under its own hash seed
    # and with every first-call cache cold, writes the in-process bytes
    env = {**os.environ, "PYTHONPATH": str(Path(nlfield.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nlfield.cli; sys.exit('jsonschema' in sys.modules)"],
        env=env)
    assert proc.returncode == 0
    config = str(CONFIGS / "bistable.yaml")
    subprocess.run([sys.executable, "-m", "nlfield.cli", "attractor", "--config", config,
                    "--out", str(tmp_path / "fresh")],
                   env=env, capture_output=True, check=True)
    assert main(["attractor", "--config", config, "--out", str(tmp_path / "here")]) == 0
    for name in ("members.csv", "attractor_meta.csv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
