"""Rewrite tests/reference/ from the current code.

Runs each case of test_cli.py's RERUNS once through cli.main and keeps
what test_reruns_exit_0_and_write_the_same_bytes compares against: the
tables of its output (REFERENCE_TABLES), the summary of its attractor
members and snapshots (FIELDS) and, in log.txt, its ladder lines
(LADDER_LINES).  cpu_features.txt records numpy's version and the
CPU features its dispatch enabled on the host that wrote them.  Run it
from the repository root, after a change that moves output values on
purpose:

    python tests/regen_reference.py

The diff of tests/reference/ then shows every value that moved.
"""

import logging
import logging.handlers
import shutil
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from nlfield.cli import main  # noqa: E402
from test_cli import FIELDS, REFERENCE, REFERENCE_TABLES, RERUNS, cpu_features, \
    field_summaries, ladder_log, write_config  # noqa: E402


def regenerate() -> None:
    shutil.rmtree(REFERENCE, ignore_errors=True)
    REFERENCE.mkdir()
    (REFERENCE / "cpu_features.txt").write_text(cpu_features() + "\n")
    # on the root logger, so cli.main's basicConfig adds no stderr handler
    records = logging.handlers.BufferingHandler(capacity=1 << 20)
    logging.getLogger().addHandler(records)
    logging.getLogger().setLevel(logging.INFO)
    for case in RERUNS:
        command, doc, flags, _ = case.values
        records.buffer.clear()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            rc = main([command, "--config", write_config(Path(tmp), doc),
                       "--out", str(out), *flags])
            if rc != 0:
                sys.exit(f"{case.id}: exit {rc}")
            dest = REFERENCE / case.id
            dest.mkdir()
            (dest / "log.txt").write_text(ladder_log(records.buffer))
            for name in REFERENCE_TABLES:
                if (out / name).exists():
                    shutil.copyfile(out / name, dest / name)
            summaries = field_summaries(out)
            if summaries is not None:
                (dest / FIELDS).write_text(summaries)
        print(f"{case.id}: {sorted(p.name for p in dest.iterdir())}")


if __name__ == "__main__":
    regenerate()
