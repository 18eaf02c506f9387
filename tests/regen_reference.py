"""Rewrite tests/reference/ from the current code.

Runs each case of test_cli.py's RERUNS once through cli.main and keeps
the tables of its output that test_reruns_exit_0_and_write_the_same_bytes
compares against (REFERENCE_TABLES).  Run it from the repository root,
after a change that moves output values on purpose:

    python tests/regen_reference.py

The diff of tests/reference/ then shows every value that moved.
"""

import shutil
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from nlfield.cli import main  # noqa: E402
from test_cli import REFERENCE, REFERENCE_TABLES, RERUNS, write_config  # noqa: E402


def regenerate() -> None:
    shutil.rmtree(REFERENCE, ignore_errors=True)
    for case in RERUNS:
        command, doc, flags, _ = case.values
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            rc = main([command, "--config", write_config(Path(tmp), doc),
                       "--out", str(out), *flags])
            if rc != 0:
                sys.exit(f"{case.id}: exit {rc}")
            dest = REFERENCE / case.id
            dest.mkdir(parents=True)
            for name in REFERENCE_TABLES:
                if (out / name).exists():
                    shutil.copyfile(out / name, dest / name)
        print(f"{case.id}: {sorted(p.name for p in dest.iterdir())}")


if __name__ == "__main__":
    regenerate()
