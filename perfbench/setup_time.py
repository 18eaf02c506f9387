"""Set-up cost of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_time.py CONFIG.yaml [CONFIG.yaml ...]

Imports nlfield.cli and parses every config (schema check, defaults,
kernel construction and, for pulsed fields, the h* guard), then prints
the elapsed seconds as JSON.  run.py starts this script with src/ on
PYTHONPATH and the thread pins in the environment.
"""

import json
import sys
import time

t0 = time.perf_counter()
import nlfield.cli as cli  # noqa: E402

texts = []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        texts.append(f.read())
for text in texts:
    cli.parse_config(text)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
