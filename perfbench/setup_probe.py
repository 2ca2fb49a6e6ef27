"""Set-up of one workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py SPEC...`` with ``src`` on
``PYTHONPATH``.  Imports ``ranklab.cli`` and parses each spec file, then
times the reference kernel, and prints
``{"import_ms": ..., "parse_ms": ..., "ref_ms": ...}``.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import ranklab.cli  # noqa: E402
from ranklab.specio import load_spec  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[1:]:
    load_spec(path)
parsed = time.perf_counter()

from speed import reference_ms  # noqa: E402

print(json.dumps({
    "import_ms": (imported - start) * 1000,
    "parse_ms": (parsed - imported) * 1000,
    "ref_ms": reference_ms(),
}))
