"""Starts the ``cli`` workload's processes for ``worker.py``.

Linux carries a parent's peak RSS into a child through ``vfork`` and
``exec``, so a ``ranklab`` process started by the worker would report at
least the worker's own peak.  This process stays small and starts every job.

Protocol: one JSON line in per job, ``{"argv": [...], "timeout": s}``, one
JSON line out, ``{"wall_s", "code", "stdout", "stderr", "error"}``.  After
stdin closes it prints ``{"peak_rss_mb": ...}``, the largest peak RSS of
the jobs it started.
"""

import json
import resource
import subprocess
import sys
import time

for line in sys.stdin:
    job = json.loads(line)
    start = time.perf_counter()
    try:
        proc = subprocess.run(job["argv"], capture_output=True, text=True,
                              timeout=job["timeout"])
        reply = {"code": proc.returncode, "stdout": proc.stdout,
                 "stderr": proc.stderr, "error": None}
    except subprocess.TimeoutExpired:
        reply = {"code": None, "stdout": "", "stderr": "", "error": "timed out"}
    reply["wall_s"] = time.perf_counter() - start
    print(json.dumps(reply), flush=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"peak_rss_mb": peak}), flush=True)
