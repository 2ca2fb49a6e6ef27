"""Record ``golden.json``: the expected outcome of every job under any seed.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/record_golden.py

Runs each job template of each workload in-process for every level height
``h`` in ``[0, h_1)`` and stores the exit code and the report fingerprint
without ``durationMs``, plus the ``result`` fields a template yields
identically for every ``h``.  Re-record only for an intended report change.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import jobs

import ranklab.cli
from ranklab.reporting import fingerprint
from ranklab.specio import load_spec


def run_job(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ranklab.cli.run(list(argv))
    payload = json.loads(buf.getvalue())
    del payload["durationMs"]
    return code, payload


def main():
    os.chdir(Path(__file__).resolve().parent.parent)
    h_1 = load_spec(jobs.CHACON).height(1)
    golden = {"jobs": {}, "invariants": {}}
    for workload in jobs.WORKLOADS:
        saved = dict(os.environ)
        os.environ.update(jobs.job_env(workload))
        for template in jobs.templates(workload):
            results = []
            for argv in sorted({jobs.instantiate(template, h) for h in range(h_1)}):
                code, payload = run_job(argv)
                golden["jobs"][jobs.key(argv)] = {
                    "exit": code,
                    "fingerprint": fingerprint(payload),
                }
                results.append(payload["result"])
            golden["invariants"][jobs.key(template)] = {
                field: value for field, value in sorted(results[0].items())
                if all(r.get(field) == value for r in results)
            }
        os.environ.clear()
        os.environ.update(saved)
    with open(jobs.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden['jobs'])} jobs to {jobs.GOLDEN}")


if __name__ == "__main__":
    main()
