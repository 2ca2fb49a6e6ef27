"""ranklab benchmark: one workload per call, metrics on the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {enumerate,mixing,cli} --seed N \\
        --seconds S --trace {0,1}

Set-up is measured first: several fresh interpreters each import
``ranklab.cli`` and parse the workload's spec files.  The workload then runs
in a child process of its own (``worker.py``), so its peak RSS belongs to it
alone.  Every job's report is checked; any failure makes the result
``"correct": false`` and the exit code 1.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run together with the tracing overhead.  Timings are
divided by a reference kernel's time (``speed.py``), because the machine's
speed drifts.  README.md in this directory lists every metric and what
should move it.
``--workload all`` runs the three workloads one after another and prefixes
each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
from speed import NOMINAL_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
DEADLINE_S = 170

# Per-layer metrics: name -> (unit, what it should move).
PER_LAYER = {
    "construction.self_ms": ("ms", "pass_ref on enumerate"),
    "sumsets.self_ms": ("ms", "pass_ref on enumerate"),
    "certificates.self_ms": ("ms", "pass_ref on enumerate and mixing"),
    "families.self_ms": ("ms", "setup_s and pass_ref on mixing"),
    "specio.self_ms": ("ms", "setup_s on all workloads"),
    "reporting.self_ms": ("ms", "invocation_ms_p90 on cli"),
    "budget.self_ms": ("ms", "pass_ref on enumerate"),
    "construction.descendant_heights.self_ms": (
        "ms", "pass_ref on enumerate, near zero on mixing"),
    "construction.descendant_heights.calls": ("count", "pass_ref on enumerate"),
    "construction.descendant_heights.values": (
        "count", "pass_ref and peak_rss_mb on enumerate"),
    "construction.stages_materialized": (
        "count", "pass_ref and peak_rss_mb on enumerate"),
    "construction.intersection_measure.self_ms": ("ms", "pass_ref on enumerate"),
    "sumsets.difference_multiset.self_ms": ("ms", "pass_ref on enumerate"),
    "sumsets.ap_search.self_ms": ("ms", "pass_ref on enumerate"),
    "sumsets.partner_shift.self_ms": ("ms", "pass_ref on mixing"),
    "sumsets.digit_dp.self_ms": ("ms", "invocation_ms_p90 on cli"),
    "certificates.npc_certificate.self_ms": ("ms", "pass_ref on enumerate"),
    "certificates.conservativity_fraction.self_ms": ("ms", "pass_ref on enumerate"),
    "certificates.non_ergodic_check.self_ms": ("ms", "pass_ref on enumerate"),
    "certificates.asymmetry_statistic.self_ms": ("ms", "pass_ref on enumerate"),
    "certificates.mixing_decay.self_ms": (
        "ms", "pass_ref and peak_rss_mb on mixing"),
    "certificates.mixing_decay.shifts": ("count", "pass_ref on mixing"),
    "certificates.mixing_decay.us_per_shift": ("us", "pass_ref on mixing"),
    "certificates.matching.self_ms": ("ms", "invocation_ms_p50 on cli"),
    "families.asymm_stage_sets.self_ms": (
        "ms", "setup_s and pass_ref on mixing"),
    "specio.load_spec.self_ms": (
        "ms", "setup_s on all workloads, invocation_ms_p50 on cli"),
    "reporting.emit_report.self_ms": (
        "ms", "invocation_ms_p90 on cli, pass_ref on mixing"),
    "reporting.report_bytes": (
        "count", "invocation_ms_p90 on cli, pass_ref on mixing"),
    "cli.import_ms": ("ms", "invocation_ms_p50 on cli, setup_s"),
    "cli.floor_ms": ("ms", "invocation_ms_p50 on cli, setup_s"),
    "cli.run.self_ms": ("ms", "invocation_ms_p50 on cli, setup_s"),
    "budget.charges": ("count", "no timing; shows charged work"),
    "budget.units": ("count", "no timing; shows charged work"),
    "budget.refusals": ("count", "no timing; shows charged work"),
    "trace.traced_pass_s": ("s", "tracing overhead"),
    "trace.untraced_pass_s": ("s", "tracing overhead"),
    "trace.overhead_s": ("s", "tracing overhead"),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def missing_sources(workload: str) -> list[str]:
    needed = [ROOT / "src" / "ranklab" / "cli.py"]
    needed += [ROOT / path for path in jobs.SPEC_FILES[workload]]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def measure_setup(workload: str, env: dict[str, str]) -> dict[str, float]:
    """Median over fresh interpreters; one unmeasured run fills caches first.

    Each probe times its own import and parse, then the reference kernel.
    ``setup_s`` scales the import and parse time by ``NOMINAL_MS`` over that
    kernel time: the set-up time on a machine as fast as the nominal one.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *jobs.SPEC_FILES[workload]]
    raw, scaled, imports = [], [], []
    for n in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        probe = json.loads(proc.stdout)
        if n:
            setup = (probe["import_ms"] + probe["parse_ms"]) / 1000
            raw.append(setup)
            scaled.append(setup * NOMINAL_MS / probe["ref_ms"])
            imports.append(probe["import_ms"])
    return {"setup_s": statistics.median(scaled),
            "raw_setup_s": statistics.median(raw),
            "import_ms": statistics.median(imports),
            "samples": len(raw)}


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(data: dict, setup: dict) -> list[tuple[str, float, str, str]]:
    passes = len(data["pass_s"])
    # The machine's speed drifts by tens of percent over minutes; dividing each
    # pass by the reference kernel timed between its jobs cancels most of it.
    pass_ref = statistics.median(
        wall * 1000 / ref for wall, ref in zip(data["pass_s"], data["ref_ms"])
    )
    return [
        ("pass_ref", pass_ref, "ref", f"median of {passes} passes"),
        ("setup_s", setup["setup_s"], "s",
         f"median of {setup['samples']} fresh interpreters, at nominal speed"),
        ("peak_rss_mb", data["peak_rss_mb"], "MB", "ru_maxrss"),
    ]


def printed_only(workload: str, data: dict,
                 setup: dict) -> list[tuple[str, float, str, str]]:
    """Raw timings shown beside the result metrics but not part of them.

    Raw wall times drift with the machine.  The per-process percentiles
    exist for ``cli`` only, where a job is a process invocation.
    """
    passes = len(data["pass_s"])
    rows = [
        ("pass_s", statistics.median(data["pass_s"]), "s",
         f"median of {passes} passes, printed only"),
        ("raw_setup_s", setup["raw_setup_s"], "s",
         f"median of {setup['samples']} fresh interpreters, printed only"),
        ("ref_ms", statistics.median(data["ref_ms"]), "ms",
         f"reference kernel, median of {passes} pass means, printed only"),
    ]
    if workload == "cli":
        inv = data["invocation_ms"]
        rows += [
            (f"invocation_ms_p{pct}", percentile(inv, pct), "ms",
             f"{len(inv)} invocations, printed only")
            for pct in (50, 90)
        ]
    return rows


def per_layer(data: dict, setup: dict) -> list[tuple[str, float, str, str]]:
    blocks = data["blocks"]
    traced = statistics.median(data["traced_pass_s"])
    untraced = statistics.median(data["untraced_pass_s"])

    def timing(name):
        return statistics.median(block.get(name, 0.0) for block in blocks)

    values = {}
    for name, (unit, _) in PER_LAYER.items():
        if unit == "count":
            values[name] = blocks[0].get(name, 0)
        elif unit == "ms":
            values[name] = timing(name)
    values["certificates.mixing_decay.us_per_shift"] = statistics.median(
        b.get("certificates.mixing_decay.self_ms", 0.0) * 1000
        / b["certificates.mixing_decay.shifts"]
        if b.get("certificates.mixing_decay.shifts") else 0.0
        for b in blocks
    )
    values["cli.import_ms"] = setup["import_ms"]
    values["cli.floor_ms"] = statistics.median(data["floor_ms"] or [0.0])
    values["trace.traced_pass_s"] = traced
    values["trace.untraced_pass_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    return [
        (name, values[name], unit, f"moves {moves}; {len(blocks)} traced passes")
        for name, (unit, moves) in PER_LAYER.items()
    ]


def run_worker(args, workload: str, started: float) -> dict | None:
    """The workload's samples from ``worker.py``, or None if it broke."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # A session of its own, so a timeout also stops the worker's children.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {workload} worker exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def report(workload: str, seed: int, rows: list, data: dict) -> None:
    attempted, failed = data["attempted"], data["failed"]
    print(f"workload {workload}: seed {seed}, h {data['h']}, "
          f"{data['jobs']} jobs per pass, closed loop, 1 caller")
    for name, value, unit, note in rows:
        print(f"  {name:46s} {value:14.4f} {unit:5s}  ({note})")
    print(f"  {'failed_ratio':46s} {failed / attempted:14.4f} {'':5s}  "
          f"({failed} of {attempted} jobs failed a check)")
    for problem in data["problems"]:
        print(f"  FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*jobs.WORKLOADS, "all"), required=True,
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    missing = sorted({m for w in workloads for m in missing_sources(w)})
    if missing:
        print(f"perfbench: sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        started = time.perf_counter()
        setup = measure_setup(workload, child_env())
        data = run_worker(args, workload, started)
        if data is None:
            return 1
        rows = per_layer(data, setup) if args.trace else end_to_end(data, setup)
        extra = [] if args.trace else printed_only(workload, data, setup)
        report(workload, args.seed, rows + extra, data)
        attempted += data["attempted"]
        failed += data["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics |= {prefix + name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
