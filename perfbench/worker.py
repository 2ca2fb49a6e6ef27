"""One workload's measurement, run in a child process of its own.

Usage (``run.py`` starts it with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Passes over the workload's jobs repeat as a closed loop with one caller
until the next pass would end after ``--seconds``.  ``enumerate`` and
``mixing`` call ``ranklab.cli.run(argv)`` in this process; ``cli`` starts
one ``python -m ranklab`` process at a time, through ``spawner.py``.  After
each job, outside its timing, a fixed reference kernel is timed, so that
``run.py`` can divide pass times by the machine's current speed.  Every
job's report is checked outside the timed regions.  The last line of stdout
is a JSON object with the raw samples; ``run.py`` turns it into metrics.

With ``--trace 1`` untraced and traced passes alternate: traced passes run
with :class:`tracer.Tracer` installed (in this process, or through
``traced_cli.py`` for ``cli``), untraced ones give the base line for the
tracing overhead and the per-invocation floor.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
import tracer
from speed import reference_ms

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"
JOB_TIMEOUT_S = 60
MAX_PROBLEMS = 10


@dataclass
class Outcome:
    wall_s: float
    code: int | None
    text: str
    trace: dict | None = None
    error: str | None = None
    ref_ms: float | None = None


def run_in_process(argv, traced_by):
    import ranklab.cli

    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = ranklab.cli.run(list(argv))
    except Exception as exc:  # a crash is a failed job, not a dead benchmark
        return Outcome(time.perf_counter() - start, None, "", error=repr(exc))
    wall = time.perf_counter() - start
    trace = traced_by.collect() if traced_by is not None else None
    return Outcome(wall, code, buf.getvalue(), trace)


class Spawner:
    """Runs ``cli`` jobs through ``spawner.py``, a process that stays small."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(SPAWNER)], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv, traced):
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), *argv]
        else:
            cmd = [sys.executable, "-m", "ranklab", *argv]
        self.proc.stdin.write(json.dumps({"argv": cmd, "timeout": JOB_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        out = Outcome(reply["wall_s"], reply["code"], reply["stdout"], error=reply["error"])
        if traced and out.error is None:
            try:
                out.trace = json.loads(reply["stderr"].strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                out.error = f"no trace summary; stderr: {reply['stderr'][-300:]!r}"
        return out

    def close(self):
        """Stop the spawner; returns the largest peak RSS of its jobs in MB."""
        self.proc.stdin.close()
        peak = json.loads(self.proc.stdout.readline())["peak_rss_mb"]
        self.proc.wait(timeout=JOB_TIMEOUT_S)
        return peak


class Runner:
    def __init__(self, workload, seed):
        from ranklab.specio import load_spec

        self.workload = workload
        env = jobs.job_env(workload)
        os.environ.update(env)
        self.spawner = Spawner(dict(os.environ)) if workload == "cli" else None
        self.specs = {path: load_spec(path) for path in jobs.SPEC_FILES[workload]}
        h_1 = load_spec(jobs.CHACON).height(1)
        self.plan = jobs.Plan(workload, seed, h_1)
        self.golden = jobs.load_golden()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, traced, between=None):
        """Run every job once in the seeded order; returns per-job outcomes.

        ``between``, if given, runs after each job, outside its timing, and
        its result is kept as the outcome's ``ref_ms``.
        """
        in_process = self.workload != "cli"
        spans = tracer.Tracer() if traced and in_process else None
        if spans is not None:
            spans.install()
        outcomes = []
        try:
            for idx in self.plan.next_order():
                argv = self.plan.jobs[idx]
                if in_process:
                    out = run_in_process(argv, spans)
                else:
                    out = self.spawner.run(argv, traced)
                if between is not None:
                    out.ref_ms = between()
                outcomes.append((idx, out))
        finally:
            if spans is not None:
                spans.uninstall()
        for idx, out in outcomes:
            self.check(idx, out)
        return outcomes

    def check(self, idx, out):
        self.attempted += 1
        argv = self.plan.jobs[idx]
        if out.error is not None:
            problems = [out.error]
        else:
            problems = jobs.check_report(
                self.golden, self.plan.templates[idx], argv, out.code, out.text,
                self.specs,
            )
        if problems:
            self.failed += 1
            label = jobs.key(argv)
            if len(label) > 100:
                label = label[:97] + "..."
            self.note(f"{label}: {'; '.join(problems)}")

    def note(self, problem):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def close(self):
        """Peak RSS in MB: this process's, or for ``cli`` the largest job's."""
        if self.spawner is not None:
            return self.spawner.close()
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def floor_ms(out):
    """Invocation wall time not covered by the report's ``durationMs``."""
    if out.error is not None:
        return None
    try:
        return out.wall_s * 1000 - json.loads(out.text)["durationMs"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def measure(runner, seconds):
    """Untraced passes: pass times, reference-kernel times, invocation times.

    ``ref_ms`` holds, per pass, the mean time of the reference kernel run
    after each of its jobs.
    """
    pass_s, ref_ms, invocation_ms = [], [], []
    start = time.perf_counter()
    while True:
        outcomes = runner.one_pass(traced=False, between=reference_ms)
        pass_s.append(sum(out.wall_s for _, out in outcomes))
        ref_ms.append(statistics.mean(out.ref_ms for _, out in outcomes))
        invocation_ms += [out.wall_s * 1000 for _, out in outcomes]
        if time.perf_counter() - start + statistics.median(pass_s) > seconds:
            break
    return {
        "pass_s": pass_s,
        "ref_ms": ref_ms,
        "invocation_ms": invocation_ms,
    }


def exact_counts(block):
    return {
        k: v for k, v in block.items()
        if k.endswith(".calls") or k in tracer.COUNTERS or k == "reporting.report_bytes"
    }


def measure_traced(runner, seconds):
    """Alternate untraced and traced passes; at least two of each."""
    untraced_s, traced_s, blocks, floors = [], [], [], []
    start = time.perf_counter()
    while True:
        outcomes = runner.one_pass(traced=False)
        untraced_s.append(sum(out.wall_s for _, out in outcomes))
        floors += [f for f in (floor_ms(out) for _, out in outcomes) if f is not None]

        outcomes = runner.one_pass(traced=True)
        traced_s.append(sum(out.wall_s for _, out in outcomes))
        block: dict[str, float] = {}
        for _, out in outcomes:
            if out.trace is not None:
                tracer.merge(block, out.trace)
            if out.error is None:
                tracer.merge(block, {"reporting.report_bytes": jobs.report_bytes(out.text)})
        blocks.append(block)

        elapsed = time.perf_counter() - start
        next_round = statistics.median(untraced_s) + statistics.median(traced_s)
        if len(blocks) >= 2 and elapsed + next_round > seconds:
            break
    # Each comparison of a later traced pass with the first counts as one
    # more check attempted.
    first = exact_counts(blocks[0])
    for n, block in enumerate(blocks[1:], start=2):
        runner.attempted += 1
        if exact_counts(block) != first:
            changed = sorted(k for k in set(first) | set(exact_counts(block))
                             if first.get(k) != block.get(k))
            runner.failed += 1
            runner.note(f"traced pass {n}: exact counts differ from pass 1: {changed}")
    return {
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "blocks": blocks,
        "floor_ms": floors,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        data = measure_traced(runner, args.seconds)
    else:
        data = measure(runner, args.seconds)
    data |= {
        "peak_rss_mb": runner.close(),
        "h": runner.plan.h,
        "jobs": len(runner.plan.jobs),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
    }
    print(json.dumps(data))


if __name__ == "__main__":
    main()
