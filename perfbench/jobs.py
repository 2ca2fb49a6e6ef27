"""Workload job lists and the checks every job's report must pass.

A job is one CLI invocation: an argv list for ``ranklab`` plus the
environment it needs.  The seed picks the level height ``h`` in
``[0, h_1)`` of the chacon spec (``h_1 = 8``) and the job order of every
pass; the work a job does does not depend on it.

``golden.json`` (written by ``record_golden.py``) holds, for every argv a
workload can produce under any seed, the exit code and the report
fingerprint with ``durationMs`` removed.  It also holds, per job template,
the ``result`` fields that are the same for every ``h``: those are checked
too, as seed-independent invariants.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

CHACON = "specs/chacon.json"
ASYMM = "specs/asymm.json"
TQ41 = "specs/tq41.json"
ABL = "specs/all_but_last.json"
MIXING = "specs/mixing_window.json"

# The asymm window-1 sweep charges 5,608,320 units against the 5,000,000
# default budget.
MIXING_ENV = {"RANKLAB_BUDGET": "10000000"}

WORKLOADS = ("enumerate", "mixing", "cli")

# Spec files each workload reads; set-up time parses exactly these.
SPEC_FILES = {
    "enumerate": (CHACON,),
    "mixing": (ASYMM, CHACON, MIXING),
    "cli": (CHACON, TQ41, ABL, MIXING, ASYMM),
}


def templates(workload: str) -> list[tuple[str, ...]]:
    """Argv templates; ``{h}`` stands for the seeded level height."""
    if workload == "enumerate":
        return [
            ("descendants", "--spec", CHACON, "--base", "0:0", "--to", "12"),
            ("diffset", "--spec", CHACON, "--base", "1:{h}", "--to", "7"),
            ("ap", "--spec", CHACON, "--base", "1:{h}", "--to", "8", "--max-len", "14"),
            ("npc", "--spec", CHACON, "--kappa", "13", "--horizon", "7"),
            ("conservativity", "--spec", CHACON, "--multipliers", "1,2",
             "--base", "0", "--horizon", "4"),
            ("conservativity", "--spec", CHACON, "--multipliers", "1,1",
             "--base", "0", "--horizon", "6"),
            ("non-ergodic", "--spec", CHACON, "--alpha", "1,2", "--shifts", "0,1",
             "--base", "0", "--horizon", "3"),
            ("asymmetry", "--spec", CHACON, "--base", "1", "--scale", "1",
             "--eval", "9"),
        ]
    if workload == "mixing":
        return [
            ("mixing", "--spec", ASYMM, "--base", "0:0", "--window", "1"),
            ("mixing", "--spec", ASYMM, "--base", "0:0", "--window", "0"),
            ("mixing", "--spec", CHACON, "--base", "1:{h}", "--window", "1"),
            ("mixing", "--spec", MIXING, "--base", "0:0", "--shifts", "0,10,40"),
        ]
    if workload == "cli":
        # The 18 runs of acceptance criterion 12, then two report-heavy runs.
        return [
            ("validate", "--spec", CHACON),
            ("heights", "--spec", CHACON, "--stages", "4"),
            ("descendants", "--spec", CHACON, "--base", "1:0", "--to", "3"),
            ("diffset", "--spec", CHACON, "--base", "1:0", "--to", "2"),
            ("ap", "--spec", CHACON, "--base", "1:0", "--to", "3", "--max-len", "14"),
            ("partners", "--spec", CHACON, "--stage", "1"),
            ("membership", "--spec", TQ41, "--digits", "3", "--target", "42"),
            ("gaps", "--k", "9", "--alphabet", "0,2,3,5,6,8", "--digits", "3"),
            ("coverage", "--spec", TQ41, "--digits", "3"),
            ("gamma", "--spec", TQ41, "--multipliers", "2,3"),
            ("conservativity", "--spec", CHACON, "--multipliers", "1,1",
             "--base", "0", "--horizon", "2"),
            ("ergodic-match", "--spec", CHACON, "--multipliers", "1,-1",
             "--shifts", "0,1", "--base", "1", "--horizon", "2"),
            ("pattern", "--spec", CHACON, "--moves", "0,1", "--base", "1",
             "--cutoff", "3"),
            ("mixing", "--spec", MIXING, "--base", "0:0", "--shifts", "0,10,40"),
            ("npc", "--spec", CHACON, "--kappa", "13", "--horizon", "6"),
            ("pwm", "--spec", TQ41, "--alpha", "2,-3", "--shifts", "0,1,2",
             "--base", "1"),
            ("non-ergodic", "--spec", ABL, "--alpha", "1,1", "--shifts", "0,1",
             "--base", "0", "--horizon", "5"),
            ("asymmetry", "--spec", CHACON, "--base", "1", "--scale", "1",
             "--eval", "8"),
            ("mixing", "--spec", ASYMM, "--base", "0:0",
             "--shifts", ",".join(str(m) for m in range(1, 500))),
            ("descendants", "--spec", CHACON, "--base", "0:0", "--to", "8"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def job_env(workload: str) -> dict[str, str]:
    return dict(MIXING_ENV) if workload == "mixing" else {}


def key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def instantiate(template: tuple[str, ...], h: int) -> tuple[str, ...]:
    return tuple(part.replace("{h}", str(h)) for part in template)


class Plan:
    """The seeded inputs of one run: ``h`` and a job order per pass."""

    def __init__(self, workload: str, seed: int, h_1: int) -> None:
        self.rng = random.Random(seed)
        self.h = self.rng.randrange(h_1)
        self.templates = templates(workload)
        self.jobs = [instantiate(t, self.h) for t in self.templates]

    def next_order(self) -> list[int]:
        order = list(range(len(self.jobs)))
        self.rng.shuffle(order)
        return order


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def cut_product(spec, lo: int, hi: int) -> int:
    """Number of stage-``hi`` descendants of a stage-``lo`` level."""
    count = 1
    for n in range(lo, hi):
        count *= spec.stage(n).r
    return count


def check_report(golden: dict, template: tuple[str, ...], argv: tuple[str, ...],
                 code: int, text: str, specs: dict) -> list[str]:
    """Problems with one job's outcome; empty means it passed every check."""
    from ranklab.reporting import fingerprint, validate_report

    expected = golden["jobs"].get(key(argv))
    if expected is None:
        return [f"no golden entry for {key(argv)!r}"]
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit code {code}, expected {expected['exit']}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]
    problems += validate_report(payload)
    if not isinstance(payload, dict):
        return problems
    payload.pop("durationMs", None)
    if fingerprint(payload) != expected["fingerprint"]:
        problems.append("report fingerprint differs from the recorded one")
    result = payload.get("result")
    if not isinstance(result, dict):
        return problems
    for field, value in golden["invariants"][key(template)].items():
        if result.get(field) != value:
            problems.append(f"result.{field} = {result.get(field)!r}, expected {value!r}")
    problems += _count_checks(argv, result, specs)
    return problems


def _count_checks(argv: tuple[str, ...], result: dict, specs: dict) -> list[str]:
    """Descendant and difference-set sizes equal products of cut counts."""
    if argv[0] not in ("descendants", "diffset"):
        return []
    spec = specs[argv[2]]
    stage = int(argv[4].split(":")[0])
    expected = cut_product(spec, stage, int(argv[6]))
    field = "count" if argv[0] == "descendants" else "setSize"
    if result.get(field) != expected:
        return [f"result.{field} = {result.get(field)!r}, expected {expected}"]
    return []


def report_bytes(text: str) -> int:
    """Canonical size of a report without its ``durationMs`` field."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return 0
    payload.pop("durationMs", None)
    return len(json.dumps(payload, sort_keys=True, separators=(",", ":"))) + 1
