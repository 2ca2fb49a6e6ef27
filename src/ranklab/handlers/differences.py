"""Handlers of ``diffset``, ``ap`` and ``partners``: descendant differences."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .. import cli
from ..cli import EXIT_OK, EXIT_PROPERTY_FAILED, Outcome, _attach_approx

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_diffset(args: Namespace, spec: RankOneSpec) -> Outcome:
    from .._budget import charge
    from ..construction import LevelRef, descendant_heights
    from ..sumsets import descendant_differences

    level = LevelRef(*args.base)
    values = descendant_heights(spec, level, args.to)
    charge(len(values) ** 2, "difference multiset")
    diffs = descendant_differences(spec, level, args.to, values)
    if isinstance(diffs, int):  # bit d is difference d, 0 included
        rest = diffs >> 1  # bit d - 1 is positive difference d
        size, first, last = rest.bit_count(), (rest & -rest).bit_length(), rest.bit_length()
    else:
        rest = diffs - {0}
        size, first, last = len(rest), min(rest, default=None), max(rest, default=0)
    result = {"setSize": len(values), "distinctPositive": size, "maxDifference": last}
    if size > cli.TABLE_CAP:  # summarized: only a listing reads the counts
        return result, {"summary": {"count": size, "first": first, "last": last}}, EXIT_OK
    counts = descendant_differences(spec, level, args.to, values, counted=True)
    table = [[v, counts[v]] for v in sorted(counts)[1:]]  # 0 is always present
    return result, {"positive": table}, EXIT_OK


def _cmd_ap(args: Namespace, spec: RankOneSpec) -> Outcome:
    from .._budget import charge
    from ..construction import LevelRef, descendant_heights
    from ..sumsets import descendant_differences, progression_runs

    level = LevelRef(*args.base)
    values = descendant_heights(spec, level, args.to)
    charge(len(values) ** 2, "difference set for progression search")
    diffs = descendant_differences(spec, level, args.to, values)
    res = progression_runs(diffs, args.max_len)
    cap_reached = res.longest >= args.max_len
    result = {
        "longest": res.longest,
        "witness": res.witness,
        "progression": list(res.progression),
        "capReached": cap_reached,
    }
    if len(res.runs) <= cli.RUNS_CAP:  # ``runs`` iterates in ascending order
        evidence: dict[str, Any] = {"runs": [[x, ln] for x, ln in res.runs.items()]}
    else:
        evidence = {
            "runCount": len(res.runs),
            "longest": res.longest,
            "witness": res.witness,
        }
    code = EXIT_PROPERTY_FAILED if cap_reached else EXIT_OK
    return result, evidence, code


def _cmd_partners(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..sumsets import partner_set, partner_shift

    heights = spec.height_set(args.stage)
    if args.shift is not None:
        s0 = partner_set(heights, args.shift)
        s1 = partner_set(heights, args.shift + 1)
        result = {
            "z": args.shift,
            "sizeAtZ": len(s0.members),
            "sizeAtZPlus1": len(s1.members),
            "delta": s0.delta,
        }
        _attach_approx(args, result, {"delta": s0.delta})
        evidence = {"membersAtZ": list(s0.members), "membersAtZPlus1": list(s1.members)}
        return result, evidence, EXIT_OK
    ps = partner_shift(heights)
    if ps is None:
        return {"found": False}, {"heights": list(heights)}, EXIT_OK
    result = {
        "found": True,
        "z": ps.z,
        "pairCount": len(ps.at_z.members),
        "delta": ps.delta,
    }
    _attach_approx(args, result, {"delta": ps.delta})
    evidence = {
        "membersAtZ": list(ps.at_z.members),
        "membersAtZPlus1": list(ps.at_z_plus_1.members),
    }
    return result, evidence, EXIT_OK
