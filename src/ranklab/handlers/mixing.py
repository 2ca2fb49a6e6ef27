"""Handler of ``mixing``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..certificates.mixing import mixing_decay
from ..cli import _VERDICT_EXIT, Outcome, _attach_approx
from ..errors import UsageError

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_mixing(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..construction import LevelRef

    if not args.shifts and args.window is None:
        raise UsageError("give --shifts and/or --window")
    level = LevelRef(*args.base)
    res = mixing_decay(spec, level, args.shifts, args.window)
    result = {
        "verdict": res.verdict,
        "entryCount": len(res.shifts),
        "inWindow": res.in_window,
        "violations": res.violation_count,
        "worstRatio": res.worst_ratio,
    }
    _attach_approx(args, result, {"worstRatio": res.worst_ratio})
    evidence = {"certificate": res.certificate}
    return result, evidence, _VERDICT_EXIT[res.verdict]
