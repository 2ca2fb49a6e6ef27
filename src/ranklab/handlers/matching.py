"""Handlers of ``ergodic-match`` and ``pattern``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..certificates.matching import PatternQuery, ProductQuery, ergodic_matching, pattern_measure
from ..cli import _VERDICT_EXIT, Outcome, _attach_approx, _interval

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_ergodic_match(args: Namespace, spec: RankOneSpec) -> Outcome:
    query = ProductQuery(
        multipliers=args.multipliers,
        shifts=args.shifts,
        base_stage=args.base,
        horizon=args.horizon,
    )
    res = ergodic_matching(spec, query)
    result = {
        "fraction": res.fraction,
        "dead": res.dead,
        "pending": res.pending,
        "verdict": res.certificate.verdict,
    }
    _attach_approx(args, result, {"fraction": res.fraction, "dead": res.dead})
    evidence = {"certificate": res.certificate, "witness": res.witness}
    return result, evidence, _VERDICT_EXIT[res.certificate.verdict]


def _cmd_pattern(args: Namespace, spec: RankOneSpec) -> Outcome:
    query = PatternQuery(
        arity=len(args.moves),
        shifts=args.moves,
        base_stage=args.base,
        cutoff=args.cutoff,
        dconst=args.dconst,
    )
    res = pattern_measure(spec, query)
    result = {
        "matched": _interval(res.matched),
        "hitMass": res.hit_mass,
        "bound": res.bound,
        "moveCount": res.gamma,
        "verdict": res.certificate.verdict,
    }
    _attach_approx(
        args,
        result,
        {"confirmed": res.matched.confirmed, "bound": res.bound},
    )
    evidence = {"certificate": res.certificate}
    return result, evidence, _VERDICT_EXIT[res.certificate.verdict]
