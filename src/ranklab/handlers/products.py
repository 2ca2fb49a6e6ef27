"""Handlers of ``conservativity`` and ``non-ergodic``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..certificates.products import ProductQuery, conservativity_fraction, non_ergodic_check
from ..cli import _VERDICT_EXIT, Outcome, _attach_approx

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_conservativity(args: Namespace, spec: RankOneSpec) -> Outcome:
    query = ProductQuery(
        multipliers=args.multipliers,
        shifts=(0,) * len(args.multipliers),
        base_stage=args.base,
        horizon=args.horizon,
        epsilon=args.epsilon,
    )
    best, cert = conservativity_fraction(spec, query)
    result = {"bestFraction": best, "verdict": cert.verdict}
    _attach_approx(args, result, {"bestFraction": best})
    return result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]


def _cmd_non_ergodic(args: Namespace, spec: RankOneSpec) -> Outcome:
    cert = non_ergodic_check(spec, args.alpha, args.shifts, args.base, args.horizon)
    result = {"verdict": cert.verdict, "scope": cert.evidence.get("scope")}
    return result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]
