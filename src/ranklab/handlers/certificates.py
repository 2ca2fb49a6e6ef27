"""Handlers of the certificate commands.

Each handler imports the part of ``certificates`` that answers its command,
and only that part; ``cli.run`` has imported it already.  Every handler ends
in :func:`_outcome`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..cli import EXIT_OK, EXIT_PROPERTY_FAILED, Outcome, _attach_approx
from ..errors import ParamOutOfRange, UsageError

if TYPE_CHECKING:
    from argparse import Namespace
    from fractions import Fraction

    from ..certificates import Certificate
    from ..construction import MeasureInterval, RankOneSpec

_VERDICT_EXIT = {"holds": EXIT_OK, "inconclusive": EXIT_OK, "fails": EXIT_PROPERTY_FAILED}


def _interval(mi: MeasureInterval) -> dict[str, Fraction]:
    return {"confirmed": mi.confirmed, "unresolved": mi.unresolved, "upper": mi.upper}


def _outcome(args: Namespace, cert: Certificate, result: dict[str, Any],
             approx: dict[str, Any], **evidence: Any) -> Outcome:
    """The certificate's verdict in ``result``, with ``approx`` rendered when
    asked; the certificate heads the evidence; the verdict picks the exit code."""
    result["verdict"] = cert.verdict
    _attach_approx(args, result, approx)
    return result, {"certificate": cert, **evidence}, _VERDICT_EXIT[cert.verdict]


def _cmd_conservativity(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.products import ProductQuery, conservativity_fraction

    query = ProductQuery(multipliers=args.multipliers, shifts=(0,) * len(args.multipliers),
                         base_stage=args.base, horizon=args.horizon, epsilon=args.epsilon)
    best, cert = conservativity_fraction(spec, query)
    return _outcome(args, cert, {"bestFraction": best}, {"bestFraction": best})


def _cmd_non_ergodic(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.products import non_ergodic_check

    cert = non_ergodic_check(spec, args.alpha, args.shifts, args.base, args.horizon)
    return _outcome(args, cert, {"scope": cert.evidence.get("scope")}, {})


def _cmd_ergodic_match(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.matching import ProductQuery, ergodic_matching

    query = ProductQuery(multipliers=args.multipliers, shifts=args.shifts,
                         base_stage=args.base, horizon=args.horizon)
    res = ergodic_matching(spec, query)
    result = {"fraction": res.fraction, "dead": res.dead, "pending": res.pending}
    approx = {"fraction": res.fraction, "dead": res.dead}
    return _outcome(args, res.certificate, result, approx, witness=res.witness)


def _cmd_pattern(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.matching import PatternQuery, pattern_measure

    query = PatternQuery(arity=len(args.moves), shifts=args.moves, base_stage=args.base,
                         cutoff=args.cutoff, dconst=args.dconst)
    res = pattern_measure(spec, query)
    result = {"matched": _interval(res.matched), "hitMass": res.hit_mass,
              "bound": res.bound, "moveCount": res.gamma}
    approx = {"confirmed": res.matched.confirmed, "bound": res.bound}
    return _outcome(args, res.certificate, result, approx)


def _cmd_mixing(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.mixing import mixing_decay
    from ..construction import LevelRef

    if not args.shifts and args.window is None:
        raise UsageError("give --shifts and/or --window")
    res = mixing_decay(spec, LevelRef(*args.base), args.shifts, args.window)
    result = {"entryCount": res.shift_count, "inWindow": res.in_window,
              "violations": res.violation_count, "worstRatio": res.worst_ratio}
    return _outcome(args, res.certificate, result, {"worstRatio": res.worst_ratio})


def _cmd_npc(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.npc import npc_certificate

    cert = npc_certificate(spec, args.kappa, args.start, args.horizon)
    longest = max(row["longest"] for row in cert.evidence["progressions"])
    sup = cert.evidence["proofSup"]
    return _outcome(args, cert, {"longest": longest, "proofSup": sup}, {"proofSup": sup})


def _cmd_pwm(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.pwm import pwm_witness
    from ..specio import tq_params_of

    params = tq_params_of(spec)
    if params is None:
        raise ParamOutOfRange("power weak mixing witnesses need a tower-family spec (kind 'tq')")
    res = pwm_witness(params, args.alpha, args.shifts, args.base, args.horizon)
    result = {"moveCount": res.gamma, "tailStage": res.tail_stage, "beta": res.beta}
    return _outcome(args, res.certificate, result, {"beta": res.beta}, witness=res.match)


def _cmd_asymmetry(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..certificates.asymmetry import asymmetry_statistic

    res = asymmetry_statistic(spec, args.base, args.scale, args.eval)
    result = {"zeroSide": _interval(res.zero_side), "forwardSide": _interval(res.forward_side),
              "adjacencyFree": res.adjacency_free, "zeroExact": res.zero_exact}
    approx = {"forwardConfirmed": res.forward_side.confirmed, "zeroUpper": res.zero_side.upper}
    return _outcome(args, res.certificate, result, approx)
