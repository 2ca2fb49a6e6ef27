"""Directional asymmetry of triple intersections."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .. import _budget, construction
from ..construction import LevelRef, MeasureInterval, RankOneSpec, _intersection_measure
from ..errors import StageTooLow
from . import VERDICT_HOLDS, VERDICT_INCONCLUSIVE, Certificate, _certificate


class AsymmetryResult(NamedTuple):
    level: LevelRef
    scale_stage: int
    zero_side: MeasureInterval
    forward_side: MeasureInterval
    adjacency_free: bool
    zero_exact: bool
    certificate: Certificate


def asymmetry_statistic(
    spec: RankOneSpec, base_stage: int, scale_stage: int, eval_stage: int
) -> AsymmetryResult:
    """Triple-intersection masses that tell a map from its inverse.

    Compares mu(I ∩ T^-(h+1) I ∩ T^-(2h+1) I) against
    mu(I ∩ T^-h I ∩ T^-(2h+1) I) for ``h`` the stage-``scale_stage`` height.
    A time-symmetric transformation would relate the two; here the forward
    pattern is confirmed with definite mass while the other side's interval
    collapses to zero once no two descendants ever sit at distance one
    (adjacent levels could otherwise resolve the off-by-one pattern later).
    """
    if base_stage < 1:
        raise StageTooLow("the statistic needs a base stage >= 1")
    if scale_stage < base_stage:
        raise StageTooLow(
            f"scale stage {scale_stage} precedes base stage {base_stage}"
        )
    if eval_stage <= scale_stage:
        raise StageTooLow(
            f"evaluation stage {eval_stage} must exceed scale stage {scale_stage}"
        )
    level = LevelRef(base_stage, 0)
    h = spec.height(scale_stage)
    zero_exps = (0, h + 1, 2 * h + 1)
    fwd_exps = (0, h, 2 * h + 1)
    # Both sides and the last adjacency row share one set of the evaluation
    # stage's descendants.  Its two reuses are charged as the enumerations
    # they replace, so budget ledgers and refusals stay as they were.
    at_eval = set(construction.descendant_heights(spec, level, eval_stage))
    for _ in range(2):
        _budget.charge(len(at_eval), f"descendant set at stage {eval_stage}")
    zero_side = _intersection_measure(spec, level, zero_exps, eval_stage, at_eval)
    forward_side = _intersection_measure(spec, level, fwd_exps, eval_stage, at_eval)

    adjacency_rows = []
    adjacency_free = True
    for j in range(base_stage, eval_stage + 1):
        vset = (set(construction.descendant_heights(spec, level, j))
                if j < eval_stage else at_eval)
        pairs = sum(1 for x in vset if x + 1 in vset)
        adjacency_rows.append({"stage": j, "adjacentPairs": pairs})
        adjacency_free = adjacency_free and pairs == 0

    zero_exact = adjacency_free and zero_side.confirmed == 0
    zero_upper = Fraction(0) if zero_exact else zero_side.upper
    verdict = (
        VERDICT_HOLDS
        if forward_side.confirmed > zero_upper
        else VERDICT_INCONCLUSIVE
    )
    width = spec.level_width(base_stage)
    cert = _certificate(
        spec,
        "asymmetry",
        verdict,
        parameters={
            "baseStage": base_stage,
            "scaleStage": scale_stage,
            "evalStage": eval_stage,
            "zeroExponents": zero_exps,
            "forwardExponents": fwd_exps,
        },
        evidence={
            "levelMeasure": width,
            "zeroSide": zero_side,
            "forwardSide": forward_side,
            "zeroRelativeUpper": zero_upper / width,
            "forwardRelativeConfirmed": forward_side.confirmed / width,
            "adjacency": adjacency_rows,
            "adjacencyFree": adjacency_free,
            "zeroExact": zero_exact,
        },
    )
    return AsymmetryResult(
        level=level,
        scale_stage=scale_stage,
        zero_side=zero_side,
        forward_side=forward_side,
        adjacency_free=adjacency_free,
        zero_exact=zero_exact,
        certificate=cert,
    )
