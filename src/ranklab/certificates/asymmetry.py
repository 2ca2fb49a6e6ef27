"""Directional asymmetry of triple intersections."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .. import construction
from ..construction import LevelRef, MeasureInterval, RankOneSpec
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


def _adjacent_pairs(spec: RankOneSpec, level: LevelRef, last: int) -> list[int]:
    """``#{x : x + 1 in D_j}`` for ``j = level.stage .. last``, by a recurrence.

    ``D_{n+1}`` is ``r_n`` disjoint copies of ``D_n`` at the offsets ``H_n``, and
    consecutive copies ``o < o'`` join at one pair iff ``o' - o = span_n + 1``.
    """
    pairs = [0]
    for n in range(level.stage, last):
        _, lo, hi = construction.descendant_extent(spec, level, n)
        offsets = spec.height_set(n)
        joins = sum(b - a == hi - lo + 1 for a, b in zip(offsets, offsets[1:]))
        pairs.append(len(offsets) * pairs[-1] + joins)
    return pairs


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
    # Charged as if the last row were listed, whatever the route.  The lower rows
    # are smaller and charges do not add up, so charging them could refuse nothing.
    construction._charge_descendants(spec, level, eval_stage)
    zero_side = construction._bracket(spec, level, zero_exps, eval_stage)
    forward_side = construction._bracket(spec, level, fwd_exps, eval_stage)
    pairs = _adjacent_pairs(spec, level, eval_stage)
    adjacency_rows = [{"stage": j, "adjacentPairs": p} for j, p in enumerate(pairs, base_stage)]
    adjacency_free = not any(pairs)

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
