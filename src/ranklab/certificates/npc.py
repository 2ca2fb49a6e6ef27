"""Progression freeness of descendant differences, with a ratio-bound replay."""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .. import _budget, construction, sumsets
from ..construction import LevelRef, RankOneSpec
from ..errors import ParamOutOfRange
from . import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_INCONCLUSIVE
from . import Certificate, _certificate, _require


def npc_certificate(
    spec: RankOneSpec, kappa: int, start: int, horizon: int
) -> Certificate:
    """No (kappa+1)-term progression among positive descendant differences.

    Pairs a direct search over stages ``start .. horizon`` with the ratio
    machinery that makes the freeness self-propagating: once the column
    height dominates the descendant spread (statement ratios positive, proof
    ratios bounded by kappa), any progression long enough to cross a stage
    boundary is impossible, and the per-stage replay checks the three
    inequalities that argument needs.
    """
    if kappa < 2:
        raise ParamOutOfRange(f"kappa must be >= 2, got {kappa}")
    if start < 0 or horizon <= start:
        raise ParamOutOfRange(
            f"need 0 <= start < horizon, got start={start} horizon={horizon}"
        )
    base = LevelRef(start, 0)

    max_drop = {start: 0}
    for n in range(start, horizon + 1):
        max_drop[n + 1] = max_drop[n] + max(spec.height_set(n))

    statement_rows = []
    for n in range(start + 1, horizon + 1):
        head = spec.height(n) - 2 * max_drop[n]
        statement_rows.append(
            {
                "stage": n,
                "headroom": head,
                "ratio": Fraction(head, max_drop[n]),
                "positive": head > 0,
            }
        )
    proof_rows = []
    sup_proof: Fraction | None = None
    for n in range(start, horizon):
        head = spec.height(n) - 2 * max_drop[n]
        if head <= 0:
            proof_rows.append({"stage": n, "headroom": head, "ratio": None})
            continue
        ratio = Fraction(max_drop[n + 1], head)
        proof_rows.append({"stage": n, "headroom": head, "ratio": ratio})
        sup_proof = ratio if sup_proof is None else max(sup_proof, ratio)
    proof_ok = (
        sup_proof is not None
        and sup_proof < kappa
        and all(row["ratio"] is not None for row in proof_rows)
    )

    spacing_rows = []
    for n in range(start, horizon):
        slack = (
            spec.height(n + 1)
            - 2 * spec.height(n)
            - 2 * max(spec.height_set(n))
        )
        row: dict[str, Any] = {"stage": n, "slack": slack, "slackOk": slack >= 0}
        if n >= start + 1:
            ratio = Fraction(spec.height(n), max(spec.height_set(n + 1)))
            row["heightRatio"] = ratio
            row["heightRatioOk"] = ratio >= Fraction(1, kappa)
        spacing_rows.append(row)

    # ``diffs`` keeps each stage's bitset (or set, on a sparse stage).
    searches, diffs, free, ap_rows = {}, {}, {}, []
    for j in range(start, horizon + 1):
        values = construction.descendant_heights(spec, base, j)
        _budget.charge(len(values) ** 2, "difference set for progression search")
        diffs[j] = sumsets.descendant_differences(spec, base, j, values)
        res = searches[j] = sumsets.progression_runs(diffs[j], kappa + 1)
        free[j] = res.longest <= kappa
        ap_rows.append(
            {
                "stage": j,
                "longest": res.longest,
                "witness": res.witness,
                "progression": res.progression,
            }
        )

    replay_rows = []
    for n in range(start, horizon):
        if isinstance(diffs[n], int) and isinstance(diffs[n + 1], int):
            new = diffs[n + 1] & ~diffs[n]  # bitsets: the lowest new bit
            min_new = (new & -new).bit_length() - 1 if new else None
        else:
            old = searches[n].runs
            min_new = next((x for x in searches[n + 1].runs if x not in old), None)
        c1_bound = spec.height(n) - max_drop[n]
        c1 = min_new is None or min_new >= c1_bound
        c2 = spec.height(n) > 2 * max_drop[n]
        c3_room = spec.height(n) - 2 * max_drop[n]
        c3 = c3_room > 0 and max_drop[n + 1] < kappa * c3_room
        replay_rows.append(
            {
                "stage": n,
                "minNewDifference": min_new,
                "separation": c1_bound,
                "newDiffsClear": c1,
                "heightDominates": c2,
                "nextDropBounded": c3,
            }
        )
        # The replay inequalities are exactly what pushes freeness one stage
        # up, so they must never disagree with the direct search.
        if c1 and c2 and c3 and free[n]:
            _require(free[n + 1], f"replay passed at stage {n} but search found one")

    if not all(free.values()):
        verdict = VERDICT_FAILS
    elif proof_ok:
        verdict = VERDICT_HOLDS
    else:
        verdict = VERDICT_INCONCLUSIVE
    return _certificate(
        spec,
        "ratio-bound",
        verdict,
        parameters={"kappa": kappa, "start": start, "horizon": horizon},
        evidence={
            "statementRatios": statement_rows,
            "proofRatios": proof_rows,
            "proofSup": sup_proof,
            "spacing": spacing_rows,
            "progressions": ap_rows,
            "replay": replay_rows,
        },
    )
