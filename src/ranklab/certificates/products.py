"""Tuple slides over products of powers: conservativity of shifted products
(zero shifts) and ergodicity obstructions for unequal shifts."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import reduce
from typing import Any, Mapping, Sequence

from .. import _budget, construction, sumsets
from ..construction import LevelRef, RankOneSpec
from ..errors import BudgetExceeded, ParamOutOfRange
from . import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_INCONCLUSIVE, Certificate
from . import ProductQuery, _certificate, _check_shift_bounds, _require, _require_ints


def _grown(counts: dict[int, int], offsets: Sequence[int], m: int) -> dict[int, int]:
    """Residue counts mod ``m`` of the next stage's descendants, from this stage's
    ``counts`` and the offsets between them.  A plain dict: ``Counter.update``
    costs 2-4 times as much per stage."""
    grown: dict[int, int] = {}
    for o in offsets:
        for a, c in counts.items():
            grown[(a + o) % m] = grown.get((a + o) % m, 0) + c
    return grown


def _pair_slides(spec: RankOneSpec, base: LevelRef, j: int, values: Sequence[int],
                 alphas: Sequence[int], shifts: Sequence[int]) -> int:
    """:func:`_slide_scan` for two multipliers on ``base``'s stage-``j`` descendants ``values``,
    from :func:`sumsets._difference_planes`, else from a ``Counter`` of the pairs.  With zero
    shifts a pair returns iff another pair of its class shares its key; else ``(a, b)``
    does iff its key moved by ``q*b0 - p*b1`` is in the support of the class of ``a - b0``."""
    (a0, a1), (b0, b1), g = alphas, shifts, math.gcd(*alphas)
    p, q, m, v = a0 // g, a1 // g, abs(a0), len(values)
    want, shifted = q * b0 - p * b1, b0 or b1
    planes = sumsets._difference_planes(spec, base, j, values, v.bit_length() if shifted else 2,
                                        0, alphas)
    if planes is None and m == 1 and p == q:  # keys ±(a - b): the nonnegative half
        counts = sumsets._pair_differences(values, True)
        if not shifted:  # each single d > 0 twice; 0 is single only when v = 1
            return v * v - 2 * sum(c == 1 for c in counts.values()) + (v == 1)
        d0 = want * p  # a - b = x moves to x - d0; -x qualifies iff |x + d0| is in the half
        return (sum(c for x, c in counts.items() if abs(x - d0) in counts)
                + sum(c for x, c in counts.items() if x and abs(x + d0) in counts))
    if planes is None:
        counts, seconds = Counter(), [p * m * b for b in values]
        for a in values:  # key k of class c at k*m + c
            counts.update(map((q * m * a + a % m).__sub__, seconds))
        if not shifted:
            return sum(c for c in counts.values() if c > 1)
        return sum(c for key, c in counts.items()
                   if (key // m - want) * m + (key % m - b0) % m in counts)
    if not shifted:  # 1 sets plane 0 alone, 2 plane 1, 3 both
        return v * v - sum((counts[0] & ~counts[1]).bit_count() for counts in planes.values())
    width = (abs(p) + abs(q)) * (values[-1] - values[0]) + 1
    supports = {c: sumsets._shift(reduce(int.__or__, counts), want)
                for c, counts in planes.items() if abs(want) < width}  # else no key meets
    return sum((plane & supports.get((c - b0) % m, 0)).bit_count() << i
               for c, counts in planes.items() for i, plane in enumerate(counts))


def _rank_masks(values: Sequence[int], alphas: Sequence[int], shifts: Sequence[int]) -> dict:
    """Slide masks with bit ``i`` for the ``i``-th least slide some pair gives coordinate 0."""
    a0, b0 = alphas[0], shifts[0]
    slides = {a - d - b0 for a in values for d in values}
    slides = {x // a0 for x in slides if not x % a0 and (x or any(shifts))}
    bit = {n: 1 << i for i, n in enumerate(sorted(slides))}
    masks: dict[tuple[int, int], Counter[int]] = {}
    for al, b in set(zip(alphas, shifts)):
        at = {n * al + b: m for n, m in bit.items()}
        masks[al, b] = Counter(sum(at.get(a - d, 0) for d in values) for a in values)
    return masks


def _positions_fit(window: int, span: int, v: int) -> bool:
    """Whether :func:`_slide_scan` keys slides by position: the slide window and
    the values' span stay within ``v**2``, the rank masks' own bound."""
    return max(window, span) < v * v


def _slide_scan(values: Sequence[int], alphas: Sequence[int], shifts: Sequence[int]) -> int:
    """Count the tuples that some slide ``n`` moves back into the value set.

    Tuple ``a`` slides back when every ``a_l - n*alphas[l] - shifts[l]`` is a
    value.  With every shift 0, ``n = 0`` is the identity and does not count.
    Each value gets a bitmask of its slides per distinct ``(alpha, shift)``;
    a tuple slides back iff the AND of its masks is nonzero, so each
    coordinate folds in by its distinct masks.  Coordinate 0 can take only
    the ``n`` in ``[lo, hi]``.  While :func:`_positions_fit` holds, bit ``n - lo``
    stands for ``n`` and a mask is one strided slice of the values' row.
    """
    vmin, vmax = values[0], values[-1]
    b0, g0 = shifts[0] if alphas[0] > 0 else -shifts[0], abs(alphas[0])
    lo, hi = -((vmax - vmin + b0) // g0), (vmax - vmin - b0) // g0
    if not _positions_fit(hi - lo, vmax - vmin, len(values)):
        masks, start = _rank_masks(values, alphas, shifts), -1  # -1 has every bit set
    else:
        row = bytearray(b"0") * (vmax - vmin + 1)  # "1" at a - vmin for each value a
        for a in values:
            row[a - vmin] = 49  # ord("1")
        masks = {pair: Counter() for pair in zip(alphas, shifts)}
        for (al, b), counts in masks.items():
            g, r = abs(al), row if al > 0 else row[::-1]
            for a in values:  # slide n sends a to character x - n*g of r
                x = a - b - vmin if al > 0 else vmax - a + b
                n0, n1 = max(lo, -((vmax - vmin - x) // g)), min(hi, x // g)
                if n0 <= n1:
                    counts[int(r[x - n1 * g : x - n0 * g + 1 : g], 2) << n0 - lo] += 1
        start = -1 if any(shifts) else ~(1 << -lo)  # all but the identity
    *head, last = zip(alphas, shifts)
    partial: Mapping[int, int] = {start: 1}
    for pair in head:
        folded: Counter[int] = Counter()
        for pm, pc in partial.items():
            for m, c in masks[pair].items():
                if pm & m:
                    folded[pm & m] += pc * c
        partial = folded
    tail = masks[last].items()
    return sum(pc * sum(c for m, c in tail if pm & m) for pm, pc in partial.items())


def conservativity_fraction(
    spec: RankOneSpec, query: ProductQuery
) -> tuple[Fraction, Certificate]:
    """Fraction of descendant tuples that slide back into the tuple set.

    A tuple ``(a_0, ..., a_{v-1})`` of stage-``j`` descendants *returns* if
    some nonzero integer power ``n`` has ``a_l - n * multipliers[l]`` again a
    descendant for every ``l`` — the finite shadow of the product
    transformation revisiting a positive-measure set.  The verdict holds at
    ``epsilon`` when some inspected stage has fraction >= 1 - epsilon.
    """
    if any(query.shifts):
        raise ParamOutOfRange("the return-fraction question uses zero shifts")
    _check_shift_bounds(spec, query)
    base = LevelRef(query.base_stage, 0)
    alpha = query.multipliers
    v, equal = len(alpha), len(set(alpha)) == 1
    residues = {0: 1}  # ``Counter(d % |alpha[0]|)`` over the stage-j descendants d
    rows = []
    best = Fraction(0)
    for j in range(query.base_stage + 1, query.horizon + 1):
        count = construction._charge_descendants(spec, base, j)
        if v > 1:
            power, label = ((v, "anchored difference keys") if equal
                            else (v + 1, "per-tuple slide scan"))
            _budget.charge(count**power, label)
        # The descendants per class mod |alpha|: a one-multiplier tuple, or a
        # diagonal tuple, returns iff its class holds another value.
        if equal:
            residues = _grown(residues, spec.height_set(j - 1), abs(alpha[0]))
        returning = sum(c for c in residues.values() if c > 1)  # 0 unless equal
        diagonal = Fraction(returning, count) if equal and v > 1 else None
        if v == 1:
            matched, route = returning, "residue"
        else:
            route = "anchored" if equal else "scan"
            values = construction._listed(spec, base, j)
            matched = (_pair_slides(spec, base, j, values, alpha, query.shifts) if v == 2
                       else _slide_scan(values, alpha, query.shifts))
        fraction = Fraction(matched, count**v)
        _require(0 <= fraction <= 1, "fraction outside [0, 1]")
        row: dict[str, Any] = {
            "stage": j,
            "route": route,
            "matched": matched,
            "tuples": count**v,
            "fraction": fraction,
        }
        if diagonal is not None:
            row["diagonalFraction"] = diagonal
        rows.append(row)
        best = max(best, fraction)
    verdict = VERDICT_HOLDS if best >= 1 - query.epsilon else VERDICT_INCONCLUSIVE
    cert = _certificate(
        spec,
        "conservative-fraction",
        verdict,
        parameters={
            "multipliers": alpha,
            "shifts": query.shifts,
            "baseStage": query.base_stage,
            "horizon": query.horizon,
            "epsilon": query.epsilon,
        },
        evidence={"stages": rows, "bestFraction": best},
    )
    return best, cert


# ---------------------------------------------------------------------------
# ergodicity obstructions for products with unequal shifts


def non_ergodic_check(
    spec: RankOneSpec,
    alpha: Sequence[int],
    shifts: Sequence[int],
    base_stage: int,
    horizon: int,
) -> Certificate:
    """Certify that no tuple slide ever realizes the requested shifts.

    Necessary condition for a matched pair: some integer ``n`` (zero
    allowed) has ``a_l - n*alpha_l - b_l`` a descendant for every ``l``.
    The fraction of tuples passing it is computed per stage; an arithmetic
    obstruction (all descendant heights share a divisor that the shift
    combination misses) forces the fraction to zero at every stage at once.
    """
    alphas = tuple(alpha)
    b = tuple(shifts)
    if not alphas or len(b) != len(alphas):
        raise ParamOutOfRange(
            f"{len(b)} shifts for {len(alphas)} multipliers"
        )
    _require_ints(alphas, "multipliers must be nonzero integers", bool)
    _require_ints(b, "shifts must be integers")
    if base_stage < 0 or horizon <= base_stage:
        raise ParamOutOfRange(
            f"need 0 <= base stage < horizon, got {base_stage}, {horizon}"
        )
    v = len(alphas)
    base = LevelRef(base_stage, 0)

    params = {
        "multipliers": alphas,
        "shifts": b,
        "baseStage": base_stage,
        "horizon": horizon,
    }
    if len(set(b)) == 1:
        return _certificate(
            spec,
            "non-ergodic",
            VERDICT_INCONCLUSIVE,
            parameters=params,
            evidence={
                "note": "equal shifts slide along the diagonal; nothing to refute"
            },
        )

    growth_rows = []
    max_drop = 0
    for n in range(base_stage + 1, horizon + 1):
        max_drop += max(spec.height_set(n - 1))
        h, bound = spec.height(n), max_drop + 2
        growth_rows.append({"stage": n, "height": h, "bound": bound, "ok": h >= bound})

    g = 0
    for n in range(base_stage, horizon):
        for x in spec.height_set(n):
            g = math.gcd(g, x)
    _require(g >= 1, "height sets share no positive divisor")
    blocked = None
    for l in range(v):
        if (alphas[l] * b[0] - alphas[0] * b[l]) % g:
            blocked = l
            break

    rows = []
    zero_everywhere = True
    any_rows = False
    count = 1
    by_differences = alphas == (1, 1)
    power, label = ((2, "difference counts for the shift criterion") if by_differences
                    else (v + 1, "per-tuple slide scan with shifts"))
    for j in range(base_stage + 1, horizon + 1):
        count *= spec.stage(j - 1).r  # descendant count: product of cut counts
        row: dict[str, Any] = {"stage": j, "tuples": count**v}
        try:  # both charges before the descendants are built
            construction._charge_descendants(spec, base, j)
            _budget.charge(count**power, label)
        except BudgetExceeded as exc:
            row["skipped"] = str(exc)
            rows.append(row)
            continue
        values = construction._listed(spec, base, j)
        matched = (_pair_slides(spec, base, j, values, alphas, b) if v == 2
                   else _slide_scan(values, alphas, b))
        row["route"] = "difference-counts" if by_differences else "scan"
        fraction = Fraction(matched, count**v)
        row["matched"] = matched
        row["fraction"] = fraction
        if blocked is not None:
            _require(fraction == 0, "arithmetic obstruction contradicted by scan")
            row["route"] += "+structural"
        rows.append(row)
        any_rows = True
        zero_everywhere = zero_everywhere and fraction == 0

    evidence: dict[str, Any] = {"growth": growth_rows, "stages": rows, "divisor": g}
    if blocked is not None:
        evidence["obstruction"] = {
            "coordinate": blocked,
            "value": alphas[blocked] * b[0] - alphas[0] * b[blocked],
            "label": "parity" if g % 2 == 0 else "divisor",
        }
        evidence["scope"] = "structural"
        verdict = VERDICT_FAILS
    elif any_rows and zero_everywhere:
        evidence["scope"] = "horizon"
        verdict = VERDICT_FAILS
    else:
        verdict = VERDICT_INCONCLUSIVE
    return _certificate(spec, "non-ergodic", verdict, params, evidence)
