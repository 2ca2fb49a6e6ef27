"""Tuple slides over products of powers: conservativity of shifted products
(zero shifts) and ergodicity obstructions for unequal shifts."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .. import _budget, construction, sumsets
from ..construction import LevelRef, RankOneSpec
from ..errors import BudgetExceeded, ParamOutOfRange
from . import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_INCONCLUSIVE, Certificate
from . import ProductQuery, _certificate, _check_shift_bounds, _require, _require_ints


def _residues(spec: RankOneSpec, level: LevelRef, j: int, m: int) -> Counter[int]:
    """``Counter(v % m)`` over the stage-``j`` descendants, one convolution per stage."""
    counts = Counter({level.height % m: 1})
    for n in range(level.stage, j):
        grown: Counter[int] = Counter()
        for o in spec.height_set(n):  # distinct residues a give distinct (a + o) % m
            grown.update({(a + o) % m: c for a, c in counts.items()})
        counts = grown
    return counts


def _anchored_matched(
    values: Sequence[int], alpha0: int, arity: int
) -> tuple[int, Fraction]:
    """Uniform-multiplier route: group tuples by anchored difference key.

    Sliding a tuple by ``n * alpha`` preserves the coordinate differences and
    the anchor's residue mod ``|alpha|``; two tuples in one group are exact
    slides of each other, and a nonzero slide exists iff a group has >= 2
    members.  Returns the matched count and the diagonal sub-fraction.
    """
    m, zero = abs(alpha0), (0,) * (arity - 1)
    groups = Counter((tuple(t - tup[0] for t in tup[1:]), tup[0] % m)
                     for tup in itertools.product(values, repeat=arity))
    matched = sum(c for c in groups.values() if c >= 2)
    diag_matched = sum(c for key, c in groups.items() if key[0] == zero and c >= 2)
    return matched, Fraction(diag_matched, len(values))


def _keys_fit(count: int, width: int) -> bool:
    """:func:`_key_slides`'s rule: ``count`` copies of ``width`` bits, 8,192 bits per pair,
    below where the slide scan or the anchored-key dict started to win (README)."""
    return width <= 8192 * count


def _key_slides(values: Sequence[int], alphas: Sequence[int],
                shifts: Sequence[int]) -> tuple[int, Fraction] | None:
    """:func:`_slide_scan` for two multipliers, with :func:`_anchored_matched`'s diagonal;
    ``None`` past :func:`_keys_fit`.  With ``p, q = alphas / gcd``, ``(a, b)`` and ``(d, e)``
    differ by a slide iff their keys ``q*a - p*b`` agree and ``a = d mod |alphas[0]|``.
    Per residue class, each ``a`` folds its keys (bits ``-p*b`` shifted by ``q*a``) into
    planes at least once and at least twice.  With zero shifts a pair returns iff its key
    is not single; else ``(a, b)`` does iff its key moved by ``q*b0 - p*b1`` is in the
    support of the class of ``a - b0``."""
    (a0, a1), (b0, b1), g = alphas, shifts, math.gcd(*alphas)
    p, q, m, lo, span = a0 // g, a1 // g, abs(a0), values[0], values[-1] - values[0]
    if not _keys_fit(len(values), width := (abs(p) + abs(q)) * span + 1):
        return None
    at = lambda c, a: abs(c) * (a - lo if c > 0 else span + lo - a)  # bit c*a, offset to 0
    row, classes = bytearray(abs(p) * span // 8 + 1), {}
    for a in values:
        row[(bit := at(-p, a)) >> 3] |= 1 << (bit & 7)
        classes.setdefault(a % m, []).append(a)
    keys, want = int.from_bytes(row, "little"), q * b0 - p * b1
    matched = 0 if b0 or b1 else len(values) ** 2
    for r, members in classes.items() if abs(want) < width else ():  # else no key meets
        once = twice = 0
        for a in members:
            copy = keys << at(q, a)
            once, twice = once | copy, twice | once & copy
        support = once << want if want >= 0 else once >> -want
        matched += (sum((keys << at(q, a) & support).bit_count()
                        for a in classes.get((r + b0) % m, ()))
                    if b0 or b1 else twice.bit_count() - once.bit_count())
    return matched, Fraction(sum(len(c) for c in classes.values() if len(c) > 1), len(values))


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


def _slide_scan(values: Sequence[int], alphas: Sequence[int], shifts: Sequence[int]) -> int:
    """Count the tuples that some slide ``n`` moves back into the value set.

    Tuple ``a`` slides back when every ``a_l - n*alphas[l] - shifts[l]`` is a
    value.  With every shift 0, ``n = 0`` is the identity and does not count.
    Each value gets a bitmask of its slides per distinct ``(alpha, shift)``;
    a tuple slides back iff the AND of its masks is nonzero, so each
    coordinate folds in by its distinct masks.  Coordinate 0 can take only
    the ``n`` in ``[lo, hi]``.  While that window and the span of the sorted
    ``values`` are within ``V**2``, the rank masks' own bound, bit ``n - lo``
    stands for ``n`` and a mask is one strided slice of the values' row.
    """
    vmin, vmax = values[0], values[-1]
    b0, g0 = shifts[0] if alphas[0] > 0 else -shifts[0], abs(alphas[0])
    lo, hi = -((vmax - vmin + b0) // g0), (vmax - vmin - b0) // g0
    if max(hi - lo, vmax - vmin) >= len(values) ** 2:
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
    v = len(alpha)
    rows = []
    best = Fraction(0)
    for j in range(query.base_stage + 1, query.horizon + 1):
        count = construction._charge_descendants(spec, base, j)
        diagonal: Fraction | None = None
        if v == 1:
            matched = sum(c for c in _residues(spec, base, j, abs(alpha[0])).values() if c >= 2)
            route = "residue"
        elif len(set(alpha)) == 1:
            _budget.charge(count**v, "anchored difference keys")
            values = construction._listed(spec, base, j)
            if v == 2 and abs(alpha[0]) == 1:  # a key per difference: all but singles match
                diag = count if count >= 2 else 0
                singles = sumsets._single_differences(spec, base, j, values)
                matched = diag + count * (count - 1) - 2 * singles
                diagonal = Fraction(diag, count)
            else:
                matched, diagonal = (v == 2 and _key_slides(values, alpha, query.shifts)
                                     or _anchored_matched(values, alpha[0], v))
            route = "anchored"
        else:
            _budget.charge(count ** (v + 1), "per-tuple slide scan")
            values = construction._listed(spec, base, j)
            keyed = v == 2 and _key_slides(values, alpha, query.shifts)
            matched = keyed[0] if keyed else _slide_scan(values, alpha, query.shifts)
            route = "scan"
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
    by_differences = v == 2 and alphas == (1, 1)
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
        if by_differences:
            matched = sumsets._shift_matches(spec, base, j, values, b[0] - b[1])
            row["route"] = "difference-counts"
        else:
            keyed = v == 2 and _key_slides(values, alphas, b)
            matched = keyed[0] if keyed else _slide_scan(values, alphas, b)
            row["route"] = "scan"
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
