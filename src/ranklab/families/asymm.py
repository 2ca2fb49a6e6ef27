"""The asymmetric-index generator.

It alternates *separated* stages (offsets are scaled distinct powers of 4, so
four-term combinations stay far apart) with *partner* stages (a prescribed
fraction of offsets pair up at shifts ``z`` and ``z+1``), the right spacer
always at least ``max H_n + h_n``.  It re-verifies every stage it emits with
:func:`separation_check` instead of trusting the design argument.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple, Sequence

from .. import _budget
from ..construction import FamilyTag, RankOneSpec, StageSpec
from ..errors import CheckedRecord, ParamOutOfRange, ScheduleInfeasible, ensure


def iroot_ceil(x: int, e: int) -> int:
    """Smallest integer ``y >= 1`` with ``y**e >= x``."""
    if e < 1:
        raise ParamOutOfRange(f"root exponent must be >= 1, got {e}")
    if x <= 1:
        return 1
    y = max(1, round(x ** (1.0 / e)))
    while y**e < x:
        y += 1
    while y > 1 and (y - 1) ** e >= x:
        y -= 1
    return y


# ---------------------------------------------------------------------------
# separation check


class SeparationResult(NamedTuple):
    """Outcome of the four-element separation scan.

    ``min_abs`` is the smallest ``|x - z - y + z'|`` over quadruples that the
    check constrains (``x != y``, ``(z, z') != (x, y)``); ``violation`` is the
    first such quadruple below the threshold in ``(x, y, z, z')`` scan order.
    """

    passed: bool
    threshold: int
    min_abs: int | None
    violation: tuple[int, int, int, int] | None


def separation_check(
    heights: Sequence[int],
    h_n: int,
    factor: int,
    restricted: Sequence[int] | None = None,
) -> SeparationResult:
    """Check ``|x - z - y + z'| >= 2*factor*h_n`` for all constrained quadruples.

    ``x`` ranges over ``restricted`` (default: all of ``heights``) and
    ``y, z, z'`` over ``heights``; the pairs with ``x == y`` or
    ``(z, z') == (x, y)`` are the combinations the bound does not (and cannot)
    constrain.
    """
    hs = sorted(set(heights))
    if restricted is None:
        xs = hs
    else:
        xs = sorted(set(restricted))
        if not set(xs) <= set(hs):
            raise ParamOutOfRange("restricted subset has elements outside the height set")
    threshold = 2 * factor * h_n
    _budget.charge(len(xs) * len(hs) ** 3, "separation quadruple scan")
    # |x - z - y + z'| is the distance from x - y to the difference z - z'.
    # Leaving out the pair (x, y) itself, the nearest is x - y again when it
    # occurs twice, else the next difference up or down.  Both ends are closed
    # by ints past 2*span: 0 is a difference within span of x - y, so it beats them.
    far = 2 * (hs[-1] - hs[0]) + 1 if hs else 1  # no heights: no x to test
    diffs = [-far, *sorted(z - z2 for z in hs for z2 in hs), far]
    min_abs: int | None = None
    violation: tuple[int, int, int, int] | None = None
    for x in xs:
        for y in hs:
            if x == y:
                continue
            d = x - y
            i = bisect_left(diffs, d)  # the first d
            gap = min(diffs[i + 1] - d, d - diffs[i - 1])
            if min_abs is None or gap < min_abs:
                min_abs = gap
            if gap < threshold and violation is None:
                violation = next(
                    (x, y, z, z2)
                    for z in hs
                    for z2 in hs
                    if (z, z2) != (x, y) and abs(d - z + z2) < threshold
                )
    passed = violation is None
    return SeparationResult(passed, threshold, min_abs, violation)


# ---------------------------------------------------------------------------
# asymmetric-index generator


class _AsymmFields(NamedTuple):
    k: int
    p: int | None
    prefix_stages: int
    separation_factor: int


class AsymmParams(CheckedRecord, _AsymmFields):
    """Schedule for the alternating separated/partner construction.

    ``k`` drives the partner-fraction decay (delta ~ 1/ceil((m+2)^(1/k)), so
    the k-th powers of the deltas diverge while the (k+1)-th powers converge);
    ``p`` drives the separated-stage cut growth (r ~ ceil((m+2)^(1/(p-1))),
    None meaning bounded cuts); ``prefix_stages`` is how many stages to
    materialize eagerly; ``separation_factor`` is the factor ``C`` in the
    separation bound ``2*C*h_n``.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.k < 1:
            raise ParamOutOfRange(f"index driver k must be >= 1, got {self.k}")
        if self.p is not None and self.p < 2:
            raise ParamOutOfRange(f"conservative index p must be >= 2 or None, got {self.p}")
        if self.prefix_stages < 0:
            raise ParamOutOfRange(f"prefix length must be >= 0, got {self.prefix_stages}")
        if self.separation_factor < 2:
            raise ParamOutOfRange(
                f"separation factor must be >= 2, got {self.separation_factor}"
            )


class AsymmStageSets(NamedTuple):
    """One generated stage, before conversion to cut/spacer form.

    On partner stages ``restricted`` holds the far-separated offsets (the
    ones the restricted separation bound quantifies over), ``shift`` the
    partner distance ``z``, ``pairs`` the count at each of ``z`` and
    ``z + 1``, and ``delta_*`` the requested and realized matched fractions.
    On separated stages ``restricted`` is the whole set and the partner
    fields are ``None``.
    """

    stage_index: int
    heights: tuple[int, ...]
    restricted: tuple[int, ...]
    shift: int | None
    pairs: int | None
    delta_requested: Fraction | None
    delta_realized: Fraction | None


def asymm_stage_sets(params: AsymmParams, n: int, h: int) -> AsymmStageSets:
    """Generate the stage-``n`` offset sets for height ``h``."""
    C = params.separation_factor
    m, odd = divmod(n, 2)
    if not odd:
        if params.p is None:
            r = 3
        else:
            r = max(3, iroot_ceil(m + 2, params.p - 1))
        base = 2 * C * h
        heights = (0, *(base * 4**i for i in range(r - 1)))
        return AsymmStageSets(n, heights, heights, None, None, None, None)

    d = iroot_ceil(m + 2, params.k)
    delta = Fraction(1, d)
    r = max(8, 4 * d + 2)
    cap = (r - 2) // 4
    if cap < 1:
        raise ScheduleInfeasible(
            f"stage {n}: cut count {r} cannot host a partner pair"
        )
    c = min(max(1, round(r * delta)), cap)
    z = 2 * C * h + 1
    # Pair blocks sit at geometrically spread anchors so that, apart from the
    # c deliberate repeats at distances z and z+1, no offset difference
    # occurs more than twice — consecutive anchors would instead replicate
    # the whole pair pattern under a single shift and break the decay bound.
    pairs: list[int] = []
    anchor = 0
    for i in range(2 * c):
        width = z if i < c else z + 1
        pairs += [anchor, anchor + width]
        anchor = 4 * (anchor + width)
    top = pairs[-1]
    ensure(top == max(pairs), "pair anchors do not increase")
    far_base = 4 * top + 2 * C * h
    far = tuple(far_base * 4**i for i in range(r - 4 * c))
    heights = tuple(pairs + list(far))
    ensure(len(heights) == r, f"{len(heights)} heights for {r} cuts")
    # The pairing realizes the promised matched fraction exactly: c members
    # of the partner sets at z and z + 1.
    hset = set(heights)
    for shift in (z, z + 1):
        ensure(sum(x - shift in hset for x in hset) == c, f"partners at {shift} miscounted")
    return AsymmStageSets(n, heights, far, z, c, delta, Fraction(c, r))


def _stage_from_heights(heights: tuple[int, ...], h: int) -> StageSpec:
    s = [b - a - h for a, b in zip(heights, heights[1:])]
    ensure(all(v >= 0 for v in s), "offset gaps below the column height")
    s.append(heights[-1] + h)  # right spacer = max H + h, the mixing hypothesis
    return StageSpec(len(heights), tuple(s))


def make_asymm_construction(params: AsymmParams) -> RankOneSpec:
    def rule(n: int, h: int) -> StageSpec:
        sets = asymm_stage_sets(params, n, h)
        check = separation_check(
            sets.heights,
            h,
            params.separation_factor,
            restricted=None if sets.shift is None else sets.restricted,
        )
        if not check.passed:
            raise ScheduleInfeasible(
                f"stage {n}: generated offsets violate separation: {check.violation}"
            )
        return _stage_from_heights(sets.heights, h)

    tag = FamilyTag.of(
        "asymm",
        {
            "k": params.k,
            "p": params.p,
            "stages": params.prefix_stages,
            "separationFactor": params.separation_factor,
        },
    )
    spec = RankOneSpec(stages=(), h0=1, stage_rule=rule, family=tag)
    # Materialize (and thereby separation-check) the requested prefix eagerly.
    spec.height(params.prefix_stages)
    return spec
