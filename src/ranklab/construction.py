"""Columns built by cutting and stacking, with exact rational measure.

A construction starts from column 0: ``h0`` unit-width levels stacked over a
base interval.  Stage ``n`` cuts column ``n`` into ``r_n >= 2`` subcolumns of
equal width, adds ``s[n][j] >= 0`` spacer levels on top of subcolumn ``j``,
and stacks the subcolumns left to right, so

    h_{n+1} = r_n * h_n + sum(s[n]).

Inside column ``n+1`` the ``r_n`` copies of column ``n`` sit at offsets

    H_n = { j*h_n + s[n][0] + ... + s[n][j-1] : 0 <= j < r_n },

the *height set* of the stage.  Consecutive offsets differ by at least
``h_n``, ``min H_n = 0``, and ``max H_n = h_{n+1} - h_n - s[n][r_n-1]``.

All bookkeeping is exact: a stage-``n`` level is ``1/(r_0*...*r_{n-1})`` wide,
widths and measures are ``fractions.Fraction`` values, and set arithmetic on
heights is plain integer arithmetic.  Shift arithmetic that would leave the
column at a finite stage is reported as *unresolved* mass rather than guessed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from . import _public
from ._budget import charge
from .errors import (
    CheckedRecord,
    CutTooSmall,
    LengthMismatch,
    NegativeSpacer,
    ParamOutOfRange,
    SpecError,
    StageTooLow,
    StageUnavailable,
    ensure,
    is_plain_int,
)

__all__ = _public("construction")

# Rule used to extend a construction beyond its explicit stage prefix:
# maps (stage index, current height) to the stage description.
StageRule = Callable[[int, int], "StageSpec"]

EXTENSION_ERROR = "error"
EXTENSION_REPEAT = "repeat-last"
EXTENSION_RULE = "rule"


class StageSpec(NamedTuple):
    """One cutting step: ``r`` cuts and a spacer count per subcolumn.

    ``s[j]`` spacers go on top of subcolumn ``j``; ``s[r-1]`` is the rightmost
    (top-of-column) spacer count.
    """

    r: int
    s: tuple[int, ...]


def _checked_stage(raw: object, index: int) -> StageSpec:
    """Validate and normalize one stage description."""
    if isinstance(raw, StageSpec):
        r, s = raw.r, raw.s
    elif isinstance(raw, Mapping):
        extra = set(raw) - {"r", "s"}
        if extra:
            raise SpecError(f"stage {index}: unknown fields {sorted(extra)}")
        r, s = raw.get("r"), raw.get("s", ())
    else:
        raise SpecError(f"stage {index}: expected a StageSpec or mapping, got {type(raw).__name__}")
    if not is_plain_int(r):
        raise SpecError(f"stage {index}: cut count must be an integer")
    if r < 2:
        raise CutTooSmall(f"stage {index}: cut count {r} < 2")
    if not isinstance(s, (list, tuple)):
        raise SpecError(f"stage {index}: spacer vector must be a sequence")
    spacers = []
    for j, v in enumerate(s):
        if not is_plain_int(v):
            raise SpecError(f"stage {index}: spacer s[{j}] must be an integer")
        if v < 0:
            raise NegativeSpacer(f"stage {index}: spacer s[{j}] = {v} < 0")
        spacers.append(v)
    if len(spacers) != r:
        raise LengthMismatch(f"stage {index}: {len(spacers)} spacers for {r} cuts")
    return StageSpec(r, tuple(spacers))


class FamilyTag(NamedTuple):
    """Names the closed-form family a spec was generated from, if any.

    ``params`` is a JSON-ready mapping used verbatim for fingerprinting, so
    two specs from the same family with the same parameters hash identically.
    """

    kind: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, kind: str, params: Mapping[str, object]) -> "FamilyTag":
        return cls(kind, tuple(sorted(params.items())))

    def as_dict(self) -> dict[str, object]:
        return dict(self.params)


class RankOneSpec:
    """A validated cutting-and-stacking description.

    Stages are materialized lazily: an explicit prefix is stored, and indexes
    beyond it are produced by the extension rule — ``"error"`` (refuse),
    ``"repeat-last"`` (reuse the final explicit stage verbatim), or a family
    formula supplied as a callable of ``(stage index, current height)``.
    Heights and height sets are cached as stages materialize.
    """

    def __init__(
        self,
        stages: Sequence[StageSpec | Mapping[str, object]] = (),
        h0: int = 1,
        extension: str = EXTENSION_ERROR,
        stage_rule: StageRule | None = None,
        family: FamilyTag | None = None,
    ) -> None:
        if not is_plain_int(h0) or h0 < 1:
            raise ParamOutOfRange(f"h0 must be a positive integer, got {h0!r}")
        explicit = tuple(_checked_stage(st, i) for i, st in enumerate(stages))
        if stage_rule is not None:
            extension = EXTENSION_RULE
        if extension not in (EXTENSION_ERROR, EXTENSION_REPEAT, EXTENSION_RULE):
            raise SpecError(f"unknown extension rule {extension!r}")
        if extension == EXTENSION_REPEAT and not explicit:
            raise SpecError("repeat-last extension needs at least one explicit stage")
        if extension == EXTENSION_RULE and stage_rule is None:
            raise SpecError("rule extension needs a stage_rule callable")
        self._explicit = explicit
        self.h0 = h0
        self.extension = extension
        self._rule = stage_rule
        self.family = family
        # ``specio.spec_fingerprint`` of the spec, once computed; shared with
        # every copy, since a copy has the same payload.
        self._fingerprint: list[str] = []
        self._stages: list[StageSpec] = []
        self._heights: list[int] = [h0]
        self._height_sets: list[tuple[int, ...]] = []
        self._widths: list[Fraction] = [Fraction(1)]

    # -- stage materialization -------------------------------------------

    def explicit_stages(self) -> tuple[StageSpec, ...]:
        return self._explicit

    def copy(self) -> RankOneSpec:
        """The same spec with the stages materialized so far, in caches of its
        own: no stage either one materializes later reaches the other."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self))
        twin._stages = self._stages.copy()
        twin._heights = self._heights.copy()
        twin._height_sets = self._height_sets.copy()
        twin._widths = self._widths.copy()
        return twin

    def _materialize(self, upto: int) -> None:
        """Ensure stages 0..upto (inclusive) exist in the cache."""
        while len(self._stages) <= upto:
            n = len(self._stages)
            h = self._heights[n]
            if n < len(self._explicit):
                st = self._explicit[n]
            elif self.extension == EXTENSION_REPEAT:
                st = self._explicit[-1]
            elif self.extension == EXTENSION_RULE:
                if self._rule is None:
                    raise AssertionError(f"stage {n}: the extension rule is missing")
                st = _checked_stage(self._rule(n, h), n)
            else:
                raise StageUnavailable(
                    f"stage {n} is beyond the {len(self._explicit)}-stage prefix"
                    " and the extension rule is 'error'"
                )
            offsets = [0]
            for j in range(st.r - 1):
                offsets.append(offsets[-1] + h + st.s[j])
            h_next = st.r * h + sum(st.s)
            # Sanity: the defining identities of a height set, checked by
            # explicit raises so that they also run under ``python -O``.
            if offsets[0] != 0 or len(offsets) != st.r:
                raise AssertionError(f"stage {n}: height set has the wrong shape")
            if any(b - a < h for a, b in zip(offsets, offsets[1:])):
                raise AssertionError(f"stage {n}: height set gap below the column height")
            if offsets[-1] != h_next - h - st.s[-1]:
                raise AssertionError(f"stage {n}: height set top disagrees with h_{n + 1}")
            self._stages.append(st)
            self._heights.append(h_next)
            self._height_sets.append(tuple(offsets))
            self._widths.append(self._widths[-1] / st.r)

    def stage(self, n: int) -> StageSpec:
        if n < 0:
            raise ParamOutOfRange(f"stage index must be >= 0, got {n}")
        self._materialize(n)
        return self._stages[n]

    def height(self, n: int) -> int:
        """Number of levels in column ``n``."""
        if n < 0:
            raise ParamOutOfRange(f"stage index must be >= 0, got {n}")
        if n > 0:
            self._materialize(n - 1)
        return self._heights[n]

    def level_width(self, n: int) -> Fraction:
        """Width of one level of column ``n``: 1 / (r_0 * ... * r_{n-1})."""
        if n < 0:
            raise ParamOutOfRange(f"stage index must be >= 0, got {n}")
        if n > 0:
            self._materialize(n - 1)
        return self._widths[n]

    def height_set(self, n: int) -> tuple[int, ...]:
        self.stage(n)
        return self._height_sets[n]


def validate_spec(raw: object) -> RankOneSpec:
    """Validate *raw*, a mapping with keys ``stages``, ``h0`` and ``extension``,
    and return it as a normalized :class:`RankOneSpec`."""
    if isinstance(raw, Mapping):
        extra = set(raw) - {"stages", "h0", "extension"}
        if extra:
            raise SpecError(f"unknown spec fields {sorted(extra)}")
        return RankOneSpec(
            raw.get("stages", ()),
            h0=raw.get("h0", 1),
            extension=raw.get("extension", EXTENSION_ERROR),
        )
    raise SpecError(f"cannot validate a {type(raw).__name__} as a construction spec")


class LevelRef(NamedTuple):
    """One level of one column: ``(stage, height)`` with 0 at the bottom."""

    stage: int
    height: int


def check_level(spec: RankOneSpec, level: LevelRef) -> LevelRef:
    if level.stage < 0:
        raise ParamOutOfRange(f"level stage must be >= 0, got {level.stage}")
    h = spec.height(level.stage)
    if not 0 <= level.height < h:
        raise ParamOutOfRange(
            f"level height {level.height} outside column {level.stage}"
            f" (valid range 0..{h - 1})"
        )
    return level


def level_width(spec: RankOneSpec, level: LevelRef) -> Fraction:
    check_level(spec, level)
    return spec.level_width(level.stage)


def descendant_extent(spec: RankOneSpec, level: LevelRef, j: int) -> tuple[int, int, int]:
    """``(count, min, max)`` of a level's stage-``j`` descendants, unlisted.

    Each descendant ``e + o_i + ... + o_{j-1}`` (``o_n`` in ``H_n``) has exactly
    one decomposition, so the count is the product of the cut counts, the
    least is ``e`` and the greatest is ``e + max H_i + ... + max H_{j-1}``.
    Raises what :func:`descendant_heights` raises, in the same order, except
    that nothing is charged: the work is one step per stage.
    """
    check_level(spec, level)
    if j < level.stage:
        raise StageTooLow(f"target stage {j} precedes level stage {level.stage}")
    count, top = 1, level.height
    for n in range(level.stage, j):
        offsets = spec.height_set(n)
        count *= len(offsets)
        top += offsets[-1]
    return count, level.height, top


def descendant_heights(spec: RankOneSpec, level: LevelRef, j: int) -> tuple[int, ...]:
    """Heights, in column ``j``, of the sublevels a level splits into, sorted.

    Stage by stage, a level at height ``e`` of column ``n`` reappears at
    heights ``e + H_n`` in column ``n+1``; iterating gives the elementwise
    sumset ``{e} + H_i + ... + H_{j-1}``.  Its size, the product of the cut
    counts (:func:`descendant_extent`), is charged against the enumeration
    budget before anything is built.
    """
    _charge_descendants(spec, level, j)
    return _listed(spec, level, j)


def _charge_descendants(spec: RankOneSpec, level: LevelRef, j: int) -> int:
    """Charge the stage-``j`` descendant set as :func:`descendant_heights` does; its size."""
    count, _, _ = descendant_extent(spec, level, j)
    charge(count, f"descendant set at stage {j}")
    return count


def _listed(spec: RankOneSpec, level: LevelRef, j: int) -> tuple[int, ...]:
    """:func:`descendant_heights` uncharged, for callers that charged it.

    Looping over offsets outermost emits each stage sorted and collision-free
    while every gap of ``H_n`` exceeds the span of the stage-``n`` descendants,
    as nonnegative spacers ensure; an explicit raise checks it in O(r_n).
    """
    heights = [level.height]
    for n in range(level.stage, j):
        offsets = spec.height_set(n)
        span = heights[-1] - heights[0]
        if any(b - a <= span for a, b in zip(offsets, offsets[1:])):
            raise AssertionError(f"descendants collided at stage {n + 1}")
        heights = [o + e for o in offsets for e in heights]
    if heights[0] != level.height or heights[-1] > spec.height(j) - 1:
        raise AssertionError(f"descendants left column {j}")
    return tuple(heights)


class _MeasureIntervalFields(NamedTuple):
    confirmed: Fraction
    unresolved: Fraction


class MeasureInterval(CheckedRecord, _MeasureIntervalFields):
    """An exact two-sided answer: ``confirmed`` mass plus ``unresolved`` mass.

    The true measure lies in ``[confirmed, confirmed + unresolved]``;
    unresolved mass belongs to sublevels whose shift arithmetic leaves the
    column at the evaluation stage and so cannot be decided there.
    """

    __slots__ = ()

    def _check(self) -> None:
        ensure(
            all(isinstance(v, Fraction) or is_plain_int(v) for v in self),
            "measure bracket ends must be ints or Fractions",
        )
        ensure(self.confirmed >= 0 and self.unresolved >= 0, "negative measure bracket")

    @property
    def upper(self) -> Fraction:
        return self.confirmed + self.unresolved


def intersection_measure(
    spec: RankOneSpec,
    level: LevelRef,
    exponents: Sequence[int],
    j: int,
) -> MeasureInterval:
    """Exact measure bracket for the k-fold intersection of shifted copies.

    Computes ``mu(T^{m_0} L ∩ ... ∩ T^{m_{k-1}} L)`` for the level ``L`` at
    evaluation stage ``j``.  The exponent list is first translated so its
    minimum is 0 (intersections are invariant under a common shift); a
    stage-``j`` sublevel at height ``e`` then

    * counts as *confirmed* when every ``e - m_t`` stays in the column and is
      again a sublevel height,
    * is discarded as soon as one in-range ``e - m_t`` is not a sublevel
      height, and
    * stays *unresolved* when no in-range test fails but some shift exits the
      column (those decisions belong to deeper stages).

    Unresolved mass is at most ``k * max(m) * width_j`` — a per-element count
    bounded by how many sublevels sit within ``max(m)`` of the column ends —
    and shrinks geometrically with ``j``.  The descendants are charged, but
    listed only at the stage :func:`_bracket` picks.
    """
    if not exponents:
        raise ParamOutOfRange("need at least one exponent")
    _charge_descendants(spec, level, j)
    return _bracket(spec, level, exponents, j)


def _bracket(
    spec: RankOneSpec, level: LevelRef, exponents: Sequence[int], j: int
) -> MeasureInterval:
    """:func:`intersection_measure` uncharged, from the blocks of a stage ``k <= j``.

    ``D_j = D_k + O`` for the offsets ``O = H_k + ... + H_{j-1}`` of column
    ``k``'s copies, at least ``h_k`` apart.  With every shift ``m < h_k``,
    ``o + d - m`` lies in block ``o`` if ``m <= d``, else ``g + d - m`` in the
    block a gap ``g`` before (or below the column, for ``o = 0``).  The gap
    before ``o`` whose lowest nonzero digit is ``H_n[i]`` is ``H_n[i] -
    H_n[i-1] - max H_k - ... - max H_{n-1}``, shared by ``r_{n+1} * ... *
    r_{j-1}`` blocks.  ``k = j`` is the per-descendant loop over ``D_j``.
    """
    base = min(exponents)
    shifts = sorted({m - base for m in exponents})
    k = level.stage
    while k < j and spec.height(k) <= shifts[-1]:
        k += 1
    count_k, count_j = (descendant_extent(spec, level, n)[0] for n in (k, j))
    gaps, drop = Counter(), 0
    copies = blocks = count_j // count_k
    for n in range(k, j):
        offsets = spec.height_set(n)
        blocks //= len(offsets)
        for a, b in zip(offsets, offsets[1:]):
            if b - a - drop < spec.height(k):
                raise AssertionError(f"descendants collided at stage {n + 1}")
            gaps[b - a - drop] += blocks
        drop += offsets[-1]
    members = set(_listed(spec, level, k))
    confirmed, edge = 0, []  # edge: d with shifts past it (out of block 0, or a gap back)
    for d in members:
        for m in shifts:  # ascending: those up to d stay in the block
            if m > d or d - m not in members:
                break
        else:
            confirmed += copies
            continue
        if m > d:
            edge.append(d)
    confirmed += sum(c for g, c in gaps.items() for d in edge
                     if all(g + d - m in members for m in shifts if m > d))
    w = spec.level_width(j)
    result = MeasureInterval(confirmed * w, len(edge) * w)
    ensure(result.upper <= level_width(spec, level), "bracket exceeds the level's width")
    return result
