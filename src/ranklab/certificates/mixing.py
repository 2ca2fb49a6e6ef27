"""Overlap decay under large shifts: :func:`mixing_decay` and its result."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

from .. import _budget, construction, sumsets
from ..construction import LevelRef, RankOneSpec
from ..errors import StageTooLow, StageUnavailable
from . import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_INCONCLUSIVE
from . import Certificate, _certificate


class MixingEntry(NamedTuple):
    m: int
    window: int | None
    eval_stage: int | None
    ratio: Fraction | None
    pushed_out: int | None
    bound: Fraction | None
    delta: Fraction | None
    hypothesis_ok: bool | None
    violation: bool | None
    note: str | None = None


_Segment = tuple[range, tuple[Any, ...]]


def _expanded(segments: list[_Segment]) -> list[MixingEntry]:
    return [MixingEntry(m, *row) for shifts, row in segments for m in shifts]


class _MixingResultFields(NamedTuple):
    shift_count: int
    segments: list[_Segment]
    verdict: str
    certificate: Certificate
    in_window: int
    violation_count: int
    worst_ratio: Fraction | None


class MixingResult(_MixingResultFields):
    """A sweep's verdict and summary, with its shifts as segments.

    ``segments`` lists each ``(range of shifts, row)`` in shift order; the
    row holds the fields after ``m`` of the entry of each of its shifts.
    ``entries`` builds the :class:`MixingEntry` tuple on first read.
    """

    # No __slots__ here: ``entries`` is cached in the instance dict.
    @cached_property
    def entries(self) -> tuple[MixingEntry, ...]:
        return tuple(_expanded(self.segments))


_ZERO_ROW = (None, None, Fraction(1), None, None, None, None, None, "zero shift")
_BEYOND_ROW = (None,) * 8 + ("beyond the materialized stages",)


def _window_tops(spec: RankOneSpec, level: LevelRef, reach: int) -> list[int]:
    """Top shift of each window from ``level.stage`` on, until one reaches ``reach``.

    Stage ``level.stage + i`` owns the shifts in ``(tops[i-1], tops[i]]``, so
    one bisect locates a shift.  The list stops early at the first stage the
    spec cannot materialize; shifts beyond its last top have no window.
    """
    tops: list[int] = []
    top, n = 0, level.stage
    while top < reach:
        try:
            top += max(spec.height_set(n))
        except StageUnavailable:
            break
        tops.append(top)
        n += 1
    return tops


def _pairs_pay(owned: int, size: int) -> bool:
    """Whether a window counts all ``size * (size - 1) / 2`` pairs of its
    values, not scan them once per shift: only when its ``owned`` shifts are
    at least half as many.  Either way the work stays within the charged units."""
    return 2 * owned >= size


class _Window:
    """One shift window: stage ``n``'s pairing data, evaluated at stage ``n + 1``."""

    def __init__(self, spec: RankOneSpec, level: LevelRef, n: int, owned: int) -> None:
        size = construction._charge_descendants(spec, level, n + 1)
        _budget.charge(owned * size, "overlap counts across a shift window")
        self.values = construction._listed(spec, level, n + 1)
        self.n = n
        self.top = spec.height(n + 1) - 1
        # Multiplicity of each nonnegative difference among the sorted distinct
        # values, counted over all pairs when :func:`_pairs_pay`.  ``cuts``
        # then lists each |m| whose counts may differ from |m| - 1's: every
        # difference, every difference + 1 and the V pushed-out steps.
        # Without them (the scan route) each shift scans the V values.
        self.cuts: list[int] | None = None
        if _pairs_pay(owned, len(self.values)):
            counts = sumsets._pair_differences(self.values, counted=True)
            self.count: Callable[[int], int] = counts.__getitem__  # 0 if missing
            self.cuts = sorted({*counts, *(d + 1 for d in counts),
                                *(self.top + 1 - f for f in self.values)})
        else:
            members = set(self.values)
            self.count = lambda d: sum(f + d in members for f in self.values)
        ps = sumsets.partner_shift(spec.height_set(n))
        self.delta = ps.delta if ps is not None else Fraction(0)
        stage = spec.stage(n)
        self.bound = max(Fraction(1, stage.r), self.delta)
        self.hyp = stage.s[-1] >= max(spec.height_set(n)) + spec.height(n)
        # (overlap count, pushed-out count) -> [row, least m with those counts]
        self.records: dict[tuple[int, int], list[Any]] = {}

    def row(self, inside: int, pushed: int) -> tuple[Any, ...]:
        ratio = Fraction(inside, len(self.values))
        violation = self.hyp and ratio > self.bound
        note = None if self.hyp else "rightmost spacer below clearing height"
        n, bound, delta, hyp = self.n, self.bound, self.delta, self.hyp
        return (n, n + 1, ratio, pushed, bound, delta, hyp, violation, note)


def mixing_decay(
    spec: RankOneSpec,
    level: LevelRef,
    ms: Sequence[int] = (),
    window: int | None = None,
) -> MixingResult:
    """Overlap ratio mu(T^m F ∩ F)/mu(F) against the pairing bound.

    A shift ``m`` belongs to the window of the first stage ``n`` whose
    largest descendant drop reaches it; the ratio is evaluated one stage
    later, counting descendants that land back on descendants.  When stage
    ``n``'s rightmost spacer clears the column (spacer >= max offset +
    height), the bound max(1/r_n, delta_n) applies and is checked; without
    that hypothesis the entry is reported but carries no verdict weight.
    ``window=n`` enumerates every shift in stage ``n``'s window.

    Cost: shifts are kept as runs of consecutive integers, split at 0 and
    at ±each window top.  Over the V sorted distinct stage-``n+1``
    descendants, the overlap at m is the multiplicity of difference |m|,
    nonzero only at the V(V-1)/2 differences, and the pushed-out count steps
    only at V thresholds.  Sorting these cut points once per window costs
    O(V² log V); they split each piece of a run into segments of constant
    counts, one evaluation each: O(V² log V + runs + segments), with nothing
    stored per shift.  A window owning fewer than V/2 shifts scans its V
    values per shift instead (one-shift segments), so the work never exceeds
    the units charged.  One ``Fraction`` is made per distinct pair of counts
    in a window.  The result keeps each segment as a range of shifts and
    its row.
    """
    construction.check_level(spec, level)
    runs: list[range] = []  # consecutive ascending named shifts merged
    for m in ms:
        run = runs.pop() if runs and runs[-1].stop == m else range(m, m)
        runs.append(range(run.start, m + 1))
    if window is not None:
        if window < level.stage:
            raise StageTooLow(
                f"window stage {window} precedes level stage {level.stage}"
            )
        # Stage ``window`` owns the shifts [max(1, maxD_n), maxD_{n+1}].
        lo = sum(max(spec.height_set(q)) for q in range(level.stage, window))
        runs.append(range(max(1, lo), lo + max(spec.height_set(window)) + 1))
    tops = _window_tops(spec, level, max((max(-r[0], r[-1]) for r in runs), default=0))

    # Pieces (first m, stop, window index) in shift order; 0 and shifts past
    # the last top have no window.  Each evaluation column is built and
    # charged once, in order of first use.
    edges = sorted({0, 1, *(t + 1 for t in tops), *(-t for t in tops)})
    pieces: list[tuple[int, int, int]] = []
    owned: Counter[int] = Counter()
    for r in runs:
        cut = edges[bisect_right(edges, r.start):bisect_left(edges, r.stop)]
        for a, b in zip([r.start, *cut], [*cut, r.stop]):
            pieces.append((a, b, bisect_left(tops, abs(a)) if a else len(tops)))
            owned[pieces[-1][2]] += b - a
    windows = {i: _Window(spec, level, level.stage + i, count)
               for i, count in owned.items() if i < len(tops)}

    segments: list[_Segment] = []  # in shift order
    violating: list[_Segment] = []
    for a, b, i in pieces:
        w = windows.get(i)
        if w is None:
            segments.append((range(a, b), _BEYOND_ROW if a else _ZERO_ROW))
            continue
        lo, hi = (a, b) if a > 0 else (1 - b, 1 - a)  # |m| in [lo, hi)
        cut = range(lo + 1, hi) if w.cuts is None else (
            w.cuts[bisect_right(w.cuts, lo):bisect_left(w.cuts, hi)])
        spans = list(zip([lo, *cut], [*cut, hi]))
        # Negative pieces run down through |m|; either way a segment's least
        # m is its first in shift order.
        for s, e in spans if a > 0 else reversed(spans):
            key = (w.count(s), len(w.values) - bisect_right(w.values, w.top - s))
            m = s if a > 0 else 1 - e
            rec = w.records.get(key)
            if rec is None:
                rec = w.records[key] = [w.row(*key), m]
            elif m < rec[1]:
                rec[1] = m
            segments.append((range(m, m + e - s), rec[0]))
            if rec[0][7]:  # the row's violation flag
                violating.append(segments[-1])
    shift_count = sum(map(len, runs))

    used = [windows[i] for i in sorted(windows)]
    if violating:
        verdict = VERDICT_FAILS
    elif any(w.hyp for w in used):
        verdict = VERDICT_HOLDS
    else:
        verdict = VERDICT_INCONCLUSIVE

    # Largest ratio, then smallest m; equal m means equal entries.
    records = [rec for w in used for rec in w.records.values()]
    top_rec = max(records, key=lambda rec: (rec[0][2], -rec[1]), default=None)
    worst = None if top_rec is None else MixingEntry(top_rec[1], *top_rec[0])
    in_window = sum(count for i, count in owned.items() if i < len(tops))
    evidence: dict[str, Any]
    if shift_count <= 512:
        evidence = {"entries": _expanded(segments)}
    else:
        evidence = {
            "entryCount": shift_count,
            "inWindow": in_window,
            "firstShift": segments[0][0][0],
            "lastShift": segments[-1][0][-1],
            "violations": _expanded(violating),
            "worstRatio": worst,
            "windows": [w.n for w in used],
        }
    cert = _certificate(
        spec,
        "mixing-decay",
        verdict,
        parameters={
            "levelStage": level.stage,
            "levelHeight": level.height,
            "shiftCount": shift_count,
            "window": window,
        },
        evidence=evidence,
    )
    violation_count = sum(len(shifts) for shifts, _ in violating)
    return MixingResult(
        shift_count, segments, verdict, cert,
        in_window, violation_count, None if worst is None else worst.ratio,
    )
