"""Integer set combinatorics on top of the column construction.

Everything here is exact set arithmetic over ``int``:

* descendant decomposition — a greedy membership test for the iterated
  sumsets of height sets that avoids enumerating the (exponentially large)
  set, which ``construction.descendant_heights`` builds;
* descendant differences and partner sets — who can be matched to whom at a
  given shift; a level's descendant differences are built stage by stage
  from the height sets' differences;
* arithmetic-progression search inside a difference set.

The digit sumsets are in :mod:`ranklab.digits`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence

from . import _public
from .construction import LevelRef, RankOneSpec, check_level
from .errors import ParamOutOfRange, ensure, is_plain_int

__all__ = _public("sumsets")


# ---------------------------------------------------------------------------
# descendant decomposition


def descendant_decompose(
    spec: RankOneSpec, level: LevelRef, j: int, value: int
) -> tuple[int, ...] | None:
    """Per-stage offsets writing ``value`` as base height + one offset per stage.

    Works top-down without enumerating the descendant set.  After the offsets
    of stages above ``n`` are fixed, the remainder must lie within
    ``base + [0, maxH_i + ... + maxH_{n-1}]``, a window shorter than ``h_n``;
    since consecutive height-set offsets differ by at least ``h_n``, at most
    one choice at stage ``n`` can work, so greedy descent is complete.

    Returns offsets ordered by stage (``level.stage`` first), or ``None`` when
    ``value`` is not a descendant height.
    """
    check_level(spec, level)
    if j < level.stage:
        raise ParamOutOfRange(f"target stage {j} precedes level stage {level.stage}")
    base = level.height
    maxes = [spec.height_set(q)[-1] for q in range(level.stage, j)]
    slack = [0]
    for m in maxes[:-1]:
        slack.append(slack[-1] + m)
    # slack[q - level.stage] = max total offset stages below q can contribute
    rem = value
    chosen: list[int] = []
    for n in range(j - 1, level.stage - 1, -1):
        offsets = spec.height_set(n)
        window = slack[n - level.stage]
        lo = rem - base - window
        hi = rem - base
        i0 = bisect_left(offsets, lo)
        i1 = bisect_right(offsets, hi)
        ensure(i1 - i0 <= 1, "offset window spans a height-set gap")
        if i1 == i0:
            return None
        x = offsets[i0]
        chosen.append(x)
        rem -= x
    if rem != base:
        return None
    chosen.reverse()
    ensure(base + sum(chosen) == value, "offsets do not sum to the value")
    return tuple(chosen)


# ---------------------------------------------------------------------------
# descendant differences and partner sets


def _pair_differences(vals: Sequence[int], counted: bool) -> set[int] | dict[int, int]:
    """Nonnegative differences of sorted distinct values, 0 included.

    Each positive difference is counted once per pair; 0 pairs each value
    with itself.  With ``counted`` the result maps each difference to its
    number of ordered pairs, else it is the set of differences.
    """
    pairs = (b - a for a, b in itertools.combinations(vals, 2))
    if counted:
        counts = Counter(pairs)
        counts[0] = len(vals)
        return counts
    diffs = set(pairs)
    diffs.add(0)
    return diffs


def descendant_differences(
    spec: RankOneSpec,
    level: LevelRef,
    j: int,
    values: Sequence[int],
    counted: bool = False,
) -> int | set[int] | dict[int, int]:
    """Nonnegative differences of ``level``'s stage-``j`` descendants, 0 included.

    ``values`` are those descendants as ``descendant_heights`` returns them
    (sorted, distinct); the caller enumerates and charges them.  With
    ``counted``, the result maps each difference to its number of ordered
    pairs.  Else it is an ``int`` with bit ``d`` set for each difference
    ``d``, or their set where that would take over 64 bits per pair.  Both
    read the nonnegative half of :func:`_difference_planes`, or pair the
    values where it returns ``None``.
    """
    depth = len(values).bit_length() if counted else 1  # no count passes V
    planes = _difference_planes(spec, level, j, values, depth, values[-1] - values[0])
    if planes is None:
        return _pair_differences(values, counted)
    if not counted:
        return planes[0][0]  # class 0's plane 0: bit d is difference d
    counts: Counter[int] = Counter()
    for i, half in enumerate(planes[0]):
        counts.update(dict.fromkeys(_sparse_ones(half), 1 << i))
    return counts


def _difference_planes(spec: RankOneSpec, level: LevelRef, j: int, values: Sequence[int],
                       depth: int, low: int = 0,
                       alphas: Sequence[int] = (1, 1)) -> dict[int, list[int]] | None:
    """Ordered-pair counts of the keys ``q*s - p*t`` (``p, q = alphas / gcd``) of
    ``level``'s stage-``j`` descendants ``values``, as ``{s mod |alphas[0]|: planes}``.

    Two pairs share a key and a class iff a slide by ``alphas`` moves one to the
    other.  Bit ``k`` of plane ``i`` is bit ``i`` of the count of the key ``k + low``
    above the least, saturated at ``2**depth - 1``: for ``(1, 1)``, ``d`` is at
    ``d + W - low`` with ``W = max - min`` of ``values``.  From the level's single
    descendant, stage ``n`` adds a copy per offset ``o`` of ``H_n``, shifted by ``q*o``
    and ``o`` classes on, then a copy of their sum per ``o'``, shifted by ``-p*o'``,
    the last ones ``low`` bits less.  ``None``, before anything is built, past
    :func:`_planes_fit`.
    """
    g = math.gcd(*alphas)
    p, q, m = alphas[0] // g, alphas[1] // g, abs(alphas[0])
    stages = [spec.height_set(n) for n in range(level.stage, j)]
    held = depth if depth > 2 or not low else 1  # below depth 3 a cut keeps one half
    if not _planes_fit(stages, len(values) * (len(values) - 1) // 2,
                       held * (abs(p) + abs(q)) * min(m, len(values))):
        return None
    passes = [moves for h in stages for moves in (  # each second pass widest copy first
        [(q * o, o) for o in h] if q > 0 else [(-q * (h[-1] - o), o) for o in h],
        [(p * (h[-1] - o), 0) for o in h] if p > 0 else [(-p * o, 0) for o in h[::-1]],
    )] or [[(0, 0)]]
    passes[-1] = [(shift - low, move) for shift, move in passes[-1]]
    classes = {level.height % m: [1] + [0] * (depth - 1)}
    for moves in passes:
        grown: dict[int, list[int]] = {}
        for c, planes in classes.items():
            for shift, move in moves:
                if (to := (c + move) % m) in grown:
                    _add(grown[to], planes, shift)
                else:
                    grown[to] = [_shift(plane, shift) for plane in planes]
        classes = grown
    return classes


def _planes_fit(stages: Sequence[Sequence[int]], pairs: int, weight: int) -> bool:
    """:func:`_difference_planes`'s size rule: each stage's positive steps in ``H_n - H_n``
    times its largest difference plus one, times ``weight`` (the planes held, times the
    key's width ``|p| + |q|`` and the class count), is at most 128 bits per pair."""
    tops = itertools.accumulate(offsets[-1] for offsets in stages)  # the largest difference
    return all(len({b - a for a, b in itertools.combinations(offsets, 2)}) * (top + 1) * weight
               <= 128 * pairs for offsets, top in zip(stages, tops))


def _shift(p: int, shift: int) -> int:
    return p << shift if shift >= 0 else p >> -shift  # drops the bits shifted below 0


def _add(acc: list[int], planes: list[int], shift: int) -> None:
    """``acc += planes`` shifted, on bit-sliced counts saturating at ``2**depth - 1``:
    a ripple-carry add, a plane at a time and in place; at depth 1 an OR."""
    if len(acc) == 1:
        acc[0] |= _shift(planes[0], shift)
        return
    carry = 0
    for i, p in enumerate(planes):
        if p or carry:
            b = _shift(p, shift)
            acc[i] ^= b  # the half sum; the carry is b where it is 0, else the old carry
            carry, acc[i] = b ^ (b ^ carry) & acc[i], acc[i] ^ carry
    for i, a in enumerate(acc if carry else ()):  # past the top plane: saturate
        acc[i] = a | carry


class PartnerSet(NamedTuple):
    """Elements of a height set with a partner at distance ``z``.

    ``members = {x in H : x - z in H}`` — the upper endpoints of the pairs.
    ``delta`` is the matched proportion of ``H``.
    """

    z: int
    members: tuple[int, ...]
    total: int

    @property
    def delta(self) -> Fraction:
        return Fraction(len(self.members), self.total)


def partner_set(heights: Sequence[int], z: int) -> PartnerSet:
    if z < 0:
        raise ParamOutOfRange(f"shift must be >= 0, got {z}")
    hset = set(heights)
    if not hset:
        raise ParamOutOfRange("partner set of an empty height set")
    members = tuple(sorted(x for x in hset if x - z in hset))
    ensure(all(m - z in hset for m in members), "a member lacks its partner")
    return PartnerSet(z, members, len(hset))


class PartnerShift(NamedTuple):
    """The shift a matching construction pivots on at one stage.

    ``z`` is the least positive shift where the partner sets at ``z`` and
    ``z + 1`` are both nonempty and equally large, so pairs at distance ``z``
    and ``z + 1`` can absorb the same number of coordinates.
    """

    z: int
    at_z: PartnerSet
    at_z_plus_1: PartnerSet

    @property
    def delta(self) -> Fraction:
        return self.at_z.delta


def partner_shift(heights: Sequence[int]) -> PartnerShift | None:
    """Smallest usable shift for ``heights``, or ``None`` when none exists.

    The partner set at ``z`` has one member per pair at distance ``z``, so
    only positive differences ``z`` whose successor ``z + 1`` is a difference
    with the same multiplicity qualify: O(r²) candidates instead of a scan of
    every ``z`` up to the largest offset.
    """
    hset = sorted(set(heights))
    if len(hset) < 2:
        return None
    top = hset[-1] - hset[0]
    counts = _pair_differences(hset, counted=True)  # 0 counts r, 1 under r
    for z in sorted(counts):
        if z < top and counts.get(z + 1) == counts[z]:
            return PartnerShift(z, partner_set(hset, z), partner_set(hset, z + 1))
    return None


# ---------------------------------------------------------------------------
# arithmetic progressions inside a difference set


class APSearchResult(NamedTuple):
    """Longest run of multiples ``x, 2x, ..., lx`` inside a difference set.

    ``runs`` maps each positive difference ``x`` to the largest ``l`` (capped
    at the search's ``max_len``) with all of ``x..l*x`` present; ``longest``
    is the maximum over ``x`` and ``witness`` the smallest ``x`` attaining it.
    """

    longest: int
    witness: int | None
    progression: tuple[int, ...]
    runs: Mapping[int, int]


class _RunLengths(Mapping[int, int]):
    """Read-only ``runs``: ``has`` tests a difference, ``keys`` lists the
    ``size`` positive ones, and ``table()`` gives the runs past length 1.

    Only a read of a length calls ``table``, once; membership, ``len`` and
    iteration never do.
    """

    def __init__(self, has: Callable[[int], bool], keys: Callable[[], list[int]],
                 size: int, table: Callable[[], dict[int, int]]) -> None:
        self._has, self._keys, self._size, self._table = has, keys, size, table
        self._long: dict[int, int] | None = None

    def __getitem__(self, x: int) -> int:
        if x not in self:
            raise KeyError(x)
        if self._long is None:
            self._long = self._table()
        return self._long.get(x, 1)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, int) and x > 0 and self._has(x)

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys())

    def __len__(self) -> int:
        return self._size


def progression_runs(diffs: int | Collection[int], max_len: int) -> APSearchResult:
    """Runs ``x, 2x, ..., lx`` with ``l <= max_len`` inside nonnegative differences.

    ``diffs`` is a bitset or a set, as :func:`descendant_differences` returns;
    0 is skipped.  On a bitset, ``alive[l - 1]`` has bit ``x`` set when all of
    ``x..l*x`` are differences.  Each length ``s`` ANDs the last mask with
    ``diffs``'s stride ``s`` (bit ``x`` is bit ``s*x``), gathered from its
    bytes by :func:`_gather`, until no ``x`` survives or ``s`` reaches
    ``max_len``.  Once :func:`_survivors_fit` holds, the survivors are listed
    once and each later length keeps the ``x`` whose bit ``s*x`` is set.  Each
    ``x``'s run length is peeled from those masks only when a length is read.
    On a set, only ``x`` with ``2x`` present can run past length 1, and each
    walks its multiples.
    """
    _check_max_len(max_len)
    if isinstance(diffs, int):
        if diffs < 0:
            raise ParamOutOfRange(f"a difference bitset must be >= 0, got {diffs}")
        row = diffs.to_bytes(-(-diffs.bit_length() // 8), "little")  # bit x in byte x >> 3
        has = lambda x: x >> 3 < len(row) and row[x >> 3] >> (x & 7) & 1
        alive, xs = [diffs & ~1], None  # xs: the survivors, once listed
        keys = partial(_sparse_ones, alive[0])
        while len(alive) < max_len:
            s = len(alive) + 1  # x = 8m + t reads byte s*m + (s*t >> 3) of row
            # The first stride is gathered: a bitset difference set is dense,
            # and counting its bits would cost a fifth of that gather.
            left = max_len - len(alive)  # strides still due, this one included
            if xs is None and len(alive) > 1 and _survivors_fit(alive[-1], len(row), left):
                xs = _sparse_ones(alive[-1])
            if xs is None:
                stride = sum(int.from_bytes(row[s * t >> 3 :: s].translate(table), "little")
                             for t, table in _gather(s if s < 8 else 8 | s & 7))
                longer = alive[-1] & stride
            else:  # keep the x with s*x inside row and its bit set: ``has`` inline,
                # as calling it per survivor costs chacon 1:0 -> 8 1.16 -> 1.21 ms
                kept = [x for x in xs[: bisect_left(xs, -(-8 * len(row) // s))]
                        if row[s * x >> 3] >> (s * x & 7) & 1]
                longer = alive[-1] if len(kept) == len(xs) else _from_ones(kept)
                xs = kept
            if not longer:
                break
            alive.append(longer)
        size = alive[0].bit_count()
        longest = len(alive) if size else 0
        witness = (alive[-1] & -alive[-1]).bit_length() - 1 if size else None
        table = partial(_peel, alive)
    else:
        positive = sorted(x for x in diffs if x > 0)
        has, keys, size = diffs.__contains__, positive.copy, len(positive)
        candidates = [x for x in positive if 2 * x in diffs]
        long = {}
        longest, witness = (1, positive[0]) if size else (0, None)
        for x in candidates if max_len > 1 else ():
            length = 2
            while length < max_len and has((length + 1) * x):
                length += 1
            long[x] = length
            if length > longest:
                longest = length
                witness = x
        table = long.copy
    progression = tuple(witness * i for i in range(1, longest + 1)) if witness else ()
    return APSearchResult(longest, witness, progression, _RunLengths(has, keys, size, table))


_BITS = [int.from_bytes((bytes(1 << p) + b"\1" * (1 << p)) * (128 >> p), "little")
         for p in range(8)]  # byte b of _BITS[p] is bit p of b


@cache
def _gather(s: int) -> list[tuple[int, bytes]]:
    """``(t, T)`` per byte offset ``k = s*t >> 3``, ``t`` its least: ``T`` moves bit
    ``s*t' - 8k`` of a byte to bit ``t'`` for each ``t' < 8`` with that ``k``.  Past 7
    each ``t`` has its own ``k``, so ``8 + s % 8`` stands for ``s``: at most 16 entries."""
    runs = [list(ts) for _, ts in itertools.groupby(range(8), lambda t: s * t >> 3)]
    return [(ts[0], sum(_BITS[s * t & 7] << t for t in ts).to_bytes(256, "little")) for ts in runs]


def _survivors_fit(mask: int, row_bytes: int, left: int) -> bool:
    """Whether to list the survivors of ``mask`` and test each one's bit for the
    ``left`` strides still due, not gather them from a row of ``row_bytes``.  A
    gather spends ~2-3 ns per row byte; a survivor ~0.1-0.3 us per stride and
    about as much to list once, so its stride costs ~128 row bytes and its
    listing one stride more."""
    return mask.bit_count() * 128 * (left + 1) <= row_bytes * left


_NONZERO = bytes([0] + [1] * 255)  # 1 for each nonzero byte
_BYTE_ONES = [[t for t in range(8) if b >> t & 1] for b in range(256)]


def _sparse_ones(mask: int) -> list[int]:
    """Set bits of ``mask``, ascending: one ``translate`` flags the nonzero
    bytes and one ``find`` per nonzero byte visits them, so no character is
    built per bit as ``bin()`` does."""
    raw = mask.to_bytes(-(-mask.bit_length() // 8), "little")
    flags, nonzero = raw.translate(_NONZERO), []
    i = flags.find(1)
    while i >= 0:
        nonzero.append(i)
        i = flags.find(1, i + 1)
    return [8 * i + t for i in nonzero for t in _BYTE_ONES[raw[i]]]


def _from_ones(ones: Sequence[int]) -> int:
    """The mask with bits ``ones`` (ascending) set, built in a ``bytearray``."""
    buf = bytearray((ones[-1] >> 3) + 1 if ones else 0)
    for x in ones:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


def _check_max_len(max_len: int) -> None:
    if not is_plain_int(max_len) or max_len < 1:
        raise ParamOutOfRange(f"max_len must be an integer >= 1, got {max_len!r}")


def _peel(alive: Sequence[int]) -> dict[int, int]:
    """Run length of each ``x`` in ``alive[1]``: the last ``l`` with ``x`` in
    ``alive[l - 1]``, as :func:`progression_runs` builds them."""
    long = {}
    for length, mask in enumerate(alive[1:], start=2):
        ended = mask & ~alive[length] if length < len(alive) else mask
        long.update(dict.fromkeys(_sparse_ones(ended), length))
    return long
