"""Integer set combinatorics on top of the column construction.

Everything here is exact set arithmetic over ``int``:

* descendant decomposition — a greedy membership test for the iterated
  sumsets of height sets that avoids enumerating the (exponentially large)
  set, which ``construction.descendant_heights`` builds;
* descendant differences and partner sets — who can be matched to whom at a
  given shift; a level's descendant differences are built stage by stage
  from the height sets' differences;
* arithmetic-progression search inside a difference set;
* base-``k`` digit machinery for alphabets with gaps of 1 or 2: membership in
  the truncated signed-digit sumset ``D(n)' = (A-A) + k(A-A) + ... +
  k^{n-1}(A-A)``, the gap-count recursion, coverage checks, and the search
  for a shift ``gamma`` that keeps prescribed multiples representable.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._budget import charge
from .construction import LevelRef, RankOneSpec, check_level
from .errors import (
    CheckedRecord,
    HorizonExceeded,
    ParamOutOfRange,
    PreconditionViolated,
    ensure,
    is_plain_int,
)

__all__ = [
    "descendant_decompose",
    "descendant_differences",
    "PartnerSet",
    "partner_set",
    "PartnerShift",
    "partner_shift",
    "APSearchResult",
    "ap_search",
    "progression_runs",
    "DigitAlphabet",
    "admissible_alphabets",
    "sumset_membership",
    "GapCount",
    "gap_count",
    "CoverageChecks",
    "coverage_checks",
    "GammaWitness",
    "gamma_search",
]


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
    halves = _difference_planes(spec, level, j, values, depth, values[-1] - values[0])
    if halves is None:
        return _pair_differences(values, counted)
    if not counted:
        return halves[0]  # bit d is difference d
    counts: Counter[int] = Counter()
    for i, half in enumerate(halves):
        counts.update(dict.fromkeys(_ones(bin(half)[:1:-1], 0), 1 << i))
    return counts


def _single_differences(spec: RankOneSpec, level: LevelRef, j: int, values: Sequence[int]) -> int:
    """How many positive differences of ``level``'s stage-``j`` descendants
    ``values`` one pair alone realizes: counts 1 in two planes of :func:`_difference_planes`."""
    planes = _difference_planes(spec, level, j, values, 2, values[-1] - values[0] + 1)
    if planes is None:
        return sum(c == 1 for d, c in _pair_differences(values, True).items() if d)
    return (planes[0] & ~planes[1]).bit_count()  # 1 sets plane 0 alone, 2 plane 1, 3 both


def _difference_planes(spec: RankOneSpec, level: LevelRef, j: int, values: Sequence[int],
                       depth: int, low: int = 0) -> list[int] | None:
    """Ordered-pair counts of the signed differences ``s - t`` of ``level``'s
    stage-``j`` descendants ``values``, in ``depth`` bit-sliced planes.

    Bit ``d + W - low`` of plane ``i``, with ``W = max - min`` of ``values``,
    is bit ``i`` of the number of pairs with ``s - t = d``, saturated at
    ``2**depth - 1``.  From the level's single descendant, stage ``n`` adds
    one copy per ordered offset pair ``(o, o')`` of ``H_n``, shifted by
    ``o' - o + max H_n``: a copy per ``o'``, then a copy of their sum per
    ``max H_n - o``, the last ones ``low`` bits less.  ``None``, before
    anything is built, where some stage's positive steps in ``H_n - H_n``
    times its nonnegative width, times ``depth`` past depth 2 (whose
    readers keep one half), would pass 64 bits per pair of ``values``.
    """
    pairs = len(values) * (len(values) - 1) // 2
    stages = [spec.height_set(n) for n in range(level.stage, j)]
    tops = itertools.accumulate(offsets[-1] for offsets in stages)  # the largest difference
    weight = depth if depth > 2 else 1
    if any(len({b - a for a, b in itertools.combinations(offsets, 2)}) * (top + 1) * weight
           > 64 * pairs for offsets, top in zip(stages, tops)):
        return None
    passes = [shifts for h in stages for shifts in (h, [h[-1] - o for o in h])] or [[0]]
    passes[-1] = [shift - low for shift in passes[-1]]
    planes = [1] + [0] * (depth - 1)
    for shifts in passes:
        grown = [_shift(p, shifts[0]) for p in planes]
        for shift in shifts[1:]:
            _add(grown, planes, shift)
        planes = grown
    return planes


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


def _shift_matches(spec: RankOneSpec, level: LevelRef, j: int, values: Sequence[int],
                   want: int) -> int:
    """Ordered pairs of ``level``'s stage-``j`` descendants ``values`` whose difference
    ``u`` has ``u - want`` one too: planes at depth ``V.bit_length()``, else pairs."""
    planes = _difference_planes(spec, level, j, values, len(values).bit_length())
    if planes is None:  # u = -p < 0 qualifies iff |p + want| is in the half
        counts = _pair_differences(values, True)
        matched = sum(c for p, c in counts.items() if abs(p - want) in counts)
        return matched + sum(c for p, c in counts.items() if p and abs(p + want) in counts)
    # bit i of u's count at bit u + W; u -> -u turns want into -want
    support = reduce(int.__or__, planes) >> abs(want)
    return sum((p & support).bit_count() << i for i, p in enumerate(planes))


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


def _ones(bits: str, first: int = 1) -> list[int]:
    """Indices of ``"1"`` in ``bits`` from index ``first``, ascending, found by C loops."""
    gaps = bits[first:].split("1")[:-1]  # the zeros before each "1"
    return list(map(int.__add__, itertools.accumulate(map(len, gaps)), itertools.count(first)))


def ap_search(values: Iterable[int], max_len: int) -> APSearchResult:
    _check_max_len(max_len)
    vals = sorted(set(values))
    charge(len(vals) ** 2, "difference set for progression search")
    return progression_runs(_pair_differences(vals, counted=False), max_len)


def progression_runs(diffs: int | Collection[int], max_len: int) -> APSearchResult:
    """Runs ``x, 2x, ..., lx`` with ``l <= max_len`` inside nonnegative differences.

    ``diffs`` is a bitset or a set, as :func:`descendant_differences` returns;
    0 is skipped.  On a bitset, ``alive[l - 1]`` has bit ``x`` set when all of
    ``x..l*x`` are differences.  Each length ``s`` ANDs the last mask with
    ``diffs``'s stride ``s`` (bit ``x`` is bit ``s*x``), gathered from its
    bytes by :func:`_gather`, until no ``x`` survives or ``s`` reaches
    ``max_len``.  Each ``x``'s run length is peeled from those masks only when
    a length is read.  On a set, only ``x`` with ``2x`` present can run past
    length 1, and each walks its multiples.
    """
    _check_max_len(max_len)
    if isinstance(diffs, int):
        if diffs < 0:
            raise ParamOutOfRange(f"a difference bitset must be >= 0, got {diffs}")
        row = diffs.to_bytes(-(-diffs.bit_length() // 8), "little")  # bit x in byte x >> 3
        has = lambda x: x >> 3 < len(row) and row[x >> 3] >> (x & 7) & 1
        keys = lambda: _ones(bin(diffs)[:1:-1])
        alive = [diffs & ~1]
        while len(alive) < max_len:
            s = len(alive) + 1  # x = 8m + t reads byte s*m + (s*t >> 3) of row
            stride = sum(int.from_bytes(row[s * t >> 3 :: s].translate(table), "little")
                         for t, table in _gather(s if s < 8 else 8 | s & 7))
            longer = alive[-1] & stride
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


def _check_max_len(max_len: int) -> None:
    if not is_plain_int(max_len) or max_len < 1:
        raise ParamOutOfRange(f"max_len must be an integer >= 1, got {max_len!r}")


def _peel(alive: Sequence[int]) -> dict[int, int]:
    """Run length of each ``x`` in ``alive[1]``: the last ``l`` with ``x`` in
    ``alive[l - 1]``, as :func:`progression_runs` builds them."""
    long = {}
    for length, mask in enumerate(alive[1:], start=2):
        ended = mask & ~alive[length] if length < len(alive) else mask
        long.update(dict.fromkeys(_ones(bin(ended)[:1:-1]), length))
    return long


# ---------------------------------------------------------------------------
# digit alphabets


class _DigitAlphabetFields(NamedTuple):
    k: int
    digits: tuple[int, ...]


class DigitAlphabet(CheckedRecord, _DigitAlphabetFields):
    """Digit set for base ``k`` with steps of 1 or 2 between digits.

    Contains 0 and ``k - 1``; consecutive digits differ by 1 or 2.  The gap
    structure is what the coverage and gap-count results below rely on, so it
    is enforced at construction time.
    """

    # No __slots__ here: the cached tables below live in the instance dict.
    def _check(self) -> None:
        if not is_plain_int(self.k) or self.k < 2:
            raise ParamOutOfRange(f"base must be an integer >= 2, got {self.k!r}")
        d = self.digits
        if not all(map(is_plain_int, d)):
            raise PreconditionViolated(f"digits must be integers, got {d!r}")
        if not d or list(d) != sorted(set(d)):
            raise PreconditionViolated("digits must be strictly increasing")
        if d[0] != 0:
            raise PreconditionViolated("digit set must contain 0")
        if d[-1] != self.k - 1:
            raise PreconditionViolated(f"largest digit must be k-1 = {self.k - 1}, got {d[-1]}")
        for a, b in zip(d, d[1:]):
            if not 1 <= b - a <= 2:
                raise PreconditionViolated(
                    f"digit gap {b - a} between {a} and {b}; gaps must be 1 or 2"
                )

    @cached_property
    def diffs(self) -> frozenset[int]:
        """The signed digit set A - A."""
        return frozenset(a - b for a in self.digits for b in self.digits)

    @cached_property
    def _by_residue(self) -> dict[int, tuple[int, ...]]:
        """The differences grouped by residue mod ``k``, largest first."""
        groups: dict[int, list[int]] = {}
        for c in sorted(self.diffs, reverse=True):
            groups.setdefault(c % self.k, []).append(c)
        return {r: tuple(cands) for r, cands in groups.items()}

    @property
    def has_unit_diff(self) -> bool:
        return 1 in self.diffs


def admissible_alphabets(k: int) -> tuple[DigitAlphabet, ...]:
    """Every digit alphabet for base ``k``: all gap words over {1, 2}."""
    if k < 2:
        raise ParamOutOfRange(f"base must be >= 2, got {k}")
    out = []
    span = k - 1
    # Compositions of k-1 into parts 1 and 2, generated by the count of 2s.
    for twos in range(span // 2 + 1):
        ones = span - 2 * twos
        for positions in itertools.combinations(range(ones + twos), twos):
            gaps = [2 if p in positions else 1 for p in range(ones + twos)]
            out.append(DigitAlphabet(k, tuple(itertools.accumulate(gaps, initial=0))))
    ensure(len({a.digits for a in out}) == len(out), "an alphabet was generated twice")
    return tuple(out)


def _sumset_row(alphabet: DigitAlphabet, n: int) -> str:
    """Nonnegative half of D(n)': character ``v < k^n`` is ``"1"`` iff ``v`` is in it.

    D(n)' is one ``int``: after ``l`` positions, bit ``v + k^l - 1`` stands for
    ``v``, and each position ORs one copy per ``c`` in A-A, shifted ``(c + k - 1) * k^l``.
    """
    charge(alphabet.k**n, "truncated sumset enumeration")
    k, bits, scale = alphabet.k, 1, 1
    for _ in range(n):
        bits = reduce(int.__or__, (bits << (c + k - 1) * scale for c in alphabet.diffs))
        scale *= k
    ensure(bits & 1 and bits.bit_length() == 2 * scale - 1, "span is off")
    return bin(bits >> scale - 1)[:1:-1]  # k^n characters, as the span check holds


def _absent(values: range, row: str, first: int = -1) -> list[int]:
    """The ``values`` whose characters in ``row`` are ``"0"``: all, or the first ``first``."""
    pieces = row[values.start : values.stop : values.step].split("0", first)[:-1]
    return [values[i - 1] for i in itertools.accumulate(len(p) + 1 for p in pieces)]


def sumset_membership(
    alphabet: DigitAlphabet, n: int, target: int
) -> tuple[int, ...] | None:
    """Digits ``(c_0, ..., c_{n-1})`` in A-A with ``sum c_l * k^l = target``.

    Least-significant digit first; at each position the candidates congruent
    to the remainder mod ``k`` are tried largest-first, so the returned
    representation is deterministic.  A remainder too large for the remaining
    positions (``|rem| > k^(n-l) - 1``) is pruned; as no remainder passes
    ``max(|target|, k - 1)``, only the last few positions can prune.  Failing
    ``(position, remainder)`` states are memoized, which keeps the search
    polynomial in ``n``.  The path is a list, not the call stack.

    Returns ``None`` when ``target`` is not in D(n)'.
    """
    if not is_plain_int(n) or n < 1:
        raise ParamOutOfRange(f"digit count must be an integer >= 1, got {n!r}")
    if not is_plain_int(target):
        raise ParamOutOfRange(f"target must be an integer, got {target!r}")
    k = alphabet.k
    by_residue = alphabet._by_residue
    caps = [0]  # k^i - 1 for i positions left, up to the first that no remainder passes
    while caps[-1] < max(abs(target), k - 1):
        caps.append(caps[-1] * k + k - 1)
    dead: set[tuple[int, int]] = set()
    path: list[tuple[int, Iterator[int]]] = []  # (remainder, untried digits) per position
    digits: list[int] = []
    rem = target
    while len(path) < n or rem:
        if abs(rem) <= caps[min(n - len(path), len(caps) - 1)] and (len(path), rem) not in dead:
            path.append((rem, iter(by_residue.get(rem % k, ()))))
            digits.append(0)
        while path:  # the deepest position's next digit, or back up
            rem, untried = path[-1]
            c = next(untried, None)
            if c is not None:
                digits[-1], rem = c, (rem - c) // k
                break
            dead.add((len(path) - 1, rem))
            path.pop()
            digits.pop()
        else:
            return None
    ensure(reduce(lambda v, c: v * k + c, reversed(digits), 0) == target, "digits miss target")
    ensure(all(c in alphabet.diffs for c in digits), "a digit is outside A - A")
    return tuple(digits)


# ---------------------------------------------------------------------------
# gap counts and coverage


class GapCount(NamedTuple):
    """Missing-value count of D(n)' by recursion and by brute force.

    ``g`` counts the values in ``[1, k-1]`` outside A-A; ``recursion`` is the
    sequence lambda_1..lambda_n from ``lambda_1 = g``,
    ``lambda_{m+1} = (2g+1) lambda_m + g``; ``brute`` counts the values in
    ``[0, k^n - 1]`` outside D(n)', with the values themselves in
    ``missing``.
    """

    alphabet: DigitAlphabet
    n: int
    g: int
    unit_gaps: tuple[int, ...]
    recursion: tuple[int, ...]
    brute: int
    missing: tuple[int, ...]

    @property
    def matches(self) -> bool:
        return self.recursion[-1] == self.brute


def gap_count(alphabet: DigitAlphabet, n: int) -> GapCount:
    if not is_plain_int(n) or n < 1:
        raise ParamOutOfRange(f"digit count must be an integer >= 1, got {n!r}")
    if not alphabet.has_unit_diff:
        raise PreconditionViolated(
            "gap-count recursion needs two digits at distance 1 (1 in A-A)"
        )
    k = alphabet.k
    unit_gaps = tuple(v for v in range(1, k) if v not in alphabet.diffs)
    g = len(unit_gaps)
    recursion = tuple(itertools.accumulate([g] * n, lambda lam, _: (2 * g + 1) * lam + g))
    missing = tuple(_absent(range(k**n), _sumset_row(alphabet, n)))
    return GapCount(alphabet, n, g, unit_gaps, recursion, len(missing), missing)


class CoverageChecks(NamedTuple):
    """Exhaustive verdicts for the three coverage claims about D(n)'.

    * ``half_alphabet_ok`` — A-A contains all of ``[0, ceil(k/2)]`` and every
      value in ``[0, k-1]`` with the parity of ``k - 1``;
    * ``half_range_ok`` — D(n)' contains all of ``[0, ceil(k/2) * k^(n-1)]``;
    * ``parity_ok`` — D(n)' contains every value in ``[0, k^n - 1]`` with the
      parity of ``k - 1``.

    The first two hold only when some digit pair differs by exactly 1; with
    no such pair they are reported as ``None`` (not applicable) rather than
    failures, since e.g. an all-even alphabet generates only even values.
    """

    alphabet: DigitAlphabet
    n: int
    has_unit_diff: bool
    half_alphabet_ok: bool | None
    half_range_ok: bool | None
    parity_ok: bool
    failures: tuple[tuple[str, int], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def coverage_checks(alphabet: DigitAlphabet, n: int) -> CoverageChecks:
    if not is_plain_int(n) or n < 1:
        raise ParamOutOfRange(f"digit count must be an integer >= 1, got {n!r}")
    k = alphabet.k
    half = -(-k // 2)
    parity = (k - 1) % 2
    unit = alphabet.has_unit_diff
    failures: list[tuple[str, int]] = []

    half_alphabet_ok: bool | None = None
    half_range_ok: bool | None = None
    row = _sumset_row(alphabet, n)
    if unit:
        wanted = set(range(half + 1)) | {v for v in range(k) if v % 2 == parity}
        miss = sorted(wanted - alphabet.diffs)
        half_alphabet_ok = not miss
        failures += [("half-alphabet", v) for v in miss]
        miss = _absent(range(half * k ** (n - 1) + 1), row, 8)
        half_range_ok = not miss
        failures += [("half-range", v) for v in miss]

    parity_miss = _absent(range(parity, k**n, 2), row, 8)
    failures += [("parity-range", v) for v in parity_miss]

    return CoverageChecks(
        alphabet,
        n,
        unit,
        half_alphabet_ok,
        half_range_ok,
        not parity_miss,
        tuple(failures),
    )


# ---------------------------------------------------------------------------
# gamma search


class GammaWitness(NamedTuple):
    """A shift ``gamma`` keeping powers of ``k`` representable after scaling.

    Certifies ``k^m - gamma in D(m)'`` and ``k^n - gamma*beta in D(n)'`` for
    every requested multiplier ``beta``, with the digit representations
    recorded (least-significant first).
    """

    alphabet: DigitAlphabet
    n: int
    m: int
    gamma: int
    zero_digits: tuple[int, ...]
    beta_digits: tuple[tuple[int, tuple[int, ...]], ...]

    def digits_for(self, beta: int) -> tuple[int, ...]:
        for b, digits in self.beta_digits:
            if b == beta:
                return digits
        raise ParamOutOfRange(f"multiplier {beta} was not part of the search")


def gamma_search(
    alphabet: DigitAlphabet, multipliers: Iterable[int], horizon: int = 8
) -> GammaWitness:
    """Least ``(n, m, gamma)`` (lexicographically) covering all multipliers.

    Searches ``1 <= n, m <= horizon`` and for each pair all feasible
    ``gamma >= 1`` (beyond the feasible range one side falls outside the
    sumset's span, so the scan is complete).
    """
    betas = sorted(set(multipliers))
    if not betas or any(not is_plain_int(b) or b < 1 for b in betas):
        raise ParamOutOfRange(f"multipliers must be positive integers, got {betas}")
    if alphabet.k < 3:
        raise ParamOutOfRange("gamma search needs base k >= 3")
    if not alphabet.has_unit_diff:
        raise PreconditionViolated("gamma search needs two digits at distance 1")
    if not is_plain_int(horizon) or horizon < 1:
        raise ParamOutOfRange(f"horizon must be an integer >= 1, got {horizon!r}")
    k = alphabet.k
    for n in range(1, horizon + 1):
        for m in range(1, horizon + 1):
            gamma_cap = min(2 * k**m - 1, (2 * k**n - 1) // max(betas))
            for gamma in range(1, gamma_cap + 1):
                zero_digits = sumset_membership(alphabet, m, k**m - gamma)
                if zero_digits is None:
                    continue
                per_beta = []
                for b in betas:
                    digits = sumset_membership(alphabet, n, k**n - gamma * b)
                    if digits is None:
                        break
                    per_beta.append((b, digits))
                else:
                    return GammaWitness(
                        alphabet, n, m, gamma, zero_digits, tuple(per_beta)
                    )
    raise HorizonExceeded(
        f"no gamma witness with n, m <= {horizon} for multipliers {betas}"
    )
