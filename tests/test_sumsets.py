"""Descendant sets, partner sets, progressions, and digit arithmetic."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _MULTIPLIER_PAIRS, spec_path
from ranklab import (
    DigitAlphabet,
    HorizonExceeded,
    LevelRef,
    ParamOutOfRange,
    PreconditionViolated,
    admissible_alphabets,
    coverage_checks,
    descendant_decompose,
    descendant_differences,
    descendant_heights,
    gamma_search,
    gap_count,
    load_spec,
    partner_set,
    partner_shift,
    progression_runs,
    sumset_membership,
    validate_spec,
)
from ranklab import sumsets
from ranklab.digits import _absent, _sumset_row
from ranklab.oracles import ap_search

# ---------------------------------------------------------------------------
# descendant sets and the greedy decomposition


def test_decompose_matches_enumeration(chacon):
    lvl = LevelRef(1, 0)
    members = set(descendant_heights(chacon, lvl, 3))
    top = chacon.height(3) - 1
    for value in range(0, top + 1):
        offs = descendant_decompose(chacon, lvl, 3, value)
        if value in members:
            assert offs is not None
            assert sum(offs) == value
            # Each chosen offset is a real height-set element of its stage.
            for stage, off in enumerate(offs, start=lvl.stage):
                assert off in chacon.height_set(stage)
        else:
            assert offs is None


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_decompose_roundtrip_property(data, tq41):
    j = data.draw(st.integers(min_value=1, max_value=4))
    lvl = LevelRef(0, 0)
    members = descendant_heights(tq41, lvl, j)
    value = data.draw(st.sampled_from(members))
    offs = descendant_decompose(tq41, lvl, j, value)
    assert offs is not None and sum(offs) == value


@st.composite
def _descendant_cases(draw):
    """A small spec, a level and a target stage.

    Spacers up to 10**9 make some difference sets sparse, so both the planes
    and the pairwise fallback of :func:`descendant_differences` run.
    """
    stages = []
    spacers = st.integers(0, 12) | st.integers(0, 10**9)
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(2, 4))
        stages.append({"r": r, "s": draw(st.lists(spacers, min_size=r, max_size=r))})
    spec = validate_spec({"h0": draw(st.integers(1, 3)), "stages": stages})
    stage = draw(st.integers(0, len(stages)))
    level = LevelRef(stage, draw(st.integers(0, spec.height(stage) - 1)))
    return spec, level, draw(st.integers(stage, len(stages)))


def _pinned(name, level, j):
    return (load_spec(spec_path(name)), level, j)


def _bits(diffs):
    """The differences a bitset or a set of them holds, as a set."""
    if isinstance(diffs, int):
        return {d for d, bit in enumerate(bin(diffs)[:1:-1]) if bit == "1"}
    return set(diffs)


def _dense(values):
    """Whether the bitset route is allowed: at most 64 bits per pair."""
    pairs = len(values) * (len(values) - 1) // 2
    return values[-1] - values[0] + 1 <= 64 * max(pairs, 1)


def _sliced(counts, offset, depth):
    """``depth`` bit-sliced planes of ``counts`` (key -> count), bit ``k + offset``
    of plane ``i`` being bit ``i`` of ``min(count, 2**depth - 1)``."""
    return [sum(1 << k + offset for k, c in counts.items() if min(c, 2**depth - 1) >> i & 1)
            for i in range(depth)]


def _keyed(values, alphas):
    """Ordered pairs per key ``q*s - p*t`` in each class of ``s mod |alphas[0]|``, by a
    Counter, as ``{class: {key: count}}``, and the least key."""
    g = math.gcd(*alphas)
    p, q, m = alphas[0] // g, alphas[1] // g, abs(alphas[0])
    keys = Counter((q * s - p * t, s % m) for s in values for t in values)
    classes = {}
    for (k, c), n in keys.items():
        classes.setdefault(c, {})[k] = n
    return classes, min(k for k, _ in keys)


@settings(deadline=None, max_examples=150)
@given(_descendant_cases(), st.integers(1, 6))
@example(_pinned("chacon.json", LevelRef(1, 2), 6), 14)
@example(_pinned("chacon.json", LevelRef(0, 0), 5), 3)
@example(_pinned("asymm.json", LevelRef(1, 0), 2), 14)  # pairwise
@example(_pinned("asymm.json", LevelRef(0, 0), 4), 5)  # pairwise after planes
@example(_pinned("chacon.json", LevelRef(1, 0), 4), 1)  # runs of one
@example(_pinned("tq41.json", LevelRef(0, 0), 2), 3)  # offset steps 1 and 3 twice each
@example(_pinned("dyadic.json", LevelRef(0, 0), 2), 3)  # counts 1-4: 2**d and 2**d - 1
@example(_pinned("chacon.json", LevelRef(0, 0), 1), 3)  # count 3 at 0: 2**2 - 1
def test_descendant_differences_match_pair_oracle(case, max_len):
    # The planes at depth 1, 2 and past every count against a Counter of all
    # ordered pairs, saturated; then the nonnegative half, counted and not.
    # Each pair of multipliers keys its planes by q*s - p*t and s's class.
    spec, level, j = case
    values = descendant_heights(spec, level, j)
    signed = Counter(s - t for s in values for t in values)
    built = []
    for depth in 1, 2, (len(values) ** 2).bit_length():
        planes = sumsets._difference_planes(spec, level, j, values, depth)
        if planes is not None:
            assert planes == {0: _sliced(signed, values[-1] - values[0], depth)}
        built.append(planes is not None)
    assert built == sorted(built, reverse=True)  # a deeper count is built no more often
    # Past the size rule too, where the keys span few enough bits.
    small = len(values) <= 81 and values[-1] - values[0] <= 10**4
    with mock.patch.object(sumsets, "_planes_fit", lambda *args: True):
        for alphas in _MULTIPLIER_PAIRS if small else ():
            classes, least = _keyed(values, alphas)
            for depth in 2, len(values).bit_length():
                planes = sumsets._difference_planes(spec, level, j, values, depth, 0, alphas)
                assert planes == {c: _sliced(keys, -least, depth)
                                  for c, keys in classes.items()}, (alphas, depth)
    expected = {d: c for d, c in signed.items() if d >= 0}
    assert dict(descendant_differences(spec, level, j, values, counted=True)) == expected
    got = descendant_differences(spec, level, j, values)
    # A bitset where the depth-1 plane is built, only within 64 bits per pair.
    assert _bits(got) == set(expected)
    assert isinstance(got, int) == built[0]
    if not _dense(values):
        assert isinstance(got, set)
    for res in _assert_runs_match_walk(got, max_len):
        assert ap_search(values, max_len) == res


def _assert_runs_match_walk(diffs, max_len):
    """Both routes of :func:`progression_runs` against a walk of each run.

    ``diffs`` is a bitset or a set; the set of its members takes the other
    route.  Returns the two results.  A bitset is searched three times: as
    the survivor rule picks, and with it forced true and false, and each
    time it builds the same masks.
    """
    members = _bits(diffs)
    runs = {}
    for x in sorted(d for d in members if d):
        runs[x] = 1
        while runs[x] < max_len and (runs[x] + 1) * x in members:
            runs[x] += 1
    longest = max(runs.values(), default=0)
    witness = min((x for x, n in runs.items() if n == longest), default=None)
    forced = (None, True, False) if isinstance(diffs, int) else (None,)
    results, masks = [], []
    for route, fits in [(diffs, fits) for fits in forced] + [(members, None)]:
        rule = (lambda mask, row_bytes, left: fits) if fits is not None else sumsets._survivors_fit
        with mock.patch.object(sumsets, "_survivors_fit", rule):
            res = progression_runs(route, max_len)
        assert (res.longest, res.witness, len(res.runs)) == (longest, witness, len(runs))
        assert res.progression == tuple(witness * i for i in range(1, longest + 1))
        assert list(res.runs) == list(runs)
        assert all(x in res.runs for x in runs)
        assert not any(x in res.runs for x in (0, -1, max(members, default=0) + 1))
        assert res.runs._long is None  # none of the reads above built the table
        assert res.runs == runs
        if isinstance(route, int):
            masks.append(res.runs._table.args[0])  # ``alive``, as _peel reads it
        results.append(res)
    assert masks[1:] == masks[:-1]
    return results[0], results[-1]


@pytest.mark.parametrize("max_len", [1, 2, 3, 10**6])
@pytest.mark.parametrize(
    "diffs",
    [0, 1, 0b11, 0b111, (1 << 64) - 1, (1 << 1000) - 1, 0b1011_0110_1101, 1 | 1 << 40,
     0b11_0010_0100_1000],
    ids=["empty", "zero", "dense-2", "dense-3", "dense-64", "dense-1000", "gappy", "far",
         "past-row"],
)
def test_progression_runs_match_walk(diffs, max_len):
    # Dense ranges [0, N) run 1 up to N - 1 terms, past every cap but 10**6.
    # past-row holds 3, 6, 9, 12 and 13 in two bytes: listed after stride 2,
    # 3 reads bit 15 at stride 5 and 6 reads bit 18, past the row, at stride 3.
    _assert_runs_match_walk(diffs, max_len)
    # dense-1000 at 10**6 gathers strides 2..999 from 16 table sets at most.
    assert sumsets._gather.cache_info().currsize <= 16


@st.composite
def _gather_cases(draw):
    """A bitset of 1-4,000 bits whose dense prefix ``[0, n)`` runs ``x = 1``
    to ``n - 1`` terms, and a cap up to 40."""
    width = draw(st.integers(1, 4000))
    bits = draw(st.integers(0, (1 << width) - 1)) | 1 << width - 1
    return bits | (1 << draw(st.integers(0, width))) - 1, draw(st.integers(1, 40))


@settings(deadline=None, max_examples=150)
@given(_gather_cases())
@example(((1 << 41) - 1 | 1 << 3999, 40))  # x = 1 and 2 past the strides 8, 9, 16, 17
@example(((1 << 203) - 1, 17))  # 203 bits: a partial top byte
@example((0b1_0000_0001, 9))  # 8 alone, in the second byte
def test_progression_runs_gather_matches_walk(case):
    # The bitset route reads stride s from the bytes of the difference set:
    # for s >= 8 each bit of an output byte has its own input byte, and the
    # tables of s and s + 8 agree, which the dense prefixes here reach.
    diffs, max_len = case
    runs = _assert_runs_match_walk(diffs, max_len)[0].runs
    top = diffs.bit_length() - 1
    for x in range(max(1, top & ~7), (top | 7) + 9):  # the top byte and the next
        assert (x in runs) == (x <= top and diffs >> x & 1 == 1)
    assert sumsets._gather.cache_info().currsize <= 16


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.integers(0, (1 << 300) - 1), st.sets(st.integers(0, 10**5), max_size=40).map(
    lambda xs: sum(1 << x for x in xs))))
@example(0)
@example(1)
@example(1 << 202 | 1 << 9)  # the top bit in a partial last byte
@example(1 << 10**5)  # one far bit
def test_sparse_ones_list_and_rebuild_a_mask(mask):
    # The survivors are listed from nonzero bytes and rebuilt in a bytearray.
    ones = sumsets._sparse_ones(mask)
    assert ones == [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    assert sumsets._from_ones(ones) == mask


def test_progression_search_lists_survivors_once(chacon, monkeypatch):
    # chacon 1:0 -> 8: 148,437 -> 11,415 -> 492 survivors in a 117,573-byte
    # row.  Strides 2 and 3 are gathered; with 11 strides left 492 fit
    # (492 * 128 * 12 <= 117,573 * 11), so they are listed once and strides
    # 4 to 8 test each survivor's bit.
    level = LevelRef(1, 0)
    diffs = descendant_differences(chacon, level, 8, descendant_heights(chacon, level, 8))
    calls = Counter()
    for name in ("_gather", "_sparse_ones"):
        real = getattr(sumsets, name)
        monkeypatch.setattr(sumsets, name, lambda arg, name=name, real=real: (
            calls.update([name]) or real(arg)))
    res = progression_runs(diffs, 14)
    assert (res.longest, len(res.runs._table.args[0])) == (7, 7)
    assert calls["_gather"] <= 3 and calls["_sparse_ones"] == 1


@pytest.mark.parametrize("left, most", [(1, 6), (2, 8), (11, 11)])
def test_survivor_rule_weighs_the_strides_left(left, most):
    # A 1,536-byte row: a stride tested per survivor costs 128 bytes of it and
    # the listing one stride more, so one stride left lists at most
    # 1,536 / 256 = 6 survivors, and eleven strides left 1,536 * 11 / 1,536.
    masks = [(1 << n) - 1 for n in (most, most + 1)]
    assert [sumsets._survivors_fit(m, 1536, left) for m in masks] == [True, False]


@pytest.mark.parametrize("max_len", [0, -1, True, 2.0, "3"])
@pytest.mark.parametrize("search", [
    lambda cap: progression_runs(0b111, cap),
    lambda cap: progression_runs({0, 1, 2}, cap),
    lambda cap: ap_search([0, 1, 2], cap),
], ids=["bitset", "set", "values"])
def test_progression_search_refuses_a_bad_cap(search, max_len):
    # A cap of 0 answered longest 1 on both routes, past the cap.
    with pytest.raises(ParamOutOfRange, match="max_len must be an integer >= 1"):
        search(max_len)


@pytest.mark.parametrize("diffs", [-1, -5, -(1 << 70)])
def test_progression_search_refuses_a_negative_bitset(diffs):
    # A negative bitset died with OverflowError converting it to bytes.
    with pytest.raises(ParamOutOfRange, match="bitset must be >= 0"):
        progression_runs(diffs, 3)


@pytest.mark.parametrize(
    "name, level, j, pairwise",
    [
        ("chacon.json", LevelRef(1, 0), 7, False),
        ("asymm.json", LevelRef(0, 0), 4, True),
        ("asymm.json", LevelRef(1, 0), 2, True),
    ],
)
def test_descendant_differences_route(monkeypatch, name, level, j, pairwise):
    # Counted, uncounted and the pair slides of 1,1 share the planes and
    # their rule: within 64 bits per pair (for each plane of a deeper count
    # or of the full signed width), else the pairs.  chacon's differences fit
    # at every depth; asymm's far-apart offsets do not, at its first stage or
    # after three.
    from ranklab.certificates import products

    spec = load_spec(spec_path(name))
    values = descendant_heights(spec, level, j)
    paired = []
    real = sumsets._pair_differences
    monkeypatch.setattr(
        sumsets, "_pair_differences", lambda v, c: paired.append(c) or real(v, c)
    )
    counts = descendant_differences(spec, level, j, values, counted=True)
    diffs = descendant_differences(spec, level, j, values)
    matched = products._pair_slides(spec, level, j, values, (1, 1), (0, 0))
    assert paired == [True, False, True] * pairwise
    # A pair returns iff its signed difference is not single.
    assert matched == sum(c * (1 + (d > 0)) for d, c in counts.items() if c > 1)
    assert isinstance(diffs, int) == (not pairwise) == _dense(values)
    assert _bits(diffs) == set(counts) and counts[0] == len(values)
    assert sum(counts.values()) * 2 - len(values) == len(values) ** 2


@pytest.mark.parametrize("spacer, dense", [(62, True), (63, False)])
def test_bitset_holds_at_most_64_bits_per_pair(spacer, dense):
    # Two descendants, one pair: differences {0, 1 + spacer} fit the bitset
    # only while its 2 + spacer bits are at most 64.
    spec = validate_spec({"h0": 1, "stages": [{"r": 2, "s": [spacer, 0]}]})
    values = descendant_heights(spec, LevelRef(0, 0), 1)
    diffs = descendant_differences(spec, LevelRef(0, 0), 1, values)
    assert diffs == ((1 << 1 + spacer | 1) if dense else {0, 1 + spacer})


@pytest.mark.parametrize("depth, spacers, dense", [
    (1, (30, 31), True), (1, (30, 32), False),
    (2, (14, 15), True), (2, (14, 16), False),
    (4, (6, 7), True), (4, (6, 8), False),
])
def test_plane_rule_counts_every_positive_step(depth, spacers, dense):
    # Descendants 0, 1 + a and 2 + a + b: three positive offset steps, two
    # of them consecutive, times 3 + a + b bits pass 64 bits for each of the
    # three pairs once a + b = 62.  A deeper count of the full signed width
    # counts each plane, so at depth 2 once a + b = 30 and at depth 4 once
    # a + b = 14.
    spec = validate_spec({"h0": 1, "stages": [{"r": 3, "s": [*spacers, 0]}]})
    values = descendant_heights(spec, LevelRef(0, 0), 1)
    planes = sumsets._difference_planes(spec, LevelRef(0, 0), 1, values, depth)
    assert (planes is not None) == dense


@pytest.mark.parametrize("spacers, dense", [((30, 31), True), ((30, 32), False)])
def test_plane_rule_charges_one_half_below_depth_3(spacers, dense):
    # Cut to the nonnegative half, as the counted differences of three or
    # fewer descendants are, two planes are charged as one.
    spec = validate_spec({"h0": 1, "stages": [{"r": 3, "s": [*spacers, 0]}]})
    values = descendant_heights(spec, LevelRef(0, 0), 1)
    planes = sumsets._difference_planes(spec, LevelRef(0, 0), 1, values, 2, values[-1])
    assert (planes is not None) == dense


def test_set_at_the_rule_edge_holds_the_nonnegative_half():
    # 1,024 descendants, [0, 512) and [512 + s, 1024 + s), at the largest s
    # the set builds its plane for.  Its last pass keeps the differences from
    # 0 up, a plane of ~4.2 MB: the set peaks at ~3.2 such planes, where the
    # full signed plane took ~6.4.
    s = 64 * (1024 * 1023 // 2) - 1024
    spec = validate_spec({"h0": 1, "stages": [{"r": 2, "s": [0, 0]}] * 9 + [{"r": 2, "s": [s, 0]}]})
    values = descendant_heights(spec, LevelRef(0, 0), 10)
    half = (values[-1] + 1) / 8
    tracemalloc.start()
    try:
        got = descendant_differences(spec, LevelRef(0, 0), 10, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(got, int)
    assert peak <= 4 * half
    assert sumsets._difference_planes(spec, LevelRef(0, 0), 10, values, 1, s + 1023) is not None
    wider = validate_spec({"h0": 1, "stages": [{"r": 2, "s": [0, 0]}] * 9
                           + [{"r": 2, "s": [s + 1, 0]}]})
    values = descendant_heights(wider, LevelRef(0, 0), 10)
    assert sumsets._difference_planes(wider, LevelRef(0, 0), 10, values, 1, s + 1024) is None


def test_sparse_route_never_allocates_the_bitset(monkeypatch):
    # Four descendants spread over ~3 * 10**7 heights: the bitset would take
    # ~3.75 MB, against 64 bits for each of the 6 pairs.
    spec = validate_spec(
        {"h0": 1, "stages": [{"r": 2, "s": [10**7, 0]}, {"r": 2, "s": [10**7, 0]}]}
    )
    values = descendant_heights(spec, LevelRef(0, 0), 2)
    paired = []
    real = sumsets._pair_differences
    monkeypatch.setattr(
        sumsets, "_pair_differences", lambda v, c: paired.append(c) or real(v, c)
    )
    tracemalloc.start()
    try:
        diffs = descendant_differences(spec, LevelRef(0, 0), 2, values)
        res = progression_runs(diffs, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paired == [False]
    assert diffs == {b - a for a in values for b in values if b >= a}
    assert peak < 100_000
    # The descendants are 0, d, 2d, 3d for d = 10**7 + 1.
    d = 10**7 + 1
    assert dict(res.runs) == {d: 3, 2 * d: 1, 3 * d: 1}
    assert res.progression == (d, 2 * d, 3 * d)


# ---------------------------------------------------------------------------
# partner sets


def test_partner_sets_chacon_stage1(chacon):
    heights = chacon.height_set(1)  # (0, 9, 17)
    s8 = partner_set(heights, 8)
    assert s8.members == (17,)
    assert s8.delta == Fraction(1, 3)
    s9 = partner_set(heights, 9)
    assert s9.members == (9,)
    # The lower endpoints of the pairs at distance 8, by hand.
    assert tuple(x for x in heights if x + 8 in heights) == (9,)


def test_partner_shift_chacon(chacon):
    ps = partner_shift(chacon.height_set(1))
    assert ps is not None
    assert ps.z == 8
    assert ps.at_z.members == (17,)
    assert ps.at_z_plus_1.members == (9,)
    assert ps.delta == Fraction(1, 3)


def test_partner_shift_none_for_dyadic(dyadic):
    # {0, 8}: no z has partners at both z and z+1.
    assert partner_shift(dyadic.height_set(3)) is None


def _partner_shift_by_z_scan(heights):
    """Oracle: try every z from 1 below the span, as the definition reads."""
    hset = sorted(set(heights))
    if len(hset) < 2:
        return None
    for z in range(1, hset[-1] - hset[0]):
        s0 = partner_set(hset, z)
        s1 = partner_set(hset, z + 1)
        if s0.members and len(s1.members) == len(s0.members):
            return z, s0, s1
    return None


@settings(deadline=None, max_examples=300)
@given(heights=st.lists(st.integers(min_value=0, max_value=60), max_size=12))
def test_partner_shift_matches_z_scan(heights):
    got = partner_shift(heights)
    want = _partner_shift_by_z_scan(heights)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.z, got.at_z, got.at_z_plus_1) == want


def test_partner_set_validation():
    with pytest.raises(ParamOutOfRange):
        partner_set((0, 5), -1)
    with pytest.raises(ParamOutOfRange):
        partner_set((), 1)


# ---------------------------------------------------------------------------
# progression search


def test_ap_search_chacon_frozen(chacon):
    values = descendant_heights(chacon, LevelRef(1, 0), 3)
    res = ap_search(values, 14)
    assert res.longest == 4
    assert res.witness == 17
    assert res.progression == (17, 34, 51, 68)
    # The run at 42 stops after two terms: 42 and 84 appear, 126 does not.
    assert res.runs[42] == 2


def test_ap_search_cap_is_respected():
    res = ap_search(range(32), 5)
    assert res.longest == 5
    assert res.witness == 1
    assert res.progression == (1, 2, 3, 4, 5)


def test_ap_search_brute_force_oracle(chacon):
    values = descendant_heights(chacon, LevelRef(0, 0), 3)
    diffs = {b - a for a, b in itertools.combinations(sorted(values), 2)}
    res = ap_search(values, 20)
    for x, run in res.runs.items():
        expected = 1
        while expected < 20 and (expected + 1) * x in diffs:
            expected += 1
        assert run == expected


# ---------------------------------------------------------------------------
# digit alphabets


def test_alphabet_validation():
    DigitAlphabet(9, (0, 2, 3, 5, 6, 8))
    with pytest.raises(PreconditionViolated):
        DigitAlphabet(9, (2, 3, 5, 6, 8))  # no zero
    with pytest.raises(PreconditionViolated):
        DigitAlphabet(9, (0, 2, 3, 5, 6, 7))  # largest digit not k-1
    with pytest.raises(PreconditionViolated):
        DigitAlphabet(9, (0, 3, 5, 6, 8))  # gap of three


def test_admissible_alphabet_counts():
    # Gap words over {1,2} summing to k-1: Fibonacci numbers.
    fib = [1, 1]
    for _ in range(12):
        fib.append(fib[-1] + fib[-2])
    for k in range(2, 12):
        assert len(admissible_alphabets(k)) == fib[k - 1]


def _sumset_oracle(alpha, n):
    """D(n)' built as a set, one digit position at a time, sorted."""
    values, scale = {0}, 1
    for _ in range(n):
        values = {v + c * scale for v in values for c in alpha.diffs}
        scale *= alpha.k
    return tuple(sorted(values))


def _membership_oracle(alpha, n, target):
    """The recursive largest-first search with a dead-state memo."""
    k = alpha.k
    dead = set()

    def descend(l, rem):
        if l == n:
            return () if rem == 0 else None
        if abs(rem) > k ** (n - l) - 1 or (l, rem) in dead:
            return None
        for c in sorted((c for c in alpha.diffs if (rem - c) % k == 0), reverse=True):
            tail = descend(l + 1, (rem - c) // k)
            if tail is not None:
                return (c, *tail)
        dead.add((l, rem))
        return None

    return descend(0, target)


def test_truncated_sumset_small():
    alpha = DigitAlphabet(3, (0, 2))
    # (A - A) = {-2, 0, 2}; with two digits: c0 + 3*c1.
    assert _sumset_oracle(alpha, 2) == (-8, -6, -4, -2, 0, 2, 4, 6, 8)
    assert _sumset_row(alpha, 2) == "101010101"
    assert _sumset_row(alpha, 0) == "1"


@given(data=st.data())
@settings(deadline=None, max_examples=150)
def test_digit_sumset_matches_oracles(data):
    k = data.draw(st.integers(2, 9), label="k")
    alpha = data.draw(st.sampled_from(admissible_alphabets(k)), label="alphabet")
    n = data.draw(st.integers(1, 5), label="n")
    cap = k**n - 1
    targets = data.draw(
        st.lists(st.integers(-cap - 1, cap + 1), min_size=1, max_size=30), label="targets"
    )
    present = set(_sumset_oracle(alpha, n))
    row = _sumset_row(alpha, n)
    assert row == "".join("1" if v in present else "0" for v in range(cap + 1))
    for values in (range(cap + 1), range(1, cap + 1, 2), range(0, cap // 3)):
        absent = [v for v in values if v not in present]
        assert _absent(values, row) == absent
        assert _absent(values, row, 8) == absent[:8]
    for target in [-cap - 1, cap + 1, *targets]:
        digits = sumset_membership(alpha, n, target)
        assert digits == _membership_oracle(alpha, n, target), target
        assert (digits is not None) == (target in present), target


def test_membership_agrees_with_enumeration():
    alpha = DigitAlphabet(9, (0, 2, 3, 5, 6, 8))
    n = 3
    present = set(_sumset_oracle(alpha, n))
    cap = 9**n - 1
    for target in range(-cap, cap + 1):
        digits = sumset_membership(alpha, n, target)
        assert (digits is not None) == (target in present)


def test_membership_rejects_bad_digit_count():
    alpha = DigitAlphabet(3, (0, 1, 2))
    with pytest.raises(ParamOutOfRange):
        sumset_membership(alpha, 0, 0)


# ---------------------------------------------------------------------------
# gap counts


def test_gap_count_frozen_oracle():
    alpha = DigitAlphabet(9, (0, 2, 3, 5, 6, 8))
    gc = gap_count(alpha, 3)
    assert gc.g == 1
    assert gc.unit_gaps == (7,)
    assert gc.recursion == (1, 4, 13)
    assert gc.brute == 13
    assert gc.matches


def test_gap_count_random_alphabets():
    rng = random.Random(20260814)
    pool = [
        a
        for k in range(3, 14)
        for a in admissible_alphabets(k)
        if a.has_unit_diff
    ]
    for alpha in rng.sample(pool, 20):
        for n in range(1, 4):
            gc = gap_count(alpha, n)
            assert gc.matches, (alpha.k, alpha.digits, n)


def test_gap_count_needs_unit_diff():
    with pytest.raises(PreconditionViolated):
        gap_count(DigitAlphabet(3, (0, 2)), 2)


# ---------------------------------------------------------------------------
# coverage checks


def test_coverage_all_alphabets_k_le_11():
    for k in range(2, 12):
        for alpha in admissible_alphabets(k):
            for n in range(1, 4):
                cc = coverage_checks(alpha, n)
                assert cc.passed, (k, alpha.digits, n, cc.failures)
                if alpha.has_unit_diff:
                    assert cc.half_alphabet_ok and cc.half_range_ok
                else:
                    assert cc.half_alphabet_ok is None
                assert cc.parity_ok


def test_coverage_reports_failures_for_bad_input():
    # Not reachable through admissible alphabets; checked directly on the
    # result type by faking a narrow sweep (n=1 only looks at A - A).
    alpha = DigitAlphabet(5, (0, 2, 4))
    cc = coverage_checks(alpha, 1)
    assert cc.half_alphabet_ok is None  # no unit difference to lean on
    assert cc.parity_ok


# ---------------------------------------------------------------------------
# gamma search


def test_gamma_search_frozen(tq41):
    from ranklab import tq_params_of

    params = tq_params_of(tq41)
    assert params is not None
    gw = gamma_search(params.alphabet, (2, 3))
    assert (gw.n, gw.m, gw.gamma) == (1, 1, 1)
    k = params.alphabet.k
    assert sum(c * k**l for l, c in enumerate(gw.zero_digits)) == k**gw.m - 1
    for beta, digits in gw.beta_digits:
        assert sum(c * k**l for l, c in enumerate(digits)) == k**gw.n - gw.gamma * beta


def test_gamma_search_validation(tq41):
    from ranklab import tq_params_of

    alphabet = tq_params_of(tq41).alphabet
    with pytest.raises(ParamOutOfRange):
        gamma_search(alphabet, ())
    with pytest.raises(ParamOutOfRange):
        gamma_search(alphabet, (0,))
    refused = r"^multipliers must be positive integers, got \[True\]$"
    with pytest.raises(ParamOutOfRange, match=refused):
        gamma_search(alphabet, [True])
    with pytest.raises(HorizonExceeded):
        gamma_search(alphabet, (10**9,), horizon=2)
