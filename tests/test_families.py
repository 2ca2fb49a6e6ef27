"""Closed-form generators: parameter checks, frozen traces, separation."""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranklab import (
    AsymmParams,
    BudgetExceeded,
    ParamOutOfRange,
    SeparationResult,
    TQParams,
    asymm_stage_sets,
    make_asymm_construction,
    make_inf_chacon,
    make_tq,
    partner_shift,
    separation_check,
)
from ranklab._budget import charge
from ranklab.families import iroot_ceil


def test_iroot_ceil():
    assert iroot_ceil(1, 3) == 1
    assert iroot_ceil(2, 1) == 2
    assert iroot_ceil(8, 3) == 2
    assert iroot_ceil(9, 3) == 3
    assert iroot_ceil(10**12, 2) == 10**6
    with pytest.raises(ParamOutOfRange):
        iroot_ceil(4, 0)


# ---------------------------------------------------------------------------
# infinite-Chacon type


def test_inf_chacon_matches_closed_form():
    spec = make_inf_chacon()
    for n in range(6):
        h = spec.height(n)
        assert spec.height_set(n) == tuple(
            (1 if i >= 1 else 0) + i * h for i in range(3)
        )
        assert spec.height(n + 1) == 6 * h + 2


def test_inf_chacon_q2_moves_the_spacer():
    spec = make_inf_chacon(q=2)
    h = spec.height(1)
    assert spec.height_set(1) == (0, h, 2 * h + 1)


def test_inf_chacon_parameter_bounds():
    with pytest.raises(ParamOutOfRange):
        make_inf_chacon(t=1)
    with pytest.raises(ParamOutOfRange):
        make_inf_chacon(q=3)  # q must stay below t
    with pytest.raises(ParamOutOfRange):
        make_inf_chacon(m1=5)  # height factor below 2t
    with pytest.raises(ParamOutOfRange):
        make_inf_chacon(m0=0)


# ---------------------------------------------------------------------------
# tower family


def test_tq_phi_and_heights():
    spec, params = make_tq(4, 1, [1])
    assert params.k == 5
    assert params.phi == (0, 1, 3, 4)
    assert params.alphabet.digits == (0, 1, 3, 4)
    for n in range(4):
        h = spec.height(n)
        assert spec.height_set(n) == (0, h, 3 * h, 4 * h)
        assert spec.height(n + 1) == 5 * h + 1


def test_tq_all_but_last_positions():
    spec, params = make_tq(3, 2, [0, 1])
    assert params.phi == (0, 2, 4)
    assert spec.height_set(0) == (0, 2, 4)
    assert [spec.height(n) for n in range(4)] == [1, 6, 31, 156]


def test_tq_parameter_bounds():
    with pytest.raises(ParamOutOfRange):
        make_tq(2, 1, [0])
    with pytest.raises(ParamOutOfRange):
        make_tq(4, 2, [1])  # wrong number of positions
    with pytest.raises(ParamOutOfRange):
        make_tq(4, 2, [1, 1])  # duplicates
    with pytest.raises(ParamOutOfRange):
        make_tq(4, 1, [3])  # top subcolumn cannot carry a block


# ---------------------------------------------------------------------------
# separation check


def test_separation_passes_on_spread_set():
    res = separation_check((0, 10, 40), h_n=1, factor=2)
    assert res.passed
    assert res.threshold == 4
    assert res.min_abs == 10
    assert res.violation is None


def test_separation_catches_near_collision():
    # 51 - 40 and 10 - 0 differ by 1, below any threshold of 2 or more.
    res = separation_check((0, 10, 40, 51), h_n=1, factor=1)
    assert not res.passed
    assert res.min_abs == 1
    x, y, z, z2 = res.violation
    assert abs(x - z - y + z2) < res.threshold


def test_separation_restricted_scan():
    # Quadruples whose x lies outside the restricted subset are exempt.
    full = separation_check((0, 10, 40, 51), h_n=1, factor=1)
    assert not full.passed
    part = separation_check((0, 10, 40, 51), h_n=1, factor=1, restricted=(0,))
    assert isinstance(part.passed, bool)
    with pytest.raises(ParamOutOfRange):
        separation_check((0, 10), h_n=1, factor=1, restricted=(3,))


def _quadruple_scan(
    heights: Sequence[int],
    h_n: int,
    factor: int,
    restricted: Sequence[int] | None = None,
) -> SeparationResult:
    """The reference scan: every constrained quadruple, in scan order."""
    hs = sorted(set(heights))
    if restricted is None:
        xs = hs
    else:
        xs = sorted(set(restricted))
        if not set(xs) <= set(hs):
            raise ParamOutOfRange("restricted subset has elements outside the height set")
    threshold = 2 * factor * h_n
    charge(len(xs) * len(hs) ** 3, "separation quadruple scan")
    min_abs: int | None = None
    violation: tuple[int, int, int, int] | None = None
    for x in xs:
        for y in hs:
            if x == y:
                continue
            for z in hs:
                for z2 in hs:
                    if z == x and z2 == y:
                        continue
                    val = abs(x - z - y + z2)
                    if min_abs is None or val < min_abs:
                        min_abs = val
                    if val < threshold and violation is None:
                        violation = (x, y, z, z2)
    passed = violation is None
    return SeparationResult(passed, threshold, min_abs, violation)


@st.composite
def _separation_sets(draw):
    """Offsets and the subset ``x`` ranges over: all of them, none, or some."""
    heights = draw(st.lists(st.integers(-30, 90), min_size=1, max_size=7))
    restricted = draw(st.one_of(st.none(), st.just(()), st.lists(st.sampled_from(heights))))
    return heights, restricted


@settings(deadline=None, max_examples=300)
@given(sets=_separation_sets(), h_n=st.integers(0, 6), factor=st.integers(0, 3))
# x - y is the least difference, -7, and its nearest is the next one up, -5
@example(sets=([0, 2, 7], [0]), h_n=1, factor=1)
# x - y is the greatest difference, 7, and its nearest is the next one down, 5
@example(sets=([0, 2, 7], [7]), h_n=1, factor=1)
# 3 - 0 = 6 - 3 and 20 - 3 = 23 - 6, so those gaps are 0
@example(sets=([0, 3, 6, 20, 23], None), h_n=2, factor=1)
# offsets past float range: the ends of the sorted differences stay ints
@example(sets=([0, 2**1100, 2**1102], None), h_n=1, factor=1)
@example(sets=([-(2**1102), 0, 2**1100], [2**1100]), h_n=3, factor=2)
# no heights, and one height: no pair x != y, so nothing is constrained
@example(sets=([], None), h_n=1, factor=1)
@example(sets=([5], None), h_n=1, factor=1)
def test_separation_check_matches_quadruple_scan(sets, h_n, factor):
    # Thresholds up to 36 on offsets this close make many sets fail, so the
    # scan order of ``violation`` is compared too, not only ``min_abs``.
    heights, restricted = sets
    expected = _quadruple_scan(heights, h_n, factor, restricted)
    assert separation_check(heights, h_n, factor, restricted) == expected
    # The check is still charged one unit per quadruple, under the same label.
    r = len(set(heights))
    units = len(set(heights if restricted is None else restricted)) * r**3
    if units > 1:
        with mock.patch.dict(os.environ, {"RANKLAB_BUDGET": str(units - 1)}):
            with pytest.raises(BudgetExceeded) as info:
                separation_check(heights, h_n, factor, restricted)
        assert (info.value.what, info.value.units) == ("separation quadruple scan", units)


# ---------------------------------------------------------------------------
# asymmetric family (frozen trace for k=2, p=3, C=2)


def test_asymm_even_stage_is_sidon():
    params = AsymmParams(k=2, p=3, prefix_stages=6, separation_factor=2)
    st = asymm_stage_sets(params, 0, 1)
    assert st.heights == (0, 4, 16)
    # Sidon: every nonzero difference appears exactly once.
    diffs = [
        b - a for a, b in itertools.permutations(st.heights, 2)
    ]
    assert len(diffs) == len(set(diffs))


def test_asymm_odd_stage_frozen_trace():
    params = AsymmParams(k=2, p=3, prefix_stages=6, separation_factor=2)
    st = asymm_stage_sets(params, 1, 34)
    assert st.heights == (
        0, 137, 548, 685, 2740, 2878, 11512, 11650, 46736, 186944,
    )
    assert st.shift == 137
    assert st.pairs == 2
    assert st.delta_realized == Fraction(1, 5)
    assert st.restricted == (46736, 186944)
    # The deliberate pairs are the only occurrences of z and z+1.
    ps = partner_shift(st.heights)
    assert ps is not None and ps.z == 137
    assert ps.at_z.members == (137, 685)
    assert ps.at_z_plus_1.members == (2878, 11650)
    assert ps.delta == Fraction(1, 5)


def test_asymm_construction_heights():
    spec = make_asymm_construction(
        AsymmParams(k=2, p=3, prefix_stages=6, separation_factor=2)
    )
    assert [spec.height(n) for n in range(4)] == [1, 34, 373956, 12714504]
    # Each stage doubles the span: h' = 2 * (max offset + h).
    for n in range(5):
        assert spec.height(n + 1) == 2 * (
            max(spec.height_set(n)) + spec.height(n)
        )


def test_asymm_difference_multiplicities_bounded():
    # Away from the two planned pair distances, no positive difference of
    # the odd-stage set may appear more often than the pair count; this is
    # the combinatorial core of the decay bound.
    params = AsymmParams(k=2, p=3, prefix_stages=6, separation_factor=2)
    st = asymm_stage_sets(params, 1, 34)
    counts: dict[int, int] = {}
    for a, b in itertools.combinations(st.heights, 2):
        counts[b - a] = counts.get(b - a, 0) + 1
    for d, c in counts.items():
        if d in (st.shift, st.shift + 1):
            assert c == st.pairs
        else:
            assert c <= st.pairs, (d, c)


def test_asymm_parameter_validation():
    with pytest.raises(ParamOutOfRange):
        AsymmParams(k=0, p=3, prefix_stages=2, separation_factor=2)
    with pytest.raises(ParamOutOfRange):
        AsymmParams(k=2, p=1, prefix_stages=2, separation_factor=2)
    with pytest.raises(ParamOutOfRange):
        AsymmParams(k=2, p=None, prefix_stages=2, separation_factor=1)


def test_asymm_stages_pass_separation_externally():
    # Re-check the guarantee the generator enforces internally: separated
    # stages pass the full quadruple scan, partner stages the restricted one.
    params = AsymmParams(k=2, p=3, prefix_stages=4, separation_factor=2)
    spec = make_asymm_construction(params)
    for n in range(4):
        h = spec.height(n)
        sets = asymm_stage_sets(params, n, h)
        assert sets.heights == spec.height_set(n)
        res = separation_check(
            sets.heights,
            h,
            params.separation_factor,
            restricted=None if sets.shift is None else sets.restricted,
        )
        assert res.passed, (n, res.violation)
