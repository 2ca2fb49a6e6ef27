"""Columns, heights, levels, descendants, and exact measure brackets."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklab import (
    BudgetExceeded,
    SpecError,
    CutTooSmall,
    LengthMismatch,
    LevelRef,
    NegativeSpacer,
    ParamOutOfRange,
    RankOneSpec,
    StageSpec,
    StageTooLow,
    StageUnavailable,
    check_level,
    descendant_extent,
    descendant_heights,
    intersection_measure,
    level_width,
    validate_spec,
)
from ranklab.oracles import ColumnStats, column_stats

# ---------------------------------------------------------------------------
# stage and spec validation


def _one_stage(r, s):
    return validate_spec({"h0": 1, "stages": [{"r": r, "s": s}]})


def test_stage_rejects_single_cut():
    with pytest.raises(CutTooSmall):
        _one_stage(1, [0])


def test_stage_rejects_negative_spacer():
    with pytest.raises(NegativeSpacer):
        _one_stage(3, [0, -1, 0])


def test_stage_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        _one_stage(3, [0, 0])


def test_stage_rejects_bools():
    # bool is an int subclass; construction data must be genuine integers.
    with pytest.raises(SpecError):
        _one_stage(True, [0])
    with pytest.raises(SpecError):
        _one_stage(2, [True, 0])


def test_validate_spec_roundtrip():
    spec = validate_spec(
        {"h0": 1, "stages": [{"r": 3, "s": [1, 0, 4]}], "extension": "repeat-last"}
    )
    assert isinstance(spec, RankOneSpec)
    assert spec.height(0) == 1
    assert spec.height(1) == 8


def test_explicit_spec_refuses_stages_beyond_data():
    spec = validate_spec({"h0": 1, "stages": [{"r": 2, "s": [0, 0]}]})
    assert spec.height(1) == 2
    with pytest.raises(StageUnavailable):
        spec.height(2)


# ---------------------------------------------------------------------------
# heights and height sets for the bundled constructions


def test_chacon_heights(chacon):
    assert [chacon.height(n) for n in range(5)] == [1, 8, 50, 302, 1814]


def test_chacon_height_sets(chacon):
    assert chacon.height_set(0) == (0, 2, 3)
    assert chacon.height_set(1) == (0, 9, 17)
    assert chacon.height_set(2) == (0, 51, 101)


def test_tq41_heights_and_sets(tq41):
    # One full-height spacer block plus one top spacer: h' = 5h + 1.
    assert [tq41.height(n) for n in range(5)] == [1, 6, 31, 156, 781]
    for n in range(4):
        h = tq41.height(n)
        assert tq41.height_set(n) == (0, h, 3 * h, 4 * h)


def test_all_but_last_heights_and_sets(all_but_last):
    assert [all_but_last.height(n) for n in range(4)] == [1, 6, 31, 156]
    for n in range(3):
        h = all_but_last.height(n)
        assert all_but_last.height_set(n) == (0, 2 * h, 4 * h)


def test_dyadic_heights(dyadic):
    assert [dyadic.height(n) for n in range(10)] == [2**n for n in range(10)]
    assert dyadic.height_set(3) == (0, 8)


def test_mixing_window_first_set(mixing_window):
    assert mixing_window.height_set(0) == (0, 10, 40)
    assert mixing_window.height(1) == 82


@pytest.mark.parametrize(
    "fixture", ["chacon", "tq41", "all_but_last", "dyadic", "mixing_window"]
)
def test_height_set_invariants(fixture, request):
    spec = request.getfixturevalue(fixture)
    for n in range(6):
        offs = spec.height_set(n)
        stage = spec.stage(n)
        h = spec.height(n)
        assert offs[0] == 0
        assert len(offs) == stage.r
        # Consecutive copies are separated by at least a full column height.
        assert all(b - a >= h for a, b in zip(offs, offs[1:]))
        assert offs[-1] == spec.height(n + 1) - h - stage.s[-1]


# ---------------------------------------------------------------------------
# measure bookkeeping


def test_column_stats_mass_accounting(chacon):
    prev: ColumnStats | None = None
    for n in range(7):
        cs = column_stats(chacon, n)
        assert cs.total_measure == cs.height * cs.level_width
        if prev is not None:
            stage = chacon.stage(n - 1)
            spacer_mass = sum(stage.s) * cs.level_width
            # Restacking preserves mass and adds exactly the spacer levels.
            assert cs.total_measure == prev.total_measure + spacer_mass
            assert prev.level_width == cs.level_width * stage.r
        prev = cs


def test_level_width_is_width_of_column(chacon):
    assert level_width(chacon, LevelRef(0, 0)) == 1
    assert level_width(chacon, LevelRef(1, 5)) == Fraction(1, 3)
    assert level_width(chacon, LevelRef(2, 49)) == Fraction(1, 9)


def test_check_level_bounds(chacon):
    check_level(chacon, LevelRef(1, 7))
    with pytest.raises(ParamOutOfRange):
        check_level(chacon, LevelRef(1, 8))
    with pytest.raises(ParamOutOfRange):
        check_level(chacon, LevelRef(0, -1))


# ---------------------------------------------------------------------------
# descendants


def test_chacon_descendants_frozen(chacon):
    assert descendant_heights(chacon, LevelRef(1, 0), 2) == (0, 9, 17)
    assert descendant_heights(chacon, LevelRef(1, 0), 3) == (
        0, 9, 17, 51, 60, 68, 101, 110, 118,
    )
    assert descendant_heights(chacon, LevelRef(0, 0), 2) == (
        0, 2, 3, 9, 11, 12, 17, 19, 20,
    )


def test_descendants_of_self_is_self(chacon):
    lvl = LevelRef(2, 13)
    assert descendant_heights(chacon, lvl, 2) == (13,)


def test_descendants_stage_too_low(chacon):
    with pytest.raises(StageTooLow):
        descendant_heights(chacon, LevelRef(2, 0), 1)


def test_descendant_heights_respects_budget(chacon, monkeypatch):
    monkeypatch.setenv("RANKLAB_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        descendant_heights(chacon, LevelRef(0, 0), 6)


@pytest.mark.parametrize("fixture", ["chacon", "tq41", "all_but_last", "dyadic"])
def test_descendant_counts_and_span(fixture, request):
    spec = request.getfixturevalue(fixture)
    lvl = LevelRef(0, 0)
    expect = 1
    for j in range(5):
        vals = descendant_heights(spec, lvl, j)
        assert len(vals) == expect
        assert vals[0] == 0
        assert vals[-1] <= spec.height(j) - 1
        assert all(b > a for a, b in zip(vals, vals[1:]))
        expect *= spec.stage(j).r


@st.composite
def small_specs(draw):
    """Random explicit constructions, three stages deep."""
    h0 = draw(st.integers(min_value=1, max_value=3))
    stages = []
    h = h0
    for _ in range(3):
        r = draw(st.integers(min_value=2, max_value=4))
        s = [draw(st.integers(min_value=0, max_value=6)) for _ in range(r)]
        stages.append({"r": r, "s": s})
        h = r * h + sum(s)
    return validate_spec({"h0": h0, "stages": stages})


@settings(deadline=None, max_examples=60)
@given(spec=small_specs(), data=st.data())
def test_descendant_recursion_property(spec, data):
    # The one-stage recursion D(j+1) = D(j) + H_j, elementwise and collision
    # free, against the direct sumset computed here.
    lvl = LevelRef(0, 0)
    j = data.draw(st.integers(min_value=0, max_value=2))
    vals = set(descendant_heights(spec, lvl, j))
    offs = spec.height_set(j)
    expected = sorted(e + o for e in vals for o in offs)
    got = descendant_heights(spec, lvl, j + 1)
    assert list(got) == expected
    assert len(set(expected)) == len(expected)


@settings(deadline=None, max_examples=80)
@given(spec=small_specs(), data=st.data())
def test_descendant_extent_matches_enumeration(spec, data):
    # The closed form (count, min, max) against the listed descendants, for
    # any level and any target, the level's own stage included.
    stage = data.draw(st.integers(min_value=0, max_value=3))
    lvl = LevelRef(stage, data.draw(st.integers(0, spec.height(stage) - 1)))
    j = data.draw(st.integers(min_value=stage, max_value=3))
    vals = descendant_heights(spec, lvl, j)
    assert descendant_extent(spec, lvl, j) == (len(vals), vals[0], vals[-1])


def test_descendant_extent_refuses_like_the_enumeration(chacon):
    with pytest.raises(ParamOutOfRange):
        descendant_extent(chacon, LevelRef(1, 8), 0)  # level first
    with pytest.raises(StageTooLow):
        descendant_extent(chacon, LevelRef(2, 0), 1)
    spec = validate_spec({"h0": 1, "stages": [{"r": 2, "s": [0, 0]}]})
    with pytest.raises(StageUnavailable):
        descendant_extent(spec, LevelRef(0, 0), 2)


def _colliding_spec():
    # H_1 faked as (0, 2, 4): its gaps equal the span 2 of the stage-1
    # descendants (0, 1, 2) of level 0:0, so 0 + 2 and 2 + 0 collide.
    spec = RankOneSpec([StageSpec(3, (0, 0, 0))] * 2)
    spec.height_set = lambda n: ((0, 1, 2), (0, 2, 4))[n]
    return spec


def _negative_spacer_spec():
    # A spacer of -3 smuggled past validation: the height set's gap is -2.
    spec = RankOneSpec([StageSpec(2, (0, 0))])
    spec._explicit = (StageSpec(2, (-3, 0)),)
    return spec


def test_broken_height_sets_are_refused():
    with pytest.raises(AssertionError, match="^descendants collided at stage 2$"):
        descendant_heights(_colliding_spec(), LevelRef(0, 0), 2)
    with pytest.raises(AssertionError, match="^stage 0: height set gap below the column"):
        _negative_spacer_spec().height(1)
    spec = RankOneSpec([StageSpec(2, (0, 0))])
    spec.height_set = lambda n: (0, 5)  # no collision, but above h_1 = 2
    with pytest.raises(AssertionError, match="^descendants left column 1$"):
        descendant_heights(spec, LevelRef(0, 0), 1)


_UNDER_O = """
import sys
from ranklab import LevelRef, descendant_heights
from test_construction import _colliding_spec, _negative_spacer_spec

print(sys.flags.optimize)
for probe in (
    lambda: descendant_heights(_colliding_spec(), LevelRef(0, 0), 2),
    lambda: _negative_spacer_spec().height(1),
):
    try:
        probe()
    except AssertionError as exc:
        print(exc)
"""


def test_broken_height_sets_are_refused_under_python_O():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.splitlines() == [
        "1",
        "descendants collided at stage 2",
        "stage 0: height set gap below the column height",
    ]


# ---------------------------------------------------------------------------
# intersection brackets


def test_intersection_zero_shift_is_full_measure(chacon):
    lvl = LevelRef(1, 0)
    mi = intersection_measure(chacon, lvl, (0,), 3)
    assert mi.confirmed == level_width(chacon, lvl)
    assert mi.unresolved == 0


def test_intersection_hand_counted(chacon):
    # Descendants of (1,0) in column 2 sit at 0, 9, 17.  Shift 9: height 9
    # confirms (both 9 and 0 are descendants), height 17 fails in range
    # (8 is no descendant), height 0 needs T^-9 below the column.
    mi = intersection_measure(chacon, LevelRef(1, 0), (0, 9), 2)
    assert mi.confirmed == Fraction(1, 9)
    assert mi.unresolved == Fraction(1, 9)
    assert mi.upper == Fraction(2, 9)


def test_intersection_empty_exponents_rejected(chacon):
    with pytest.raises(ParamOutOfRange):
        intersection_measure(chacon, LevelRef(1, 0), (), 2)


def test_intersection_common_shift_invariance(chacon):
    a = intersection_measure(chacon, LevelRef(1, 0), (0, 9), 3)
    b = intersection_measure(chacon, LevelRef(1, 0), (-9, 0), 3)
    assert a == b


@settings(deadline=None, max_examples=40)
@given(spec=small_specs(), m=st.integers(min_value=-30, max_value=30))
def test_intersection_bracket_sane(spec, m):
    lvl = LevelRef(0, 0)
    mi = intersection_measure(spec, lvl, (0, m), 3)
    width = level_width(spec, lvl)
    assert 0 <= mi.confirmed <= mi.upper <= width
    if m == 0:
        assert mi.confirmed == width and mi.unresolved == 0
