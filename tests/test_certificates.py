"""Certificate operations against hand-computed and brute-force oracles."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import _MULTIPLIER_PAIRS, spec_path
from ranklab import (
    BudgetExceeded,
    DigitAlphabet,
    HypothesisUnmet,
    LevelRef,
    MeasureInterval,
    MixingEntry,
    NoPartnerStages,
    ParamOutOfRange,
    PatternQuery,
    PreconditionViolated,
    ProductQuery,
    StageTooLow,
    StageUnavailable,
    TQParams,
    asymmetry_statistic,
    conservativity_fraction,
    coverage_checks,
    descendant_differences,
    descendant_heights,
    ergodic_matching,
    gamma_search,
    gap_count,
    intersection_measure,
    load_spec,
    mixing_decay,
    non_ergodic_check,
    npc_certificate,
    partner_shift,
    pattern_measure,
    pwm_witness,
    spec_fingerprint,
    sumset_membership,
    validate_spec,
    verify_match_witness,
)
from ranklab import _budget, construction, sumsets
from ranklab.certificates import matching, mixing
from ranklab.certificates.asymmetry import _adjacent_pairs
from ranklab.certificates.products import _grown, _pair_slides, _slide_scan
from ranklab.oracles import exhaustive_matches

SRC = Path(__file__).resolve().parent.parent / "src"

# ---------------------------------------------------------------------------
# conservativity fraction


def _returning_pairs_oracle(values):
    """Pairs (a, b) that slide back into the set under some nonzero shift."""
    vset = set(values)
    matched = 0
    for a in values:
        for b in values:
            if any(
                n != 0 and (b - n) in vset
                for n in (a - d for d in vset)
            ):
                matched += 1
    return matched


def test_conservativity_chacon_65_81(chacon):
    query = ProductQuery((1, 1), (0, 0), 0, 2)
    best, cert = conservativity_fraction(chacon, query)
    assert best == Fraction(65, 81)
    assert cert.verdict == "inconclusive"
    rows = cert.evidence["stages"]
    assert rows[-1]["stage"] == 2
    assert rows[-1]["fraction"] == Fraction(65, 81)
    assert rows[-1]["route"] == "anchored"
    # Diagonal pairs always return (slide to any other descendant).
    assert rows[-1]["diagonalFraction"] == 1
    # Independent brute force over all 81 pairs.
    values = descendant_heights(chacon, LevelRef(0, 0), 2)
    assert _returning_pairs_oracle(values) == 65


def test_conservativity_deep_stage_holds(chacon):
    best, cert = conservativity_fraction(chacon, ProductQuery((1, 1), (0, 0), 0, 6))
    assert best >= Fraction(9, 10)
    assert cert.verdict == "holds"


def test_conservativity_single_power_residue_route(chacon):
    best, cert = conservativity_fraction(chacon, ProductQuery((1,), (0,), 0, 2))
    assert best == 1
    assert cert.verdict == "holds"
    assert cert.evidence["stages"][0]["route"] == "residue"


@pytest.mark.parametrize("name, base, horizon", [("chacon", 0, 5), ("asymm", 1, 4), ("tq41", 0, 4)])
@pytest.mark.parametrize("m", [1, 2, 3, -4])
def test_residue_classes_carry_from_stage_to_stage(name, base, horizon, m, request):
    # The classes mod |m| are grown one stage at a time; at every row they
    # are those of the listed descendants.
    spec = request.getfixturevalue(name)
    for multipliers in ((m,), (m, m)):
        _, cert = conservativity_fraction(spec, ProductQuery(multipliers, (0,) * len(multipliers),
                                                             base, horizon))
        for row in cert.evidence["stages"]:
            values = descendant_heights(spec, LevelRef(base, 0), row["stage"])
            classes = Counter(v % abs(m) for v in values)
            returning = sum(c for c in classes.values() if c > 1)
            if len(multipliers) == 1:
                assert row["matched"] == returning
            else:
                assert row["diagonalFraction"] == Fraction(returning, len(values))


def test_conservativity_rejects_nonzero_shifts(chacon):
    with pytest.raises(ParamOutOfRange):
        conservativity_fraction(chacon, ProductQuery((1, 1), (0, 3), 0, 2))


# ---------------------------------------------------------------------------
# ergodic matching


def test_matching_fraction_frozen(chacon):
    res = ergodic_matching(chacon, ProductQuery((1, -1), (0, 1), 1, 2))
    assert res.fraction == Fraction(1, 9)
    assert res.fraction + res.dead + res.pending == 1
    assert res.certificate.verdict == "holds"
    w = res.witness
    assert w is not None
    assert w.a == (9, 9)
    assert w.d == (0, 17)
    assert w.residual == 9
    verify_match_witness(chacon, w)


def test_bogus_witness_is_refused(chacon):
    w = ergodic_matching(chacon, ProductQuery((1, -1), (0, 1), 1, 2)).witness
    with pytest.raises(PreconditionViolated, match="coordinate 0"):
        verify_match_witness(chacon, w._replace(residual=w.residual + 1))
    with pytest.raises(PreconditionViolated, match="arity"):
        verify_match_witness(chacon, w._replace(shifts=(0,)))


def test_bogus_witness_is_refused_under_optimize():
    # Bare asserts vanish under ``python -O``; the witness check must not.
    script = (
        "from ranklab import ProductQuery, ergodic_matching, load_spec,"
        " verify_match_witness\n"
        f"spec = load_spec({spec_path('chacon.json')!r})\n"
        "w = ergodic_matching(spec, ProductQuery((1, -1), (0, 1), 1, 2)).witness\n"
        "verify_match_witness(spec, w._replace(residual=w.residual + 1))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "PreconditionViolated" in proc.stderr


def test_matching_deeper_horizon_same_fraction(chacon):
    res = ergodic_matching(chacon, ProductQuery((1, -1), (0, 1), 1, 3))
    assert res.fraction == Fraction(9, 81)


@pytest.mark.parametrize("horizon", [2, 3])
def test_matching_agrees_with_exhaustive_replay(chacon, horizon):
    signature, shifts = (1, -1), (0, 1)
    res = ergodic_matching(chacon, ProductQuery(signature, shifts, 1, horizon))
    matches = exhaustive_matches(chacon, ProductQuery(signature, shifts, 1, horizon))
    tuples = len(descendant_heights(chacon, LevelRef(1, 0), horizon)) ** 2
    assert res.fraction == Fraction(len(matches), tuples)
    # Injectivity: distinct matched tuples map to distinct partners.
    assert len({d for d, _ in matches.values()}) == len(matches)
    for a, (d, residual) in matches.items():
        for l, power in enumerate(signature):
            assert a[l] - d[l] - shifts[l] == power * residual


def test_matching_three_coordinates(chacon):
    # Two distinct shifts mean two move stages; horizon 4 is the first
    # depth at which both resolve.
    signature, shifts = (1, 1, -1), (0, 1, 2)
    res = ergodic_matching(chacon, ProductQuery(signature, shifts, 1, 4))
    assert res.fraction == Fraction(1, 19683)
    assert res.pending == 0
    matches = exhaustive_matches(chacon, ProductQuery(signature, shifts, 1, 4))
    tuples = len(descendant_heights(chacon, LevelRef(1, 0), 4)) ** 3
    assert res.fraction == Fraction(len(matches), tuples)
    assert len({d for d, _ in matches.values()}) == len(matches)
    verify_match_witness(chacon, res.witness)


def test_matching_requires_unit_powers(chacon):
    with pytest.raises(ParamOutOfRange):
        ergodic_matching(chacon, ProductQuery((2, -1), (0, 0), 1, 3))


def test_matching_no_partner_stages(dyadic):
    # {0, h} offers no z with partners at both z and z+1.
    with pytest.raises(NoPartnerStages):
        ergodic_matching(dyadic, ProductQuery((1, -1), (0, 1), 1, 4))
    with pytest.raises(NoPartnerStages):  # the slow route scans the same stages
        exhaustive_matches(dyadic, ProductQuery((1, -1), (0, 1), 1, 4))


def test_matching_shift_bounds(chacon):
    with pytest.raises(ParamOutOfRange):
        ergodic_matching(chacon, ProductQuery((1, -1), (0, 8), 1, 3))


def _stage_sets_by_case(ps, signature, move):
    """The move rule spelled out case by case: the oracle for the width rule."""
    z = ps.z
    s_z = ps.at_z.members
    s_z1 = ps.at_z_plus_1.members
    s_z_low = tuple(x - z for x in s_z)
    s_z1_low = tuple(x - z - 1 for x in s_z1)
    required, deltas = [], []
    for l, e in enumerate(signature):
        if move.kind == matching._RAISED_FORWARD:
            if e > 0 and l == move.coord:
                required.append(s_z1), deltas.append(z + 1)
            elif e > 0:
                required.append(s_z), deltas.append(z)
            else:
                required.append(s_z_low), deltas.append(-z)
        elif move.kind == matching._LOWERED_FORWARD:
            if e > 0 and l == move.coord:
                required.append(s_z), deltas.append(z)
            elif e > 0:
                required.append(s_z1), deltas.append(z + 1)
            else:
                required.append(s_z1_low), deltas.append(-(z + 1))
        else:
            if e < 0 and l == move.coord:
                required.append(s_z_low), deltas.append(-z)
            elif e < 0:
                required.append(s_z1_low), deltas.append(-(z + 1))
            else:
                required.append(s_z1), deltas.append(z + 1)
    step = z if move.kind == matching._RAISED_FORWARD else z + 1
    return tuple(required), tuple(deltas), step


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4).filter(lambda s: 1 in s),
    st.data(),
)
def test_width_rule_matches_the_case_by_case_rule(signature, data):
    shifts = data.draw(st.lists(st.integers(0, 3), min_size=len(signature),
                                max_size=len(signature)))
    heights = data.draw(st.lists(st.integers(0, 40), min_size=2, max_size=9, unique=True))
    ps = partner_shift(sorted(heights))
    assume(ps is not None)
    moves, _ = matching._move_plan(signature, shifts)
    for move in set(moves):
        got = matching._stage_sets(ps, signature, move)
        assert got == _stage_sets_by_case(ps, signature, move)
        # The move distribution takes every required set to be this large.
        assert all(len(req) == len(ps.at_z.members) for req in got[0])


# ---------------------------------------------------------------------------
# pattern capture bound


def test_pattern_frozen_case(chacon):
    res = pattern_measure(chacon, PatternQuery(2, (0, 1), 1, 3))
    assert res.matched.confirmed == Fraction(1, 9)
    assert res.hit_mass == 1
    assert res.bound == Fraction(1, 16)
    assert res.gamma == 1
    assert res.certificate.verdict == "holds"


def test_pattern_tight_capture_constant(chacon):
    # Hit region has 3 offsets, required product is a single pair, so the
    # stage check needs dconst >= 9; at exactly 9 the bound is attained.
    res = pattern_measure(chacon, PatternQuery(2, (0, 1), 1, 3, dconst=9))
    assert res.bound == Fraction(1, 9)
    assert res.certificate.verdict == "holds"
    with pytest.raises(ParamOutOfRange):
        pattern_measure(chacon, PatternQuery(2, (0, 1), 1, 3, dconst=8))


def test_pattern_no_moves_is_trivial(chacon):
    res = pattern_measure(chacon, PatternQuery(2, (0, 0), 1, 3))
    assert res.matched.confirmed == 1
    assert res.hit_mass == 1
    assert res.bound == 1
    assert res.certificate.verdict == "holds"


# ---------------------------------------------------------------------------
# mixing-type decay


def test_mixing_example_entries(mixing_window):
    res = mixing_decay(mixing_window, LevelRef(0, 0), ms=(0, 10, 40, -40))
    by_m = {e.m: e for e in res.entries}
    assert by_m[0].window is None
    assert by_m[0].ratio == 1
    assert by_m[0].note == "zero shift"
    for m in (10, 40, -40):
        e = by_m[m]
        assert e.window == 0
        assert e.eval_stage == 1
        assert e.ratio == Fraction(1, 3)
        assert e.bound == Fraction(1, 3)
        assert e.hypothesis_ok
        assert not e.violation
    assert res.verdict == "holds"


def test_mixing_full_window_sweep(mixing_window):
    res = mixing_decay(mixing_window, LevelRef(0, 0), window=0)
    assert [e.m for e in res.entries] == list(range(1, 41))
    assert all(e.ratio <= Fraction(1, 3) for e in res.entries)
    assert res.verdict == "holds"
    assert max(e.ratio for e in res.entries) == Fraction(1, 3)


def test_mixing_chacon_window(chacon):
    res = mixing_decay(chacon, LevelRef(1, 0), window=1)
    assert [e.m for e in res.entries] == list(range(1, 18))
    # Partner fraction at stage 1 is 1/3, matching the cut-count bound.
    assert all(e.bound == Fraction(1, 3) for e in res.entries)
    assert all(e.hypothesis_ok for e in res.entries)
    assert res.verdict == "holds"


def test_mixing_beyond_materialized_stages():
    spec = validate_spec({"h0": 1, "stages": [{"r": 3, "s": [9, 29, 41]}]})
    res = mixing_decay(spec, LevelRef(0, 0), ms=(10**6,))
    entry = res.entries[0]
    assert entry.window is None
    assert entry.note == "beyond the materialized stages"
    assert res.verdict == "inconclusive"


def test_mixing_window_stage_too_low(chacon):
    with pytest.raises(StageTooLow):
        mixing_decay(chacon, LevelRef(2, 0), window=1)


def test_mixing_asymm_separated_window(asymm):
    res = mixing_decay(asymm, LevelRef(0, 0), window=0)
    assert len(res.entries) == 16
    assert res.verdict == "holds"
    assert max(e.ratio for e in res.entries) == Fraction(1, 3)


def test_mixing_asymm_partner_window_attains_delta(asymm, monkeypatch):
    # 186945 shifts against 30 descendants: needs a raised work budget.
    monkeypatch.setenv("RANKLAB_BUDGET", "10000000")
    res = mixing_decay(asymm, LevelRef(0, 0), window=1)
    assert len(res.entries) == 186945
    assert res.verdict == "holds"
    # The sweep range's left edge still resolves to window 0 (ratio 1/3
    # against that window's 1/3 bound); proper window-1 entries top out at
    # the designed partner density.
    by_m = {e.m: e for e in res.entries}
    assert by_m[16].window == 0
    worst = max(e.ratio for e in res.entries if e.window == 1)
    assert worst == Fraction(1, 5)
    # The planned partner distances attain the bound exactly.
    assert by_m[137].ratio == Fraction(1, 5)
    assert by_m[138].ratio == Fraction(1, 5)
    assert by_m[137].bound == Fraction(1, 5)
    assert by_m[137].delta == Fraction(1, 5)
    # Oversized entry lists collapse to a summary inside the certificate.
    ev = res.certificate.evidence
    assert "entries" not in ev
    assert ev["entryCount"] == 186945
    assert ev["violations"] == []


def _mixing_oracle(spec, level, shifts):
    """Per-shift brute force: walk the windows, scan every descendant."""

    def owner(mm):
        n, top = level.stage, 0
        while True:
            try:
                top += max(spec.height_set(n))
            except StageUnavailable:
                return None
            if mm <= top:
                return n
            n += 1

    entries = []
    for m in shifts:
        mm = abs(m)
        n = owner(mm) if mm else None
        if n is None:
            note = "zero shift" if m == 0 else "beyond the materialized stages"
            ratio = Fraction(1) if m == 0 else None
            entries.append(MixingEntry(m, None, None, ratio, *[None] * 5, note))
            continue
        values = descendant_heights(spec, level, n + 1)
        vset, top = set(values), spec.height(n + 1) - 1
        inside = sum(1 for f in values if f + mm <= top and f + mm in vset)
        pushed = sum(1 for f in values if f + mm > top)
        ps = partner_shift(spec.height_set(n))
        delta = ps.delta if ps is not None else Fraction(0)
        bound = max(Fraction(1, spec.stage(n).r), delta)
        hyp = spec.stage(n).s[-1] >= max(spec.height_set(n)) + spec.height(n)
        ratio = Fraction(inside, len(values))
        note = None if hyp else "rightmost spacer below clearing height"
        entries.append(
            MixingEntry(m, n, n + 1, ratio, pushed, bound, delta, hyp,
                        hyp and ratio > bound, note)
        )
    return tuple(entries)


@st.composite
def _mixing_cases(draw):
    """A small valid spec, a level, named shifts and an optional window."""
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(2, 4))
        stages.append({"r": r, "s": draw(st.lists(st.integers(0, 12), min_size=r,
                                                   max_size=r))})
    extension = draw(st.sampled_from(["error", "repeat-last"]))
    spec = validate_spec({"h0": draw(st.integers(1, 3)), "stages": stages,
                          "extension": extension})
    stage = draw(st.integers(0, len(stages) - 1))
    level = LevelRef(stage, draw(st.integers(0, spec.height(stage) - 1)))
    reach = sum(max(spec.height_set(n)) for n in range(stage, len(stages)))
    shifts = draw(st.lists(st.integers(-3 * reach, 3 * reach), max_size=40))
    shifts += draw(st.lists(st.sampled_from([0, 1, -1, reach, reach + 1]),
                            max_size=4))
    # A run of consecutive shifts pushes some lists past the 512-entry summary.
    span = draw(st.sampled_from([0, 0, 5, 300]))
    shifts += range(-span, span)
    if extension == "error":
        shifts.append(draw(st.sampled_from([10**6, -(10**6)])))
    shifts = draw(st.permutations(shifts + shifts[:3]))
    # Runs of consecutive shifts across 0 and across ±each window top (the
    # last one leads past the materialized stages under "error"), some
    # descending, some with a duplicate at either end.
    tops = list(itertools.accumulate(max(spec.height_set(n))
                                     for n in range(stage, len(stages))))
    for _ in range(draw(st.integers(0, 4))):
        centre = draw(st.sampled_from([0, *tops, *(-t for t in tops)]))
        run = list(range(centre - draw(st.integers(0, 5)),
                         centre + draw(st.integers(1, 6))))
        if draw(st.booleans()):
            run.reverse()
        shifts += draw(st.sampled_from([[], run[:1]])) + run + draw(
            st.sampled_from([[], run[-1:]]))
    window = draw(st.none() | st.integers(stage, len(stages) - 1))
    return spec, level, shifts, window


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mixing_cases())
# Past 512 entries, with +m and -m tied for the worst ratio.
@example((load_spec(spec_path("mixing_window.json")), LevelRef(0, 0),
          list(range(-300, 300)), None))
# Runs across the window top ±40 and 0, a descending negative stretch,
# duplicates beside runs, and a run past the last materialized stage.
@example((validate_spec({"h0": 1, "stages": [{"r": 3, "s": [9, 29, 41]},
                                             {"r": 2, "s": [3, 0]}]}),
          LevelRef(0, 0),
          [*range(-45, -36), 5, 5, *range(5, 9), 8, *range(-3, 4),
           *range(-40, -50, -1), *range(37, 46), *range(370, 380)], 1))
# 1,000 negative shifts of one row, all ratio 0: the worst entry is the
# least m, -1000.
@example((validate_spec({"h0": 1, "stages": [{"r": 2, "s": [1000, 0]}]}),
          LevelRef(0, 0), list(range(-1000, 0)), None))
# Runs across 0 and the top ±40, duplicates, then the whole window.
@example((load_spec(spec_path("mixing_window.json")), LevelRef(0, 0),
          [-42, *range(-41, -38), 0, 0, 1, 2, *range(30, 45), 7, 7, 6], 0))
# 512 shifts list their entries, 513 give the summary; ±m violate the bound.
@example((validate_spec({"h0": 2, "stages": [{"r": 3, "s": [1, 1, 11]},
                                             {"r": 2, "s": [11, 5]}]}),
          LevelRef(0, 0), list(range(-256, 256)), None))
@example((validate_spec({"h0": 2, "stages": [{"r": 3, "s": [1, 1, 11]},
                                             {"r": 2, "s": [11, 5]}]}),
          LevelRef(0, 0), list(range(-256, 257)), None))
def test_mixing_matches_per_shift_oracle(case):
    spec, level, ms, window = case
    shifts = list(ms)
    if window is not None:
        lo = sum(max(spec.height_set(q)) for q in range(level.stage, window))
        shifts += range(max(1, lo), lo + max(spec.height_set(window)) + 1)
    res = mixing_decay(spec, level, ms, window)
    expected = _mixing_oracle(spec, level, shifts)
    assert res.entries == expected
    # The segments are nonempty ranges, in shift order, that the entries expand.
    assert all(isinstance(r, range) and r for r, _ in res.segments)
    assert [m for r, _ in res.segments for m in r] == [e.m for e in expected]
    assert res.shift_count == len(res.entries)
    in_window = [e for e in expected if e.window is not None]
    assert res.in_window == len(in_window)
    assert res.violation_count == sum(1 for e in in_window if e.violation)
    assert res.violation_count == sum(len(r) for r, row in res.segments if row[7])
    assert res.worst_ratio == max((e.ratio for e in in_window), default=None)
    ev = res.certificate.evidence
    if len(expected) <= 512:
        assert ev == {"entries": list(expected)}
    else:
        assert ev == {
            "entryCount": len(expected),
            "inWindow": len(in_window),
            "firstShift": expected[0].m,
            "lastShift": expected[-1].m,
            "violations": [e for e in in_window if e.violation],
            "worstRatio": max(in_window, key=lambda e: (e.ratio, -e.m), default=None),
            "windows": sorted({e.window for e in in_window}),
        }


def test_mixing_sweep_stores_nothing_per_shift(asymm, monkeypatch):
    # 186,945 shifts over 30 descendants: the sweep keeps runs and segments
    # only, so its peak stays far below one list entry per shift.
    monkeypatch.setenv("RANKLAB_BUDGET", "10000000")
    asymm.height_set(3)  # materialize the stages outside the trace
    tracemalloc.start()
    try:
        res = mixing_decay(asymm, LevelRef(0, 0), window=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.shift_count == 186945
    assert peak < 1_000_000


def test_mixing_deep_window_takes_the_scan_route(chacon, monkeypatch):
    # A few shifts in a window of 729 descendants look their counts up by
    # scanning; a full window counts its pairs once and sorts its cut points.
    made = []

    class Spy(mixing._Window):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((len(self.values), self.cuts is None))

    monkeypatch.setattr(mixing, "_Window", Spy)
    top = sum(max(chacon.height_set(n)) for n in range(6))
    mixing_decay(chacon, LevelRef(0, 0), (top, -top, top - 1))
    assert made == [(729, True)]
    made.clear()
    mixing_decay(chacon, LevelRef(1, 0), window=2)
    # Window 1 (3 values) owns only the range's left edge.
    assert made == [(3, True), (9, False)]


def test_mixing_deep_window_is_refused_before_its_column(chacon, monkeypatch):
    # Window 10 owns ~1.7e8 shifts against 177,147 descendants.  Only the
    # range's left edge, which window 9 owns, gets a column; window 10 is
    # refused before its own is built, with the overlap charge's message.
    # A window charges its column, then its overlaps, then lists the column.
    built, real_listed = [], construction._listed

    def spy(spec, level, j):
        built.append(j)
        return real_listed(spec, level, j)

    monkeypatch.setattr(construction, "_listed", spy)
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded) as info:
        mixing_decay(chacon, LevelRef(0, 0), window=10)
    assert info.value.what == "overlap counts across a shift window"
    assert info.value.units == 29991924739071
    assert built == [10]


def test_mixing_few_shifts_in_a_deep_window(chacon):
    # Three shifts against 729 descendants take the per-shift counting
    # route instead of counting all 265,356 pairs; same entries.
    level = LevelRef(0, 0)
    top = sum(max(chacon.height_set(n)) for n in range(6))
    res = mixing_decay(chacon, level, (top, -top, top - 1))
    assert {e.window for e in res.entries} == {5}
    assert res.entries == _mixing_oracle(chacon, level, (top, -top, top - 1))


# ---------------------------------------------------------------------------
# progression-freeness certificate


def test_npc_chacon_frozen_ratios(chacon):
    cert = npc_certificate(chacon, kappa=13, start=0, horizon=6)
    assert cert.verdict == "holds"
    stmt = {row["stage"]: row["ratio"] for row in cert.evidence["statementRatios"]}
    assert stmt[1] == Fraction(2, 3)
    assert stmt[2] == Fraction(1, 2)
    assert stmt[3] == Fraction(60, 121)
    proof = {row["stage"]: row["ratio"] for row in cert.evidence["proofRatios"]}
    assert proof[0] == 3
    assert proof[1] == 10
    assert proof[2] == Fraction(121, 10)
    assert cert.evidence["proofSup"] == Fraction(121, 10)
    spacing = {row["stage"]: row for row in cert.evidence["spacing"]}
    assert all(row["slack"] == 0 for row in spacing.values())
    assert spacing[1]["heightRatio"] == Fraction(8, 101)
    assert spacing[2]["heightRatio"] == Fraction(10, 121)
    longest = max(row["longest"] for row in cert.evidence["progressions"])
    assert longest == 11


def test_npc_replay_rows_propagate(chacon):
    cert = npc_certificate(chacon, kappa=13, start=1, horizon=5)
    for row in cert.evidence["replay"]:
        assert row["newDiffsClear"] and row["heightDominates"] and row["nextDropBounded"]


@pytest.mark.parametrize("start", [0, 2])
def test_npc_start_stage_set_holds_zero(chacon, start):
    # The start stage has one descendant, so its difference bitset holds bit 0
    # alone: with no differences, 0 would count as new at the next stage.
    base = LevelRef(start, 0)
    values = descendant_heights(chacon, base, start)
    assert descendant_differences(chacon, base, start, values) == 1
    cert = npc_certificate(chacon, kappa=13, start=start, horizon=start + 2)
    above = descendant_heights(chacon, base, start + 1)
    oracle = min(b - a for a in above for b in above if b > a)
    assert cert.evidence["replay"][0]["minNewDifference"] == oracle


@pytest.mark.parametrize(
    "name, start, horizon",
    [("chacon.json", 1, 6), ("chacon.json", 0, 5), ("asymm.json", 0, 3), ("dyadic.json", 0, 6)],
)
def test_npc_min_new_difference_matches_set_difference(name, start, horizon):
    # Bitsets on chacon and dyadic; asymm's sparse stages take the set route,
    # so its rows compare a set with a bitset or two sets.
    spec = load_spec(spec_path(name))
    cert = npc_certificate(spec, kappa=13, start=start, horizon=horizon)
    base = LevelRef(start, 0)
    positive = {}
    for j in range(start, horizon + 1):
        values = descendant_heights(spec, base, j)
        positive[j] = {b - a for a in values for b in values if b > a}
    for row in cert.evidence["replay"]:
        n = row["stage"]
        assert row["minNewDifference"] == min(positive[n + 1] - positive[n], default=None)


def test_npc_finds_progressions_in_odometer(dyadic):
    # Descendant differences of the dyadic odometer fill an interval, so
    # every short progression is present and the verdict must fail.
    cert = npc_certificate(dyadic, kappa=2, start=0, horizon=5)
    assert cert.verdict == "fails"
    assert max(row["longest"] for row in cert.evidence["progressions"]) == 3


def test_npc_parameter_validation(chacon):
    with pytest.raises(ParamOutOfRange):
        npc_certificate(chacon, kappa=1, start=0, horizon=3)
    with pytest.raises(ParamOutOfRange):
        npc_certificate(chacon, kappa=3, start=3, horizon=3)


# ---------------------------------------------------------------------------
# power weak mixing witnesses


@pytest.mark.parametrize(
    "alpha,shifts",
    [
        ((2,), (0, 1)),
        ((-3,), (1, 2)),
        ((2, -3), (0, 1, 2)),
        ((1, 2, 3), (2, 0, 1, 2)),
    ],
)
def test_pwm_identity(tq41, alpha, shifts):
    from ranklab import tq_params_of

    params = tq_params_of(tq41)
    res = pwm_witness(params, alpha, shifts, base_stage=1)
    w = res.match
    base_diff = w.a[0] - w.d[0] - shifts[0]
    for q, mult in enumerate(alpha, start=1):
        assert w.a[q] - w.d[q] == mult * base_diff + shifts[q]
    assert res.certificate.verdict == "holds"
    assert res.beta == Fraction(1, params.t ** ((len(alpha) + 1) * res.tail_stage))


def test_pwm_frozen_case(tq41):
    from ranklab import tq_params_of

    res = pwm_witness(tq_params_of(tq41), (2, -3), (0, 1, 2), base_stage=1)
    assert res.tail_stage == 5
    assert res.beta == Fraction(1, 4**15)
    assert res.gamma == 1


def test_pwm_needs_unit_digit_gap():
    params = TQParams(3, 2, (0, 1))  # digits 0, 2, 4: no two at distance 1
    with pytest.raises(HypothesisUnmet):
        pwm_witness(params, (2,), (0, 0), base_stage=1)


def test_pwm_base_stage_bound(tq41):
    from ranklab import tq_params_of

    with pytest.raises(StageTooLow):
        pwm_witness(tq_params_of(tq41), (2,), (0, 0), base_stage=0)


_TQ41 = TQParams(4, 1, (1,))
_DIGITS = DigitAlphabet(9, (0, 2, 3, 5, 6, 8))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: ProductQuery((1, 0), (0, 0), 0, 2),
         "multipliers must be nonzero integers, got 0"),
        (lambda s: ProductQuery((1, True), (0, 0), 0, 2),
         "multipliers must be nonzero integers, got True"),
        (lambda s: ProductQuery((1, 1), (0, 1.0), 0, 2),
         "shifts must be integers, got 1.0"),
        (lambda s: PatternQuery(2, (0, -1), 0, 2), "move counts must be >= 0, got -1"),
        (lambda s: pwm_witness(_TQ41, (2, 0), (0, 0, 0), 1),
         "multipliers must be nonzero integers, got 0"),
        (lambda s: pwm_witness(_TQ41, (2,), (0, -1), 1),
         "shifts must be integers >= 0, got -1"),
        (lambda s: non_ergodic_check(s, (1, False), (0, 1), 0, 2),
         "multipliers must be nonzero integers, got False"),
        (lambda s: non_ergodic_check(s, (1, 1), (0, "1"), 0, 2),
         "shifts must be integers, got '1'"),
        # A bool is an int to isinstance and compares as 0 or 1.
        (lambda s: gap_count(_DIGITS, True), "digit count must be an integer >= 1, got True"),
        (lambda s: coverage_checks(_DIGITS, 2.0),
         "digit count must be an integer >= 1, got 2.0"),
        (lambda s: sumset_membership(_DIGITS, "3", 3),
         "digit count must be an integer >= 1, got '3'"),
        (lambda s: sumset_membership(_DIGITS, 3, 2.0), "target must be an integer, got 2.0"),
        (lambda s: sumset_membership(_DIGITS, 3, True), "target must be an integer, got True"),
        (lambda s: gamma_search(_DIGITS, (2,), horizon=True),
         "horizon must be an integer >= 1, got True"),
    ],
)
def test_integer_arguments_are_refused_by_value(chacon, call, message):
    with pytest.raises(ParamOutOfRange) as exc:
        call(chacon)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# non-ergodicity certificate


def test_non_ergodic_parity_obstruction(all_but_last):
    cert = non_ergodic_check(all_but_last, (1, 1), (0, 1), 0, 5)
    assert cert.verdict == "fails"
    assert cert.evidence["scope"] == "structural"
    obs = cert.evidence["obstruction"]
    assert obs == {"coordinate": 1, "value": -1, "label": "parity"}
    assert cert.evidence["divisor"] % 2 == 0
    for row in cert.evidence["growth"]:
        assert row["ok"], row
    for row in cert.evidence["stages"]:
        assert row["fraction"] == 0
        assert row["route"].endswith("+structural")


def test_non_ergodic_equal_shifts_vacuous(all_but_last):
    cert = non_ergodic_check(all_but_last, (1, 1), (1, 1), 0, 5)
    assert cert.verdict == "inconclusive"
    assert "note" in cert.evidence


def test_non_ergodic_budget_rows_are_recorded(all_but_last, monkeypatch):
    # (1, 2) with even shifts dodges the parity obstruction, so the verdict
    # has to come from the scans -- which the tiny budget forces to skip.
    monkeypatch.setenv("RANKLAB_BUDGET", "10")
    cert = non_ergodic_check(all_but_last, (1, 2), (0, 2), 0, 2)
    assert cert.evidence["stages"], "expected at least one stage row"
    assert all("skipped" in row for row in cert.evidence["stages"])
    assert cert.verdict == "inconclusive"
    # A stage whose descendant set alone is over the budget stays a row too.
    monkeypatch.setenv("RANKLAB_BUDGET", "5")
    rows = non_ergodic_check(all_but_last, (1, 2), (0, 2), 0, 2).evidence["stages"]
    assert [(row["stage"], row["tuples"]) for row in rows] == [(1, 9), (2, 81)]
    assert "descendant set at stage 2" in rows[1]["skipped"]


@st.composite
def _small_specs(draw):
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(2, 4))
        stages.append({"r": r, "s": draw(st.lists(st.integers(0, 9), min_size=r,
                                                   max_size=r))})
    return validate_spec({"h0": draw(st.integers(1, 3)), "stages": stages})


def _pair_singles(values):
    """Positive differences that one pair of ``values`` alone realizes, by a Counter."""
    counts = Counter(b - a for a, b in itertools.combinations(values, 2))
    return sum(c == 1 for c in counts.values())


@settings(max_examples=60, deadline=None)
@given(_small_specs().flatmap(lambda spec: st.tuples(
    st.just(spec), st.just(LevelRef(0, 0)), st.integers(0, len(spec.explicit_stages())))),
    st.booleans())
@example((load_spec(spec_path("asymm.json")), LevelRef(1, 0), 2), True)  # pairwise
@example((load_spec(spec_path("asymm.json")), LevelRef(0, 0), 3), False)  # pairwise
@example((load_spec(spec_path("chacon.json")), LevelRef(1, 2), 5), True)
@example((load_spec(spec_path("chacon.json")), LevelRef(1, 2), 5), False)
def test_single_differences_match_pair_counter(case, fits):
    # conservativity 1,1 counts every ordered pair but the two of each
    # single difference, from the planes or, forced past their rule, from
    # the half Counter; 0 is single only on one value.
    spec, level, j = case
    values = descendant_heights(spec, level, j)
    v = len(values)
    with mock.patch.object(sumsets, "_planes_fit", lambda *args: fits):
        matched = _pair_slides(spec, level, j, values, (1, 1), (0, 0))
    assert matched == v * v - 2 * _pair_singles(values) - (v == 1)


@settings(max_examples=60, deadline=None)
@given(_small_specs(), st.sampled_from([1, -1]), st.booleans(), st.data())
def test_anchored_difference_counts_match_keys(spec, alpha, fits, data):
    # A group of anchored keys is the ordered pairs at one difference, so
    # every pair off the diagonal matches but those a difference holds alone.
    j = data.draw(st.integers(1, len(spec.explicit_stages())))
    base = LevelRef(0, 0)
    values = descendant_heights(spec, base, j)
    matched, diagonal = _anchored_matched(values, alpha, 2)
    counts = descendant_differences(spec, base, j, values, counted=True)
    singles = _pair_singles(values)
    assert singles == sum(c == 1 for d, c in counts.items() if d)
    v = len(values)
    assert diagonal * v + v * (v - 1) - 2 * singles == matched
    with mock.patch.object(sumsets, "_planes_fit", lambda *args: fits):
        assert _pair_slides(spec, base, j, values, (alpha, alpha), (0, 0)) == matched
        rows = conservativity_fraction(
            spec, ProductQuery((alpha, alpha), (0, 0), 0, j)
        )[1].evidence["stages"]
    assert (rows[-1]["matched"], rows[-1]["diagonalFraction"]) == (matched, diagonal)


@settings(max_examples=60, deadline=None)
@given(_small_specs(), st.tuples(st.integers(0, 12), st.integers(0, 12)))
@example(validate_spec({"h0": 2, "stages": [{"r": 3, "s": [0, 1, 2]}, {"r": 2, "s": [1, 0]}]}),
         (10**12, 0))  # far past every difference: no plane is shifted that far
def test_non_ergodic_difference_counts_match_slide_scan(spec, shifts):
    horizon = len(spec.explicit_stages())
    cert = non_ergodic_check(spec, (1, 1), shifts, 0, horizon)
    for row in cert.evidence.get("stages", []):
        assert row["route"].startswith("difference-counts")
        values = descendant_heights(spec, LevelRef(0, 0), row["stage"])
        assert row["matched"] == _slide_scan(values, (1, 1), shifts)


def test_non_ergodic_chacon_is_not_refuted(chacon):
    # The infinite Chacon realizes shifts freely; no obstruction, nonzero
    # fractions, so the certificate must stay inconclusive.
    cert = non_ergodic_check(chacon, (1, 1), (0, 1), 0, 4)
    assert cert.verdict == "inconclusive"
    assert "obstruction" not in cert.evidence
    assert any(row["fraction"] > 0 for row in cert.evidence["stages"])


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


def _slide_oracle(values, alphas, shifts, nonzero):
    """Tuples with some n (nonzero if asked) putting every a - n*alpha - b in the set."""
    vset = set(values)
    reach = max(values) - min(values) + max(map(abs, shifts)) + 1
    return sum(
        1
        for tup in itertools.product(values, repeat=len(alphas))
        if any(
            all(a - n * al - b in vset for a, al, b in zip(tup, alphas, shifts))
            for n in range(-reach, reach + 1)
            if n or not nonzero
        )
    )


@settings(max_examples=40, deadline=None)
@given(
    stages=st.lists(
        st.integers(2, 3).flatmap(
            lambda r: st.lists(st.integers(0, 6), min_size=r, max_size=r)
        ),
        min_size=2, max_size=2,
    ),
    alphas=st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), min_size=2, max_size=3),
    shifts=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
@example(stages=[[0, 1, 0], [2, 0, 1]], alphas=[1, 1, 2], shifts=[1, 1, 2])
@example(stages=[[0, 0], [1, 3]], alphas=[2, -1, 2], shifts=[2, -1, 2])
@example(stages=[[0, 1, 0], [2, 0, 1]], alphas=[-2, -2, -2], shifts=[0, 1, 0])  # classes of 2, 3, 6
def test_slide_scans_match_brute_force(stages, alphas, shifts):
    # Both scan routes share one slide scan: conservativity skips only the
    # identity slide n = 0, non-ergodic with unequal shifts skips nothing.
    # Multipliers may repeat and be negative; shifts may repeat unless all
    # are equal, which non-ergodic answers without a scan.  Equal multipliers
    # keep the anchored route's name and its diagonal, a class count that
    # the anchored keys' dict confirms.
    spec = validate_spec({"stages": [{"r": len(s), "s": s} for s in stages]})
    base = LevelRef(0, 0)
    zero, b = (0,) * len(alphas), tuple(shifts[: len(alphas)])
    equal = len(set(alphas)) == 1
    _, cert = conservativity_fraction(spec, ProductQuery(tuple(alphas), zero, 0, 2))
    for row in cert.evidence["stages"]:
        values = descendant_heights(spec, base, row["stage"])
        assert row["route"] == ("anchored" if equal else "scan")
        assert row["matched"] == _slide_oracle(values, alphas, zero, nonzero=True)
        if equal:
            want = _anchored_matched(values, alphas[0], len(alphas))
            assert (row["matched"], row["diagonalFraction"]) == want
    cert = non_ergodic_check(spec, alphas, b, 0, 2)
    for row in cert.evidence.get("stages", []):
        values = descendant_heights(spec, base, row["stage"])
        assert row["route"].startswith("difference-counts" if alphas == [1, 1] else "scan")
        assert row["matched"] == _slide_oracle(values, alphas, b, nonzero=False)


@settings(max_examples=80, deadline=None)
@given(
    values=st.sets(st.integers(-12, 30), min_size=1, max_size=8).map(sorted),
    alphas=st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), min_size=1, max_size=3),
    shifts=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
@example(values=[0, 1, 2, 4], alphas=[1, 2], shifts=[0, 0, 0])  # positions
@example(values=[-12, 0, 30], alphas=[2, -3, 1], shifts=[1, 0, -1])  # ranks
def test_slide_scan_matches_brute_force_on_any_value_set(values, alphas, shifts):
    b = tuple(shifts[: len(alphas)])
    want = _slide_oracle(values, alphas, b, nonzero=not any(b))
    assert _slide_scan(values, tuple(alphas), b) == want


def _spec_of(values):
    """A one-stage spec whose stage-1 descendants of level 0 are ``values`` less their least."""
    gaps = [b - a - 1 for a, b in zip(values, values[1:])] or [0]
    return validate_spec({"stages": [{"r": len(gaps) + 1, "s": gaps + [0]}]})


@settings(max_examples=150, deadline=None)
@given(
    values=st.sets(st.integers(-12, 30), min_size=1, max_size=9).map(sorted),
    alphas=st.sampled_from(_MULTIPLIER_PAIRS),
    shifts=st.sampled_from([(0, 0)]) | st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    fits=st.booleans(),
)
@example(values=[0, 1, 2, 4], alphas=(2, 4), shifts=(0, 0), fits=True)  # not coprime
@example(values=[-12, 0, 30], alphas=(6, 4), shifts=(1, -1), fits=True)
@example(values=[-12, 0, 30], alphas=(6, 4), shifts=(1, -1), fits=False)
@example(values=[0, 3, 6, 7], alphas=(-3, -3), shifts=(0, 0), fits=True)  # one class of three
@example(values=[0, 1], alphas=(1, 2), shifts=(10**12, 0), fits=True)  # far past every key
def test_key_slides_match_slide_scan_on_any_value_set(values, alphas, shifts, fits):
    # A translation of the values moves every key and class alike, so the
    # pair slides of a one-stage spec whose descendants are ``values`` less
    # their least, from the planes or forced past their rule, match the slide
    # scan and brute force on ``values``; with equal multipliers, also the
    # anchored keys' matched count and diagonal.
    spec, base, j = _spec_of(values), LevelRef(0, 0), int(len(values) > 1)
    heights = descendant_heights(spec, base, j)
    assert heights == tuple(a - values[0] for a in values)
    anchored = alphas[0] == alphas[1] and not any(shifts) and j
    with mock.patch.object(sumsets, "_planes_fit", lambda *args: fits):
        matched = _pair_slides(spec, base, j, heights, alphas, shifts)
        if anchored:
            _, cert = conservativity_fraction(spec, ProductQuery(alphas, shifts, 0, j))
    assert matched == _slide_scan(values, alphas, shifts)
    if abs(shifts[0]) < 100:
        assert matched == _slide_oracle(values, alphas, shifts, nonzero=not any(shifts))
    if anchored:
        row = cert.evidence["stages"][-1]
        want = _anchored_matched(values, alphas[0], 2)
        assert (row["matched"], row["diagonalFraction"]) == want == (matched, want[1])


@settings(max_examples=150, deadline=None)
@given(
    spec=_small_specs(),
    alphas=st.sampled_from(_MULTIPLIER_PAIRS),
    shifts=st.sampled_from([(0, 0)]) | st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    fits=st.booleans(),
    data=st.data(),
)
@example(spec=validate_spec({"stages": [{"r": 4, "s": [0, 0, 1, 0]}]}), alphas=(2, 4),
         shifts=(0, 0), fits=True, data=None)  # not coprime
@example(spec=validate_spec({"h0": 2, "stages": [{"r": 3, "s": [7, 0, 0]}]}), alphas=(6, 4),
         shifts=(1, -1), fits=False, data=None)
@example(spec=validate_spec({"h0": 3, "stages": [{"r": 3, "s": [0, 0, 0]}]}), alphas=(-3, -3),
         shifts=(0, 0), fits=True, data=None)  # one class of three
@example(spec=validate_spec({"stages": [{"r": 2, "s": [0, 0]}]}), alphas=(1, 2),
         shifts=(10**12, 0), fits=True, data=None)  # far past every key
@example(spec=validate_spec({"stages": [{"r": 3, "s": [0, 0, 8]}]}), alphas=(-3, -3),
         shifts=(1, 5), fits=True, data=None)  # b0 = 1 moves a class of 3
@example(spec=validate_spec({"stages": [{"r": 2, "s": [0, 0]}]}), alphas=(-1, -1),
         shifts=(1, 0), fits=False, data=None)  # the half Counter, shifted
@example(spec=validate_spec({"stages": [{"r": 2, "s": [0, 0]}]}), alphas=(1, 1),
         shifts=(0, 0), fits=False, data=None)  # 0 is no single difference
def test_pair_slides_match_slide_scan_and_oracle(spec, alphas, shifts, fits, data):
    # Pairs that differ by a slide share the key q*a - p*b and the class of
    # a mod |alpha_0|.  The planes and, forced past their rule, the pairs
    # (a half Counter for ±1,±1, a Counter of keys and classes else) match
    # the slide scan and brute force; with equal multipliers, also the
    # anchored keys' matched count and diagonal.
    j = data.draw(st.integers(0, len(spec.explicit_stages()))) if data else 1
    base = LevelRef(0, 0)
    values = descendant_heights(spec, base, j)
    anchored = alphas[0] == alphas[1] and not any(shifts) and j
    with mock.patch.object(sumsets, "_planes_fit", lambda *args: fits):
        matched = _pair_slides(spec, base, j, values, alphas, shifts)
        if anchored:
            _, cert = conservativity_fraction(spec, ProductQuery(alphas, shifts, 0, j))
    assert matched == _slide_scan(values, alphas, shifts)
    if abs(shifts[0]) < 100:
        assert matched == _slide_oracle(values, alphas, shifts, nonzero=not any(shifts))
    if anchored:
        row = cert.evidence["stages"][-1]
        want = _anchored_matched(values, alphas[0], 2)
        assert (row["matched"], row["diagonalFraction"]) == want == (matched, want[1])


def test_slide_scan_rows_on_chacon(chacon):
    _, cert = conservativity_fraction(chacon, ProductQuery((1, 2), (0, 0), 0, 4))
    rows = cert.evidence["stages"]
    assert [row["matched"] for row in rows] == [2, 50, 612, 6178]
    assert {row["route"] for row in rows} == {"scan"}
    rows = non_ergodic_check(chacon, (1, 2), (0, 1), 0, 3).evidence["stages"]
    assert [row["matched"] for row in rows] == [5, 68, 691]
    assert {row["route"] for row in rows} == {"scan"}


# ---------------------------------------------------------------------------
# asymmetry statistic


def test_asymmetry_chacon_frozen(chacon):
    res = asymmetry_statistic(chacon, base_stage=1, scale_stage=1, eval_stage=8)
    assert res.zero_side.confirmed == 0
    assert res.zero_side.upper == Fraction(2, 6561)
    assert res.forward_side.confirmed == Fraction(1, 9)
    assert res.forward_side.upper == Fraction(730, 6561)
    assert res.adjacency_free
    assert res.zero_exact
    assert res.certificate.verdict == "holds"
    ev = res.certificate.evidence
    assert ev["forwardRelativeConfirmed"] == Fraction(1, 3)
    assert ev["zeroRelativeUpper"] == 0
    assert all(row["adjacentPairs"] == 0 for row in ev["adjacency"])


def test_asymmetry_lists_nothing_above_the_block_stage(chacon, monkeypatch):
    # Both brackets read the blocks of stage 2, the least stage whose height
    # (50) exceeds the shift 2 * h_1 + 1 = 17, and the adjacency rows follow
    # a recurrence; yet the budget sees the charge of the last row's listing,
    # which no charge of a smaller row could add to.
    charges, listed, heights = [], [], []
    real_listed = construction._listed
    for module in (_budget, construction):
        monkeypatch.setattr(module, "charge", lambda units, what: charges.append((units, what)))
    monkeypatch.setattr(construction, "descendant_heights", lambda *args: heights.append(args))
    monkeypatch.setattr(
        construction, "_listed",
        lambda spec, level, j: listed.append(j) or real_listed(spec, level, j),
    )
    res = asymmetry_statistic(chacon, base_stage=1, scale_stage=1, eval_stage=5)
    assert heights == []
    assert listed == [2, 2]
    assert charges == [(81, "descendant set at stage 5")]
    monkeypatch.undo()
    assert res.zero_side == intersection_measure(chacon, LevelRef(1, 0), (0, 9, 17), 5)
    assert res.forward_side == intersection_measure(chacon, LevelRef(1, 0), (0, 8, 17), 5)


def _bracket_by_listing(spec, level, exponents, j):
    """The per-descendant loop: every ``e - m`` tried against the listed descendants."""
    dset = set(descendant_heights(spec, level, j))
    shifts = [m - min(exponents) for m in exponents]
    h_j = spec.height(j)
    confirmed = unresolved = 0
    for e in dset:
        out_of_range = failed = False
        for m in shifts:
            t = e - m
            if t < 0 or t > h_j - 1:
                out_of_range = True
            elif t not in dset:
                failed = True
                break
        if failed:
            continue
        if out_of_range:
            unresolved += 1
        else:
            confirmed += 1
    w = spec.level_width(j)
    return MeasureInterval(confirmed * w, unresolved * w)


def _levels_and_stages(spec):
    """A level of any height at a stage of ``spec``, and a stage at or after it."""
    last = len(spec.explicit_stages())
    return st.integers(0, last).flatmap(lambda b: st.tuples(
        st.integers(0, spec.height(b) - 1).map(lambda e: LevelRef(b, e)),
        st.integers(b, last)))


def _bracket_cases(spec):
    """``(spec, level, exponents, j)`` with 1-6 exponents within a column height of ``j``."""
    def exponents(case):
        level, j = case
        heights = [spec.height(n) for n in range(level.stage, j + 1)]
        return st.sampled_from([*heights, 3 * heights[-1]]).flatmap(
            lambda reach: st.lists(st.integers(-reach, reach), min_size=1, max_size=6))

    return _levels_and_stages(spec).flatmap(
        lambda case: exponents(case).map(lambda exps: (spec, case[0], exps, case[1])))


@settings(max_examples=200, deadline=None)
@given(_small_specs().flatmap(_bracket_cases))
@example((load_spec(spec_path("chacon.json")), LevelRef(1, 0), (0, 9, 17), 6))
@example((load_spec(spec_path("chacon.json")), LevelRef(1, 0), (0, 8, 17), 6))
@example((load_spec(spec_path("chacon.json")), LevelRef(0, 0), (0, 4, 7), 2))  # 1 of 2 lands
@example((load_spec(spec_path("dyadic.json")), LevelRef(0, 0), (0, 1), 4))  # deeper gaps
@example((load_spec(spec_path("tq41.json")), LevelRef(1, 3), (-4, 2, 2, 30), 3))
def test_block_brackets_match_the_listing(case):
    # Any level, stage and 1-6 exponents: negative, repeated, or shifts at
    # or past h_j, which leave no earlier block stage (k = j).
    spec, level, exps, j = case
    assert intersection_measure(spec, level, exps, j) == _bracket_by_listing(spec, level, exps, j)


def test_intersection_measure_charges_the_listing_it_skips(chacon, monkeypatch):
    charges = []
    monkeypatch.setattr(construction, "charge", lambda units, what: charges.append((units, what)))
    intersection_measure(chacon, LevelRef(1, 0), (0, 9, 17), 5)
    assert charges == [(81, "descendant set at stage 5")]


def test_adjacency_recurrence_counts_joined_copies():
    # Consecutive copies join where their offsets differ by span + 1: twice
    # at stage 1 (H_0 = 0, 1, 2; span 0), once at stage 2 (H_1 = 0, 3; span
    # 2) and never at stage 3 (H_2 = 0, 7, 14; span 5): 2, 2*2 + 1, 3*5 + 0.
    spec = validate_spec({"h0": 1, "stages": [
        {"r": 3, "s": [0, 0, 0]}, {"r": 2, "s": [0, 1]}, {"r": 3, "s": [0, 0, 2]}]})
    assert _adjacent_pairs(spec, LevelRef(0, 0), 3) == [0, 2, 5, 15]


@settings(max_examples=100, deadline=None)
@given(_small_specs(), st.data())
def test_adjacency_recurrence_matches_the_listing(spec, data):
    level, j = data.draw(_levels_and_stages(spec))
    want = []
    for n in range(level.stage, j + 1):
        vset = set(descendant_heights(spec, level, n))
        want.append(sum(x + 1 in vset for x in vset))
    assert _adjacent_pairs(spec, level, j) == want


@settings(max_examples=100, deadline=None)
@given(_small_specs(), st.data(), st.integers(1, 40))
def test_residue_histogram_matches_the_listing(spec, data, m):
    # Grown one stage at a time from the level itself, as conservativity does.
    level, j = data.draw(_levels_and_stages(spec))
    counts = {level.height % m: 1}
    for n in range(level.stage, j):
        counts = _grown(counts, spec.height_set(n), m)
    assert counts == Counter(v % m for v in descendant_heights(spec, level, j))


def test_asymmetry_stage_guards(chacon):
    with pytest.raises(StageTooLow):
        asymmetry_statistic(chacon, 0, 1, 3)
    with pytest.raises(StageTooLow):
        asymmetry_statistic(chacon, 2, 1, 3)
    with pytest.raises(StageTooLow):
        asymmetry_statistic(chacon, 1, 2, 2)


def test_certificates_pin_their_spec(chacon):
    _, cert = conservativity_fraction(chacon, ProductQuery((1, 1), (0, 0), 0, 2))
    assert cert.spec_fingerprint == spec_fingerprint(chacon)
