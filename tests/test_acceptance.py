"""Acceptance sweep: one test (and one pass/fail line) per numbered criterion.

Each test enforces the stated tolerance exactly and its wall-clock budget;
run with ``-v`` to see the per-criterion pass/fail lines.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import spec_path
from ranklab import (
    AsymmParams,
    LevelRef,
    PatternQuery,
    ProductQuery,
    admissible_alphabets,
    asymm_stage_sets,
    asymmetry_statistic,
    conservativity_fraction,
    coverage_checks,
    descendant_heights,
    ergodic_matching,
    fingerprint,
    gamma_search,
    gap_count,
    level_width,
    mixing_decay,
    non_ergodic_check,
    npc_certificate,
    pattern_measure,
    pwm_witness,
    separation_check,
    sumset_membership,
    tq_params_of,
    validate_report,
    verify_match_witness,
)
from ranklab.cli import run
from ranklab.digits import DigitAlphabet
from ranklab.oracles import ap_search, column_stats, exhaustive_matches


class _Clock:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, num: int, detail: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, (
            f"criterion {num}: over time budget ({elapsed:.1f}s >= {self.budget}s)"
        )
        print(f"criterion {num:02d}: PASS — {detail} ({elapsed:.2f}s)")


def test_criterion_01_construction_suite(chacon, tq41, dyadic, all_but_last):
    clock = _Clock(5.0)
    checked = 0
    for spec in (chacon, tq41, dyadic, all_but_last):
        # Height recursion, exactly, through stage 8.
        for n in range(8):
            st = spec.stage(n)
            assert spec.height(n + 1) == st.r * spec.height(n) + sum(st.s)
        # Descendant counts and the stagewise sumset recursion.
        values = (0,)
        for j in range(1, 5):
            offsets = spec.height_set(j - 1)
            expected = tuple(sorted(d + o for d in values for o in offsets))
            values = descendant_heights(spec, LevelRef(0, 0), j)
            assert values == expected
            assert len(values) == len(set(values))
            cuts = 1
            for q in range(j):
                cuts *= spec.stage(q).r
            assert len(values) == cuts
        # Measure bookkeeping: restacking conserves mass plus spacers.
        prev = None
        cuts = 1
        for n in range(9):
            cs = column_stats(spec, n)
            assert cs.total_measure == cs.height * cs.level_width
            if prev is not None:
                st = spec.stage(n - 1)
                assert cs.total_measure == prev.total_measure + sum(st.s) * cs.level_width
                assert prev.level_width == cs.level_width * st.r
                cuts *= st.r
                assert level_width(spec, LevelRef(n, 0)) * cuts == level_width(
                    spec, LevelRef(0, 0)
                )
            prev = cs
        checked += 1
    clock.done(1, f"{checked} constructions, stages <= 8, exact")


def test_criterion_02_coverage_sweep():
    clock = _Clock(60.0)
    pairs = 0
    for k in range(2, 12):
        for alpha in admissible_alphabets(k):
            for n in range(1, 4):
                cc = coverage_checks(alpha, n)
                assert cc.passed, (alpha.k, alpha.digits, n, cc.failures)
                pairs += 1
    assert pairs == 231 * 3
    clock.done(2, f"{pairs} (alphabet, digits) cases, zero counterexamples")


def test_criterion_03_gap_count_oracle():
    clock = _Clock(30.0)
    gc = gap_count(DigitAlphabet(9, (0, 2, 3, 5, 6, 8)), 3)
    assert gc.recursion == (1, 4, 13)
    assert gc.brute == 13
    assert gc.matches

    rng = random.Random(20260814)
    pool = [
        a
        for k in range(3, 14)
        for a in admissible_alphabets(k)
        if a.has_unit_diff
    ]
    sampled = rng.sample(pool, 20)
    for alpha in sampled:
        for n in range(1, 4):
            assert gap_count(alpha, n).matches, (alpha.k, alpha.digits, n)
    clock.done(3, "named alphabet (1,4,13) plus 20 random alphabets, exact")


def test_criterion_04_membership_dp_oracle():
    clock = _Clock(60.0)
    targets = 0
    for k in range(2, 10):
        for alpha in admissible_alphabets(k):
            # Membership works over signed digit differences; enumerate the
            # reachable values one digit position at a time.
            diffs = sorted({a - b for a in alpha.digits for b in alpha.digits})
            diff_set = set(diffs)
            reachable = {0}
            scale = 1
            for n in range(1, 5):
                reachable = {v + c * scale for v in reachable for c in diffs}
                scale *= k
                cap = k**n - 1
                for target in range(-cap, cap + 1):
                    digits = sumset_membership(alpha, n, target)
                    assert (digits is not None) == (target in reachable), (
                        alpha.digits, n, target,
                    )
                    if digits is not None:
                        assert len(digits) == n
                        assert all(c in diff_set for c in digits)
                        assert sum(c * k**i for i, c in enumerate(digits)) == target
                    targets += 1
                for target in (-(cap + 1), cap + 1):
                    assert sumset_membership(alpha, n, target) is None
    clock.done(4, f"{targets} membership targets against enumeration, exact")


def test_criterion_05_gamma_and_pwm_witnesses(tq41):
    clock = _Clock(30.0)
    params = tq_params_of(tq41)
    gw = gamma_search(params.alphabet, (2, 3))
    assert (gw.n, gw.m, gw.gamma) == (1, 1, 1)

    witnesses = 0
    for alpha in ((2,), (-3,), (2, -3), (1, 2, 3)):
        coords = len(alpha) + 1
        for shifts in itertools.product((0, 1, 2), repeat=coords):
            for base in (1, 2):
                res = pwm_witness(params, alpha, shifts, base_stage=base)
                w = res.match
                verify_match_witness(tq41, w)
                base_diff = w.a[0] - w.d[0] - shifts[0]
                for q, mult in enumerate(alpha, start=1):
                    assert w.a[q] - w.d[q] == mult * base_diff + shifts[q]
                witnesses += 1
    assert witnesses == (9 + 9 + 27 + 81) * 2
    clock.done(5, f"gamma (1,1,1); {witnesses} witnesses verified exactly")


def test_criterion_06_conservativity_fraction(chacon):
    clock = _Clock(60.0)
    values = descendant_heights(chacon, LevelRef(0, 0), 2)
    vset = set(values)
    brute = sum(
        1
        for a in values
        for b in values
        if any(n != 0 and (b - n) in vset for n in (a - d for d in vset))
    )
    assert brute == 65 and len(values) ** 2 == 81

    _, cert2 = conservativity_fraction(chacon, ProductQuery((1, 1), (0, 0), 0, 2))
    at_2 = cert2.evidence["stages"][-1]
    assert at_2["stage"] == 2 and at_2["fraction"] == Fraction(65, 81)

    _, cert6 = conservativity_fraction(chacon, ProductQuery((1, 1), (0, 0), 0, 6))
    at_6 = cert6.evidence["stages"][-1]
    assert at_6["stage"] == 6 and at_6["fraction"] >= Fraction(9, 10)
    clock.done(6, "65/81 at stage 2 (brute-matched); >= 9/10 at stage 6")


def test_criterion_07_ap_certificates(chacon):
    clock = _Clock(120.0)
    res = ap_search(descendant_heights(chacon, LevelRef(1, 0), 3), 14)
    assert res.runs[42] == 2  # the pair {42, 84}

    for base in (0, 1, 2):
        for j in range(base + 1, base + 7):
            values = descendant_heights(chacon, LevelRef(base, 0), j)
            assert ap_search(values, 14).longest < 14, (base, j)

    cert = npc_certificate(chacon, kappa=13, start=0, horizon=6)
    statement = {r["stage"]: r["ratio"] for r in cert.evidence["statementRatios"]}
    proof = {r["stage"]: r["ratio"] for r in cert.evidence["proofRatios"]}
    assert statement[3] == Fraction(60, 121)
    assert proof[2] == Fraction(121, 10)
    clock.done(7, "pair at 42; no 14-term runs; ratios 60/121 and 121/10")


def test_criterion_08_non_ergodicity_necessity(all_but_last):
    clock = _Clock(30.0)
    # Growth h_n >= maxD + 2 through stage 12; the cumulative-max identity
    # is cross-checked against true enumeration while that is affordable.
    max_d = 0
    for n in range(1, 13):
        max_d += max(all_but_last.height_set(n - 1))
        if n <= 6:
            assert max_d == max(descendant_heights(all_but_last, LevelRef(0, 0), n))
        assert all_but_last.height(n) >= max_d + 2, n

    cert = non_ergodic_check(all_but_last, (1, 1), (0, 1), 0, 5)
    assert cert.verdict == "fails"
    assert cert.evidence["obstruction"]["label"] == "parity"
    rows = cert.evidence["stages"]
    assert [r["stage"] for r in rows] == [1, 2, 3, 4, 5]
    assert all(r["fraction"] == 0 for r in rows)
    clock.done(8, "growth to stage 12; fraction 0 at stages 1..5 with parity")


def test_criterion_09_inverse_asymmetry(chacon):
    clock = _Clock(60.0)
    base, scale, eval_stage = 1, 1, 8
    assert eval_stage - base >= 5
    mu = level_width(chacon, LevelRef(base, 0))
    res = asymmetry_statistic(chacon, base, scale, eval_stage)
    assert res.zero_side.upper <= mu / 100
    assert res.adjacency_free and res.zero_exact
    assert res.zero_side.confirmed == 0
    assert res.forward_side.confirmed >= mu / 3
    assert abs(res.forward_side.upper / mu - Fraction(1, 3)) <= Fraction(1, 20)
    clock.done(9, "zero side exact 0 (<= mu/100 raw); forward in [1/3, 1/3+0.05]")


def test_criterion_10_symmetric_matching(chacon):
    clock = _Clock(60.0)
    two = 0
    for shifts in itertools.product((0, 1, 2), repeat=2):
        query = ProductQuery((1, -1), shifts, 1, 3)
        res = ergodic_matching(chacon, query)
        matches = exhaustive_matches(chacon, query)
        tuples = len(descendant_heights(chacon, LevelRef(1, 0), 3)) ** 2
        assert res.fraction == Fraction(len(matches), tuples)
        assert len({d for d, _ in matches.values()}) == len(matches)
        for a, (d, residual) in matches.items():
            for l, power in enumerate((1, -1)):
                assert a[l] - d[l] - shifts[l] == power * residual
        if res.witness is not None:
            verify_match_witness(chacon, res.witness)
            two += 1
    assert two > 0

    three = 0
    for shifts in itertools.product((0, 1, 2), repeat=3):
        res = ergodic_matching(chacon, ProductQuery((1, 1, -1), shifts, 1, 4))
        if res.witness is not None:
            verify_match_witness(chacon, res.witness)
            three += 1
    assert three > 0
    spot = ProductQuery((1, 1, -1), (0, 1, 2), 1, 4)
    assert ergodic_matching(chacon, spot).fraction == Fraction(
        len(exhaustive_matches(chacon, spot)), 27**3
    )

    pat = pattern_measure(chacon, PatternQuery(2, (0, 1), 1, 3))
    assert pat.matched.confirmed == Fraction(1, 9)
    assert pat.bound == Fraction(1, 16)
    assert pat.matched.confirmed >= pat.bound
    clock.done(
        10,
        f"(+,-) exhaustive x9 injective; (+,+,-) {three} witnesses; pattern 1/9 >= 1/16",
    )


def test_criterion_11_mixing_decay(asymm, mixing_window):
    clock = _Clock(60.0)
    # The generated spec really is separated, stage by stage.
    params = AsymmParams(k=2, p=3, prefix_stages=6, separation_factor=2)
    h = 1
    for n in range(4):
        st = asymm_stage_sets(params, n, h)
        sep = separation_check(st.heights, h, params.separation_factor, st.restricted)
        assert sep.passed, n
        assert tuple(sorted(st.heights)) == asymm.height_set(n)
        h = 2 * (max(st.heights) + h)

    res = mixing_decay(asymm, LevelRef(0, 0), window=0)
    assert res.verdict == "holds"
    assert len(res.entries) == 16
    for e in res.entries:
        assert e.ratio <= e.bound, e.m

    named = mixing_decay(mixing_window, LevelRef(0, 0), ms=(10, 40))
    assert all(e.ratio == Fraction(1, 3) == e.bound for e in named.entries)
    assert named.verdict == "holds"
    clock.done(11, "full window of 16 shifts under bound; 1/3 attained on {0,10,40}")


def _cli_runs() -> list[tuple[str, ...]]:
    chacon = spec_path("chacon.json")
    tq41 = spec_path("tq41.json")
    abl = spec_path("all_but_last.json")
    mixing = spec_path("mixing_window.json")
    return [
        ("validate", "--spec", chacon),
        ("heights", "--spec", chacon, "--stages", "4"),
        ("descendants", "--spec", chacon, "--base", "1:0", "--to", "3"),
        ("diffset", "--spec", chacon, "--base", "1:0", "--to", "2"),
        ("ap", "--spec", chacon, "--base", "1:0", "--to", "3", "--max-len", "14"),
        ("partners", "--spec", chacon, "--stage", "1"),
        ("membership", "--spec", tq41, "--digits", "3", "--target", "42"),
        ("gaps", "--k", "9", "--alphabet", "0,2,3,5,6,8", "--digits", "3"),
        ("coverage", "--spec", tq41, "--digits", "3"),
        ("gamma", "--spec", tq41, "--multipliers", "2,3"),
        ("conservativity", "--spec", chacon, "--multipliers", "1,1",
         "--base", "0", "--horizon", "2"),
        ("ergodic-match", "--spec", chacon, "--multipliers", "1,-1",
         "--shifts", "0,1", "--base", "1", "--horizon", "2"),
        ("pattern", "--spec", chacon, "--moves", "0,1", "--base", "1",
         "--cutoff", "3"),
        ("mixing", "--spec", mixing, "--base", "0:0", "--shifts", "0,10,40"),
        ("npc", "--spec", chacon, "--kappa", "13", "--horizon", "6"),
        ("pwm", "--spec", tq41, "--alpha", "2,-3", "--shifts", "0,1,2",
         "--base", "1"),
        ("non-ergodic", "--spec", abl, "--alpha", "1,1", "--shifts", "0,1",
         "--base", "0", "--horizon", "5"),
        ("asymmetry", "--spec", chacon, "--base", "1", "--scale", "1",
         "--eval", "8"),
    ]


def test_criterion_12_cli_determinism(tmp_path, capsys):
    clock = _Clock(60.0)
    runs = _cli_runs()
    assert sorted(argv[0] for argv in runs) == sorted(
        [
            "validate", "heights", "descendants", "diffset", "ap", "partners",
            "membership", "gaps", "coverage", "gamma", "conservativity",
            "ergodic-match", "pattern", "mixing", "npc", "pwm", "non-ergodic",
            "asymmetry",
        ]
    ), "every CLI command must appear exactly once"

    for idx, argv in enumerate(runs):
        prints = []
        for attempt in (0, 1):
            out = tmp_path / f"{idx}-{attempt}.json"
            code = run([*argv, "--json", str(out)])
            assert code in (0, 2), (argv, code)
            payload = json.loads(out.read_text())
            assert validate_report(payload) == [], argv
            del payload["durationMs"]
            prints.append(fingerprint(payload))
        assert prints[0] == prints[1], argv
    capsys.readouterr()
    clock.done(12, f"{len(runs)} commands, run twice each, fingerprint-identical")
