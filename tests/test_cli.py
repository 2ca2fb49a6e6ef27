"""In-process CLI runs: report schema, exit codes, determinism."""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import inspect
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import spec_path
import ranklab
import ranklab.cli
import ranklab.handlers.columns
from ranklab import LevelRef, descendant_differences, descendant_heights, load_spec, validate_report
from ranklab.cli import run

REPO = Path(__file__).resolve().parent.parent

COMMANDS = (
    "validate", "heights", "descendants", "diffset", "ap", "partners",
    "membership", "gaps", "coverage", "gamma", "conservativity",
    "ergodic-match", "pattern", "mixing", "npc", "pwm", "non-ergodic",
    "asymmetry",
)


def cli(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(capsys, *argv):
    code, out, err = cli(capsys, *argv)
    assert err == ""
    payload = json.loads(out)
    assert validate_report(payload) == []
    return code, payload


def rational(num: int, den: int) -> dict:
    return {"num": str(num), "den": str(den)}


def test_validate_echoes_normal_form(capsys):
    code, payload = report(capsys, "validate", "--spec", spec_path("chacon.json"))
    assert code == 0
    assert payload["result"]["valid"] is True
    assert payload["result"]["spec"]["family"]["kind"] == "inf_chacon"
    assert payload["evidence"]["heightPreview"][:4] == [1, 8, 50, 302]


def test_heights_frozen(capsys):
    code, payload = report(
        capsys, "heights", "--spec", spec_path("chacon.json"), "--stages", 4
    )
    assert code == 0
    assert payload["result"]["heights"] == [1, 8, 50, 302]


def test_descendants_with_approx(capsys):
    args = (
        "descendants", "--spec", spec_path("chacon.json"),
        "--base", "1:0", "--to", "3",
    )
    code, payload = report(capsys, *args)
    assert code == 0
    res = payload["result"]
    assert (res["count"], res["min"], res["max"]) == (9, 0, 118)
    assert res["levelWidth"] == rational(1, 27)
    assert len(payload["evidence"]["values"]) == 9
    assert "approx" not in res
    _, with_approx = report(capsys, *args, "--approx")
    assert with_approx["result"]["approx"]["levelWidth"] == pytest.approx(1 / 27)


def test_diffset_counts(capsys):
    code, payload = report(
        capsys, "diffset", "--spec", spec_path("chacon.json"),
        "--base", "1:0", "--to", "2",
    )
    assert code == 0
    assert payload["result"]["maxDifference"] == 17
    assert payload["evidence"]["positive"] == [[8, 1], [9, 1], [17, 1]]


def test_ap_cap_drives_exit_code(capsys):
    code, payload = report(
        capsys, "ap", "--spec", spec_path("chacon.json"),
        "--base", "1:0", "--to", "3", "--max-len", "14",
    )
    assert code == 0
    assert payload["result"]["longest"] == 4
    assert payload["result"]["capReached"] is False
    assert [42, 2] in payload["evidence"]["runs"]

    code, payload = report(
        capsys, "ap", "--spec", spec_path("dyadic.json"),
        "--base", "0:0", "--to", "3", "--max-len", "3",
    )
    assert code == 2
    assert payload["result"]["capReached"] is True


def test_ap_stops_at_the_longest_run_far_below_a_huge_cap(capsys, monkeypatch, tmp_path):
    # Zero spacers make the 2**11 stage-11 descendants of 0:0 all of [0, 2**11):
    # each x runs to (2**11 - 1) // x terms, and the search must end there.
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)  # 2**22 units fit
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps({"h0": 1, "stages": [{"r": 2, "s": [0, 0]}] * 11}))
    start = time.perf_counter()
    code, payload = report(
        capsys, "ap", "--spec", dense, "--base", "0:0", "--to", "11",
        "--max-len", "1000000",
    )
    assert time.perf_counter() - start < 1
    top = 2**11 - 1
    runs = {x: top // x for x in range(1, top + 1)}  # the walk's runs
    assert code == 0
    assert payload["result"] == {
        "longest": max(runs.values()), "witness": 1,
        "progression": list(range(1, top + 1)), "capReached": False,
    }
    assert payload["evidence"] == {"runCount": len(runs), "longest": top, "witness": 1}


@pytest.mark.parametrize(
    "name, base, to",
    [("chacon.json", "1:0", 4), ("asymm.json", "0:0", 3), ("tq41.json", "2:7", 3)],
)
@pytest.mark.parametrize("below", [0, 1])
def test_diffset_lists_or_summarizes_the_counted_differences(
    capsys, monkeypatch, name, base, to, below
):
    # A cap at distinctPositive lists the counted table; one below, the
    # summary.  Chacon's differences are a bitset, the others' a set.
    spec = load_spec(spec_path(name))
    level = LevelRef(*map(int, base.split(":")))
    values = descendant_heights(spec, level, to)
    counts = descendant_differences(spec, level, to, values, counted=True)
    positive = sorted(counts)[1:]
    monkeypatch.setattr(ranklab.cli, "TABLE_CAP", len(positive) - below)
    code, payload = report(
        capsys, "diffset", "--spec", spec_path(name), "--base", base, "--to", to
    )
    assert code == 0
    assert payload["result"] == {
        "setSize": len(values), "distinctPositive": len(positive),
        "maxDifference": positive[-1],
    }
    if below:
        table = {"summary": {"count": len(positive), "first": positive[0],
                             "last": positive[-1]}}
    else:
        table = {"positive": [[v, counts[v]] for v in positive]}
    assert json.dumps(payload["evidence"]) == json.dumps(table)


def test_partners_found_and_explicit_shift(capsys):
    code, payload = report(
        capsys, "partners", "--spec", spec_path("chacon.json"), "--stage", "1"
    )
    assert code == 0
    res = payload["result"]
    assert res["found"] is True
    assert res["z"] == 8
    assert res["pairCount"] == 1
    assert res["delta"] == rational(1, 3)

    code, payload = report(
        capsys, "partners", "--spec", spec_path("chacon.json"),
        "--stage", "1", "--shift", "9",
    )
    assert code == 0
    assert payload["result"]["sizeAtZ"] == 1
    assert payload["result"]["sizeAtZPlus1"] == 0


def test_partners_not_found(capsys):
    code, payload = report(
        capsys, "partners", "--spec", spec_path("dyadic.json"), "--stage", "2"
    )
    assert code == 0
    assert payload["result"] == {"found": False}


def test_membership_spec_and_raw_alphabet_agree(capsys):
    via_spec = report(
        capsys, "membership", "--spec", spec_path("tq41.json"),
        "--digits", "3", "--target", "42",
    )[1]
    via_alphabet = report(
        capsys, "membership", "--k", "5", "--alphabet", "0,1,3,4",
        "--digits", "3", "--target", "42",
    )[1]
    assert via_spec["result"] == via_alphabet["result"]
    assert via_spec["result"]["member"] is True
    assert via_spec["result"]["representation"] == [2, 3, 1]
    assert via_spec["result"]["base"] == 5
    # Same digits, but the provenance (and so the fingerprint) differs.
    assert via_spec["specFingerprint"] != via_alphabet["specFingerprint"]


@pytest.mark.parametrize(
    "source, digits",
    [(("--spec", spec_path("tq41.json")), 2000),
     (("--k", "9", "--alphabet", "0,2,3,5,6,8"), 5000)],
    ids=["tq41-2000", "k9-5000"],
)
def test_membership_takes_thousands_of_digits(capsys, source, digits):
    # One digit per position of the search: far past the recursion limit.
    target = 77777777777
    code, payload = report(
        capsys, "membership", *source, "--digits", digits, "--target", target
    )
    assert code == 0
    result = payload["result"]
    assert result["member"] is True
    assert len(result["representation"]) == digits
    k = result["base"]
    assert sum(c * k**l for l, c in enumerate(result["representation"])) == target


def test_digit_source_must_be_unambiguous(capsys):
    code, out, err = cli(
        capsys, "membership", "--spec", spec_path("tq41.json"),
        "--k", "5", "--alphabet", "0,1,3,4", "--digits", "2", "--target", "0",
    )
    assert code == 64
    assert out == ""
    assert "usage error" in err

    code, _, err = cli(capsys, "membership", "--digits", "2", "--target", "0")
    assert code == 64
    assert "usage error" in err


def test_gaps_frozen_recursion(capsys):
    code, payload = report(
        capsys, "gaps", "--k", "9", "--alphabet", "0,2,3,5,6,8", "--digits", "3"
    )
    assert code == 0
    res = payload["result"]
    assert res["g"] == 1
    assert res["recursion"] == [1, 4, 13]
    assert res["brute"] == 13
    assert res["matches"] is True
    assert payload["evidence"]["unitGaps"] == [7]


def test_coverage_passes(capsys):
    code, payload = report(
        capsys, "coverage", "--spec", spec_path("tq41.json"), "--digits", "3"
    )
    assert code == 0
    assert payload["result"]["passed"] is True
    assert payload["evidence"]["failures"] == []


def test_gamma_frozen(capsys):
    code, payload = report(
        capsys, "gamma", "--spec", spec_path("tq41.json"), "--multipliers", "2,3"
    )
    assert code == 0
    assert payload["result"] == {"n": 1, "m": 1, "gamma": 1}


def test_conservativity_frozen(capsys):
    code, payload = report(
        capsys, "conservativity", "--spec", spec_path("chacon.json"),
        "--multipliers", "1,1", "--base", "0", "--horizon", "2",
    )
    assert code == 0
    assert payload["result"]["bestFraction"] == rational(65, 81)
    assert payload["result"]["verdict"] == "inconclusive"


def test_ergodic_match_witness_in_evidence(capsys):
    code, payload = report(
        capsys, "ergodic-match", "--spec", spec_path("chacon.json"),
        "--multipliers", "1,-1", "--shifts", "0,1", "--base", "1", "--horizon", "2",
    )
    assert code == 0
    assert payload["result"]["fraction"] == rational(1, 9)
    assert payload["result"]["verdict"] == "holds"
    witness = payload["evidence"]["witness"]
    assert witness["a"] == [9, 9]
    assert witness["d"] == [0, 17]
    assert witness["residual"] == 9


def test_pattern_cli(capsys):
    code, payload = report(
        capsys, "pattern", "--spec", spec_path("chacon.json"),
        "--moves", "0,1", "--base", "1", "--cutoff", "3",
    )
    assert code == 0
    assert payload["result"]["matched"]["confirmed"] == rational(1, 9)
    assert payload["result"]["bound"] == rational(1, 16)
    assert payload["result"]["verdict"] == "holds"


@pytest.mark.parametrize(
    "argv",
    [
        ("conservativity", "--spec", spec_path("chacon.json"),
         "--multipliers", "-1,2", "--base", "0", "--horizon", "2"),
        ("conservativity", "--spec", spec_path("chacon.json"),
         "--multipliers", "-1,-1,3", "--base", "0", "--horizon", "2"),
        ("non-ergodic", "--spec", spec_path("all_but_last.json"),
         "--alpha", "-1,2", "--shifts", "-1,0", "--base", "0", "--horizon", "3"),
        ("pwm", "--spec", spec_path("tq41.json"),
         "--alpha", "-3,2", "--shifts", "0,1,2", "--base", "1"),
        ("mixing", "--spec", spec_path("mixing_window.json"),
         "--base", "0:0", "--shifts", "-10,0,40"),
    ],
)
def test_negative_first_lists_take_either_form(capsys, argv):
    # argparse reads "-1,2" as an option, not as the value of the flag before it.
    code, spaced = report(capsys, *argv)
    assert code in (0, 2)
    lists = [v for v in spaced["inputs"].values() if isinstance(v, list)]
    assert any(v and v[0] < 0 for v in lists)
    joined = []
    for token in argv:
        if token.startswith("-") and token[1:2].isdigit():
            joined[-1] += "=" + token
        else:
            joined.append(token)
    assert len(joined) < len(argv)
    joined_code, with_equals = report(capsys, *joined)
    assert joined_code == code
    spaced.pop("durationMs")
    with_equals.pop("durationMs")
    assert with_equals == spaced


_CHACON_0_2 = ("--spec", spec_path("chacon.json"), "--base", "0", "--horizon", "2")
_ABL_0_3 = ("--spec", spec_path("all_but_last.json"), "--base", "0", "--horizon", "3")
_SAME_PROCESS_RUNS = (
    ("conservativity", *_CHACON_0_2, "--multipliers", "1,1"),
    ("conservativity", *_CHACON_0_2, "--multipliers", "1,2", "--epsilon", "1/3"),
    ("non-ergodic", *_ABL_0_3, "--alpha", "-1,2", "--shifts", "-1,0"),
    ("conservativity", *_CHACON_0_2, "--multipliers", "1,x"),  # usage error
    ("non-ergodic", *_ABL_0_3, "--alpha", "1,1", "--shifts", "0,1"),
    ("conservativity", *_CHACON_0_2, "--multipliers", "-1,-1,3"),
)


def test_parsers_are_reused_across_runs(capsys):
    # One process runs each command's parser again; every report, usage
    # error and exit code is the one a freshly built parser gives.
    def outcomes(fresh):
        texts = []
        for argv in _SAME_PROCESS_RUNS:
            if fresh:
                ranklab.cli._PARSERS.clear()
            code, out, err = cli(capsys, *argv)
            texts.append((code, re.sub(r'"durationMs":\d+,', "", out), err))
        return texts

    fresh = outcomes(fresh=True)
    assert [code for code, _, _ in fresh] == [0, 0, 0, 64, 2, 0]
    assert "usage error" in fresh[3][2]
    assert outcomes(fresh=False) == fresh
    parsers = dict(ranklab.cli._PARSERS)
    assert outcomes(fresh=False) == fresh
    assert ranklab.cli._PARSERS == parsers  # the same parser objects
    # Help, --version and an unknown command still list every command.
    built = mock.patch.object(ranklab.cli, "build_parser", wraps=ranklab.cli.build_parser)
    with built as build_parser:
        for argv in (["--help"], ["--version"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 0
        assert cli(capsys, "no-such-command")[0] == 64
    assert build_parser.call_count == 3
    assert ranklab.cli._PARSERS == parsers


def test_mixing_needs_shifts_or_window(capsys):
    code, _, err = cli(
        capsys, "mixing", "--spec", spec_path("chacon.json"), "--base", "1:0"
    )
    assert code == 64
    assert "usage error" in err


def test_mixing_cli(capsys):
    code, payload = report(
        capsys, "mixing", "--spec", spec_path("mixing_window.json"),
        "--base", "0:0", "--shifts", "0,10,40",
    )
    assert code == 0
    res = payload["result"]
    assert res["verdict"] == "holds"
    assert res["entryCount"] == 3
    assert res["inWindow"] == 2
    assert res["violations"] == 0
    assert res["worstRatio"] == rational(1, 3)


def test_npc_cli_and_verdict_exit(capsys):
    code, payload = report(
        capsys, "npc", "--spec", spec_path("chacon.json"),
        "--kappa", "13", "--horizon", "6",
    )
    assert code == 0
    assert payload["result"]["verdict"] == "holds"
    assert payload["result"]["longest"] == 11
    assert payload["result"]["proofSup"] == rational(121, 10)

    code, payload = report(
        capsys, "npc", "--spec", spec_path("dyadic.json"),
        "--kappa", "2", "--horizon", "5",
    )
    assert code == 2
    assert payload["result"]["verdict"] == "fails"


def test_pwm_cli(capsys):
    code, payload = report(
        capsys, "pwm", "--spec", spec_path("tq41.json"),
        "--alpha", "2,-3", "--shifts", "0,1,2", "--base", "1",
    )
    assert code == 0
    assert payload["result"]["tailStage"] == 5
    assert payload["result"]["beta"] == rational(1, 4**15)
    assert payload["result"]["verdict"] == "holds"


def test_pwm_rejects_non_family_spec(capsys):
    code, out, err = cli(
        capsys, "pwm", "--spec", spec_path("chacon.json"),
        "--alpha", "2", "--shifts", "0,0", "--base", "1",
    )
    assert code == 1
    payload = json.loads(out)
    assert validate_report(payload) == []
    assert payload["result"]["error"]["type"] == "ParamOutOfRange"


def test_non_ergodic_failing_verdict_exit(capsys):
    code, payload = report(
        capsys, "non-ergodic", "--spec", spec_path("all_but_last.json"),
        "--alpha", "1,1", "--shifts", "0,1", "--base", "0", "--horizon", "5",
    )
    assert code == 2
    assert payload["result"]["verdict"] == "fails"
    assert payload["result"]["scope"] == "structural"


def test_asymmetry_cli(capsys):
    code, payload = report(
        capsys, "asymmetry", "--spec", spec_path("chacon.json"),
        "--base", "1", "--scale", "1", "--eval", "8",
    )
    assert code == 0
    assert payload["result"]["verdict"] == "holds"
    assert payload["result"]["zeroExact"] is True
    assert payload["result"]["forwardSide"]["confirmed"] == rational(1, 9)


def test_missing_spec_file_yields_error_report(capsys):
    code, out, err = cli(capsys, "heights", "--spec", "/no/such.json", "--stages", "3")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert validate_report(payload) == []
    assert payload["command"] == "heights"
    assert payload["result"]["error"]["type"] == "IoError"
    assert payload["inputs"]["argv"][0] == "heights"


_RSS_PROBE = """
import contextlib, io, json, resource, sys, time
import ranklab.cli
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = ranklab.cli.run(sys.argv[1:])
seconds = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps([code, usage.ru_maxrss, seconds, out.getvalue()]))
"""


def _probe(*argv):
    """Run ``argv`` at the default budget in a child process, from the repo root.

    Returns the exit code, the child's peak RSS in KiB (Linux's unit for
    ``ru_maxrss``), the seconds spent in ``run`` and the report.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("RANKLAB_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, *map(str, argv)],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120, check=True,
    )
    code, peak_kb, seconds, text = json.loads(proc.stdout)
    return code, peak_kb, seconds, json.loads(text)


_BUDGET_EDGE = ("--k", "9", "--alphabet", "0,1,3,5,7,8", "--digits")


@pytest.mark.parametrize("command", ["gaps", "coverage"])
def test_digit_sumset_at_the_budget_edge_stays_small(command):
    # D(7)' at k = 9 is charged 9^7 = 4,782,969 units, under the default
    # budget.  Held as a set of ints it took ~800 MB; its row takes a few MB.
    code, peak_kb, _, _ = _probe(command, *_BUDGET_EDGE, "7")
    assert code == 0
    assert peak_kb <= 150 * 1024


def test_membership_search_is_linear_in_the_digits():
    # Remainders stay within max(|target|, k - 1), so only the last few
    # positions keep a cap; a cap per position cost O(n^2) bits (~10 s and
    # ~100 MB here).
    code, peak_kb, seconds, payload = _probe(
        "membership", *_BUDGET_EDGE, "20000", "--target", "5"
    )
    assert code == 0
    assert peak_kb <= 150 * 1024
    assert seconds < 1.0
    assert payload["result"]["representation"] == [5] + [0] * 19999


def test_slide_scan_with_sparse_values_stays_small():
    # asymm's stage-3 descendants span far more than V^2 = 8,100 heights, so
    # a Counter keys their 8,100 pairs.  The slide scan's position masks took
    # ~6.6 s and ~310 MB here.  The fingerprint is that of the rank-mask report.
    code, peak_kb, seconds, payload = _probe(
        "conservativity", "--spec", "specs/asymm.json", "--multipliers", "1,2",
        "--base", "0", "--horizon", "3",
    )
    assert code == 0
    assert peak_kb <= 150 * 1024
    assert seconds < 1.0
    del payload["durationMs"]
    assert ranklab.fingerprint(payload) == (
        "sha256:53c9777888926c3a5d28e4a42d305f3b254f3a0ada179644e66ea49f3d702282"
    )


def test_product_routes_stay_on_bitsets(capsys, monkeypatch):
    # Every pair of multipliers counts its slides on the difference planes,
    # keyed q*s - p*t per class of s, grown stage by stage: chacon's keys
    # span at most 5 * 26,128 + 1 bits for 729 values.  The planes never
    # decline, so no Counter of the pairs, slide scan or rank mask runs.
    from ranklab import sumsets
    from ranklab.certificates import products

    built = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda values, *rest: (
            built.append((name, len(values))) or real(values, *rest)))

    spy(sumsets, "_pair_differences")
    for name in ("_slide_scan", "_rank_masks"):
        spy(products, name)
    real = sumsets._difference_planes
    monkeypatch.setattr(sumsets, "_difference_planes", lambda spec, level, j, values, *rest: (
        real(spec, level, j, values, *rest) or built.append(("declined", len(values)))))
    chacon = spec_path("chacon.json")
    for argv, horizon, matched in [
        (("conservativity", "--multipliers", "1,1"), 6, 530321),
        (("conservativity", "--multipliers", "1,2"), 4, 6178),
        (("conservativity", "--multipliers=2,-3"), 4, 5474),
        (("conservativity", "--multipliers", "2,2"), 6, 526367),
        (("non-ergodic", "--alpha", "1,1", "--shifts", "0,1"), 6, 525290),
        (("non-ergodic", "--alpha", "1,2", "--shifts", "0,1"), 4, 6447),
    ]:
        code, payload = report(capsys, argv[0], "--spec", chacon, *argv[1:],
                               "--base", "0", "--horizon", horizon)
        assert code == 0
        rows = payload["evidence"]["certificate"]["evidence"]["stages"]
        assert rows[-1]["matched"] == matched
    assert built == []


def test_three_multipliers_scan_positions(capsys, monkeypatch):
    # Three multipliers, equal or not, take the slide scan.  chacon's stage-4
    # descendants span 1,453 heights, within V^2 = 6,561, so the scan keys
    # its slides by position and never builds rank masks.
    from ranklab.certificates import products

    built = []
    for name in ("_slide_scan", "_rank_masks"):
        real = getattr(products, name)
        monkeypatch.setattr(products, name, lambda values, *rest, name=name, real=real: (
            built.append((name, len(values))) or real(values, *rest)))
    for multipliers, horizon in [("1,1,1", 4), ("1,1,2", 3)]:
        code, payload = report(capsys, "conservativity", "--spec", spec_path("chacon.json"),
                               "--multipliers", multipliers, "--base", "0", "--horizon", horizon)
        assert code == 0
    assert built == [("_slide_scan", 3 ** j) for j in (1, 2, 3, 4, 1, 2, 3)]


_KEY_GRID = [
    ("conservativity", "--multipliers", "1,1"),
    ("conservativity", "--multipliers=-1,-1"),
    ("conservativity", "--multipliers", "1,2"),
    ("conservativity", "--multipliers", "2,-3"),
    ("conservativity", "--multipliers", "2,2"),
    ("conservativity", "--multipliers", "2,4"),
    ("non-ergodic", "--alpha", "1,1", "--shifts", "0,1"),
    ("non-ergodic", "--alpha", "1,2", "--shifts", "0,1"),
    ("non-ergodic", "--alpha", "2,1", "--shifts", "1,0"),
    ("non-ergodic", "--alpha", "2,4", "--shifts", "0,2"),
    ("non-ergodic", "--alpha=-3,2", "--shifts", "1,0"),  # b0 = 1 moves a class of 3
]


_SCAN_GRID = [
    ("conservativity", "--multipliers", "1,1,1"),
    ("conservativity", "--multipliers=-2,-2,-2"),
    ("conservativity", "--multipliers", "1,1,2"),
    ("conservativity", "--multipliers", "2,-3,1"),
    ("non-ergodic", "--alpha", "1,1,2", "--shifts", "0,1,0"),
]

_SPEC_NAMES = sorted(p.name for p in (REPO / "specs").glob("*.json"))


def _forced_both_ways(capsys, monkeypatch, module, rule, name, grid, *tail):
    """Assert that each argv of ``grid`` on spec ``name``, followed by ``tail``,
    reports the same with ``rule`` forced true and false; return the
    ``(code, stdout, stderr)`` of each."""
    seen = []
    for argv in grid:
        texts = []
        for fits in (True, False):
            monkeypatch.setattr(module, rule, lambda *args, fits=fits: fits)
            code, out, err = cli(capsys, argv[0], "--spec", spec_path(name), *argv[1:], *tail)
            texts.append((code, re.sub(r'"durationMs":\d+,', "", out), err))
        assert texts[0] == texts[1], argv
        seen.append(texts[0])
    return seen


def _products_forced_both_ways(capsys, monkeypatch, module, rule, name, horizon, grid):
    for code, out, _ in _forced_both_ways(capsys, monkeypatch, module, rule, name, grid,
                                          "--base", "0", "--horizon", horizon):
        assert code in (0, 2) and '"matched"' in out


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_key_slide_rule_picks_a_route_not_a_report(capsys, monkeypatch, name):
    # Forced either way, the difference planes' size rule changes only who
    # counts: the planes, or a Counter of the pairs.  asymm stops at stage
    # 2, whose 30 values span 186,960 heights.
    from ranklab import sumsets

    horizon = 2 if name == "asymm.json" else 3
    _products_forced_both_ways(capsys, monkeypatch, sumsets, "_planes_fit", name, horizon,
                               _KEY_GRID)


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_scan_rule_picks_masks_not_a_report(capsys, monkeypatch, name):
    # Forced either way, the slide scan's size rule changes only how slides
    # are keyed: by position in the values' row, or by rank.  asymm stops at
    # stage 2, so that the forced row stays small, and tq41 too: 64^4 units
    # of its stage 3 are over the budget.
    from ranklab.certificates import products

    horizon = 2 if name in ("asymm.json", "tq41.json") else 3
    _products_forced_both_ways(capsys, monkeypatch, products, "_positions_fit", name, horizon,
                               _SCAN_GRID)


_MIXING_GRID = [
    ("mixing", "--window", "0"),
    ("mixing", "--window", "1"),
    ("mixing", "--shifts=-40,-3,-2,-1,0,1,2,3,7,8,9,10,50,51,52"),
]


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_window_rule_picks_counts_not_a_report(capsys, monkeypatch, name):
    # Forced either way, a mixing window's rule changes only how overlaps
    # are counted: from all pairs' differences, or by scanning the values
    # once per shift.  The shifts hold 0, negative shifts and runs.  asymm's
    # window 1 is over the budget, and is refused the same way both times.
    from ranklab.certificates import mixing

    seen = _forced_both_ways(capsys, monkeypatch, mixing, "_pairs_pay", name, _MIXING_GRID,
                             "--base", "0:0")
    for argv, (code, out, _) in zip(_MIXING_GRID, seen):
        if name == "asymm.json" and argv == ("mixing", "--window", "1"):
            assert code == 1 and "BudgetExceeded" in out
        else:
            assert code in (0, 2) and '"entries"' in out


@pytest.mark.parametrize("name", _SPEC_NAMES)
def test_survivor_rule_picks_a_route_not_a_report(capsys, monkeypatch, name):
    # Forced either way, the progression search's rule changes only how
    # later strides are tested: gathered from the difference row, or bit by
    # bit for each listed survivor.  asymm stops at stage 3.
    from ranklab import sumsets

    to = "3" if name == "asymm.json" else "4"
    grid = [
        ("ap", "--base", "0:0", "--to", to, "--max-len", "14"),
        ("ap", "--base", "1:0", "--to", to, "--max-len", "3"),
        ("npc", "--kappa", "13", "--horizon", to),
        ("npc", "--kappa", "2", "--horizon", "3"),
    ]
    seen = _forced_both_ways(capsys, monkeypatch, sumsets, "_survivors_fit", name, grid)
    assert all(code in (0, 2) and '"longest"' in out for code, out, _ in seen)


@pytest.mark.parametrize("spacer, scanned", [(19, False), (20, True)])
def test_key_slide_rule_edge(capsys, monkeypatch, tmp_path, spacer, scanned):
    # Two descendants {0, 1 + s}, one pair: with 1,2 the rule charges the
    # step 1 + s, plus one, times two planes, times a key of width 3, at most
    # 128 bits per pair: 6 * (2 + s) <= 128 up to s = 19.  One more and the
    # pairs count.
    from ranklab import sumsets

    paired = []
    real = sumsets._difference_planes
    monkeypatch.setattr(sumsets, "_difference_planes", lambda spec, level, j, values, *rest: (
        real(spec, level, j, values, *rest) or paired.append(values)))
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"h0": 1, "stages": [{"r": 2, "s": [spacer, 0]}]}))
    code, payload = report(capsys, "conservativity", "--spec", path, "--multipliers", "1,2",
                           "--base", "0", "--horizon", "1")
    assert code == 0
    assert [len(values) for values in paired] == ([2] if scanned else [])
    rows = payload["evidence"]["certificate"]["evidence"]["stages"]
    assert [(row["route"], row["matched"]) for row in rows] == [("scan", 0)]


_SPARSE_170 = {"stages": [{"r": 170, "s": [2 ** (k + 8) for k in range(169)] + [0]}]}


@pytest.mark.parametrize("argv, fingerprint", [
    # asymm's 900 stage-4 descendants are too sparse for the planes, so a
    # Counter keys their 810,000 pairs.  The anchored-key dict took ~1.8 s
    # and ~94 MB here.  The fingerprint is that of the dict's report.
    pytest.param(("specs/asymm.json", "2,2", 4),
                 "sha256:a62eaf84a759c250c111f2123953650d0daf5c105ef744eda070978eb35040ca",
                 id="asymm-2,2"),
    # The slide scan's rank masks count 729,000 triples of 90 values.  The
    # dict of their anchored keys took ~1.2 s and ~148 MB; the fingerprint
    # is that of the dict's report.
    pytest.param(("specs/asymm.json", "1,1,1", 3),
                 "sha256:96f3ab1a3495b807d90ba390136a1587e88cf2e809f31b7b03cc25cce66743df",
                 id="asymm-1,1,1"),
    # 170 values whose pair differences are all distinct: 4,913,000 triples,
    # the default budget's largest V for three multipliers, on rank masks.
    pytest.param(("sparse.json", "1,1,1", 1), None, id="sparse-1,1,1"),
])
def test_sparse_equal_multipliers_stay_small(tmp_path, argv, fingerprint):
    spec, multipliers, horizon = argv
    if spec == "sparse.json":
        spec = tmp_path / spec
        spec.write_text(json.dumps(_SPARSE_170))
    code, peak_kb, seconds, payload = _probe(
        "conservativity", "--spec", spec, "--multipliers", multipliers,
        "--base", "0", "--horizon", horizon,
    )
    assert code == 0
    assert peak_kb <= 150 * 1024
    assert seconds < 1.0
    if fingerprint is None:  # no difference repeats, so only the diagonal returns
        rows = payload["evidence"]["certificate"]["evidence"]["stages"]
        assert [row["matched"] for row in rows] == [170]
        return
    del payload["durationMs"]
    assert ranklab.fingerprint(payload) == fingerprint


def test_equal_multipliers_at_the_budget_edge_stay_small():
    # chacon stage 7 has 2,187 descendants, charged 2,187**2 = 4,782,969
    # units.  A dict of the anchored keys of every pair took ~10 s and
    # ~70 MB here; the planes grow by six shifted copies per class and stage,
    # of at most 2 * 156,765 + 1 bits.
    code, peak_kb, seconds, payload = _probe(
        "conservativity", "--spec", "specs/chacon.json", "--multipliers", "2,2",
        "--base", "0", "--horizon", "7",
    )
    assert code == 0
    assert peak_kb <= 150 * 1024
    assert seconds < 1.0
    del payload["durationMs"]
    assert ranklab.fingerprint(payload) == (
        "sha256:8a8cc5f9de46af56c549c95ba8300c05d0f43001352812def1aabda58c027f4b"
    )


def test_asymmetry_takes_the_block_route(capsys, monkeypatch):
    # Both brackets at evaluation stage 9 read chacon's stage-2 blocks
    # (h_2 = 50 > 2 * h_1 + 1 = 17): 3 descendants tried against at most 14 gaps,
    # where the listing would try 6,561.  No stage is listed above stage 2.
    from ranklab import construction

    listed, heights = [], []
    real_listed = construction._listed
    monkeypatch.setattr(construction, "descendant_heights", lambda *args: heights.append(args))
    monkeypatch.setattr(construction, "_listed", lambda spec, level, j: (
        listed.append(j) or real_listed(spec, level, j)))
    code, payload = report(capsys, "asymmetry", "--spec", spec_path("chacon.json"),
                           "--base", "1", "--scale", "1", "--eval", "9")
    assert code == 0
    assert (listed, heights) == ([2, 2], [])
    assert payload["result"]["forwardSide"]["confirmed"] == rational(1, 9)


_CHACON_BASE_0 = ("--spec", "specs/chacon.json", "--base", "0", "--horizon", "14")


@pytest.mark.parametrize("argv, fingerprint", [
    (("asymmetry", "--spec", "specs/chacon.json", "--base", "1", "--scale", "1",
      "--eval", "15"), "086fc25dba5d03ee0d87b0778aacc54f63b6217d47e2bdf4ab6b7e7c121fd8b1"),
    (("conservativity", "--multipliers", "2", *_CHACON_BASE_0),
     "8593d24b7be4f2f880b310dd73b6df8086add2ea7cd56abf7069be393d5b4e06"),
    (("non-ergodic", "--alpha", "1,2", "--shifts", "0,1", *_CHACON_BASE_0),
     "aad06cdaf0723813f5f65b342e85b7892fa8e859f406b0ce73dd43c767cb2a8d"),
], ids=["asymmetry", "conservativity", "non-ergodic"])
def test_descendant_answers_from_height_sets_stay_small(argv, fingerprint):
    # Each listed 4,782,969 descendants (chacon 1:0 at stage 15, 0:0 at 14):
    # 1.2-8.7 s and 450-630 MB.  The brackets read blocks, the residues
    # convolve height sets, and non-ergodic refuses its scan before it builds.
    code, peak_kb, seconds, payload = _probe(*argv)
    assert code == 0
    assert peak_kb <= 150 * 1024
    assert seconds < 0.5
    result = payload["result"]
    rows = payload["evidence"]["certificate"]["evidence"].get("stages")
    if argv[0] == "asymmetry":
        assert result["zeroSide"]["confirmed"] == rational(0, 1)
        assert result["zeroSide"]["unresolved"] == rational(2, 14348907)
        assert result["forwardSide"]["confirmed"] == rational(1, 9)
        assert result["forwardSide"]["unresolved"] == rational(1, 14348907)
    elif argv[0] == "conservativity":
        assert rows[-1] == {"stage": 14, "route": "residue", "matched": 4782969,
                            "tuples": 4782969, "fraction": rational(1, 1)}
    else:
        assert rows[-1] == {"stage": 14, "tuples": 22876792454961, "skipped": (
            "per-tuple slide scan with shifts needs ~109418989131512359209 enumeration"
            " units, over the budget of 5000000 (raise RANKLAB_BUDGET to allow it)")}
    del payload["durationMs"]
    assert ranklab.fingerprint(payload) == "sha256:" + fingerprint


def test_shift_criterion_counts_at_the_budget_edge_stay_small():
    # chacon stage 7 has 2,187 descendants, charged 2,187**2 = 4,782,969
    # units: the deepest horizon the default budget admits.  The ordered
    # pairs per difference come from the bit-sliced planes.
    code, peak_kb, _, payload = _probe(
        "non-ergodic", "--spec", "specs/chacon.json", "--alpha", "1,1",
        "--shifts", "0,1", "--base", "0", "--horizon", "7",
    )
    assert code == 0
    assert peak_kb <= 150 * 1024
    rows = payload["evidence"]["certificate"]["evidence"]["stages"]
    assert rows[-1] == {"stage": 7, "tuples": 4782969, "route": "difference-counts",
                        "matched": 4747412, "fraction": rational(4747412, 4782969)}
    del payload["durationMs"]
    assert ranklab.fingerprint(payload) == (
        "sha256:76f67516dbcc16006f69b2421ef25ef10784ae96a2bc4499ce1edb183f053a4b"
    )


def test_shift_criterion_counts_at_the_plane_rule_edge_stay_small(tmp_path):
    # 2,048 descendants, [0, 1024) and [1024 + s, 2048 + s), charged
    # 4,194,304 units.  The last stage's one positive step times its 2,048 + s
    # nonnegative differences, times 12 planes, is at most 64 bits for each
    # of the 2,096,128 pairs up to this s, which peaks at ~76 MB.  Without
    # the depth in the rule, s ran to ~1.3 * 10**8, and s = 6 * 10**7
    # already peaked at ~420 MB.
    from ranklab import sumsets

    edge = 64 * 2096128 // 12 - 2048
    stages = [{"r": 2, "s": [0, 0]}] * 10
    past = ranklab.validate_spec({"h0": 1, "stages": stages + [{"r": 2, "s": [edge + 1, 0]}]})
    values = descendant_heights(past, LevelRef(0, 0), 11)
    assert sumsets._difference_planes(past, LevelRef(0, 0), 11, values, 12) is None
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"h0": 1, "stages": stages + [{"r": 2, "s": [edge, 0]}]}))
    code, peak_kb, _, payload = _probe(
        "non-ergodic", "--spec", path, "--alpha", "1,1", "--shifts", "0,1",
        "--base", "0", "--horizon", "11",
    )
    assert code == 0
    assert peak_kb <= 150 * 1024
    # Every ordered pair but four has its difference plus 1 a difference:
    # the pair 1023 apart in each block and the cross pairs 2047 + s and
    # -1 - s apart.
    rows = payload["evidence"]["certificate"]["evidence"]["stages"]
    assert rows[-1] == {"stage": 11, "tuples": 4194304, "route": "difference-counts",
                        "matched": 4194300, "fraction": rational(1048575, 1048576)}


def test_pair_slides_at_the_plane_rule_edge_stay_small(tmp_path):
    # 2,048 descendants, [0, 1024) and [1024 + s, 2048 + s), charged
    # 4,194,304 units.  conservativity 1,1 reads two planes of the full
    # signed width, so the rule charges the last stage's one positive step
    # times its 2,048 + s nonnegative differences once per plane: at most
    # 64 bits for each of the 2,096,128 pairs up to this s.  Its planes
    # span ~1.3 * 10**8 bits, and the run peaks at ~110 MB.
    from ranklab import sumsets

    edge = 32 * 2096128 - 2048
    stages = [{"r": 2, "s": [0, 0]}] * 10
    for s, fits in (edge, True), (edge + 1, False):
        spec = ranklab.validate_spec({"h0": 1, "stages": stages + [{"r": 2, "s": [s, 0]}]})
        stage_sets = [spec.height_set(n) for n in range(11)]
        assert sumsets._planes_fit(stage_sets, 2096128, 2 * 2) == fits
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"h0": 1, "stages": stages + [{"r": 2, "s": [edge, 0]}]}))
    code, peak_kb, _, payload = _probe(
        "conservativity", "--spec", path, "--multipliers", "1,1", "--base", "0",
        "--horizon", "11",
    )
    assert code == 0
    assert peak_kb <= 150 * 1024
    # Only the cross pairs 1 + s and 2047 + s apart, either way round, hold
    # their difference alone.
    rows = payload["evidence"]["certificate"]["evidence"]["stages"]
    assert rows[-1]["matched"] == 4194304 - 4


def test_progression_search_at_the_set_rule_edge_stays_small(tmp_path):
    # 2,048 descendants, [0, 1024) and [1024 + s, 2048 + s), charged
    # 4,194,304 units.  The difference bitset's one positive step times its
    # 2,048 + s nonnegative differences is at most 64 bits for each of the
    # 2,096,128 pairs up to this s: ~134 * 10**6 bits, ~17 MB.  As a binary
    # string, one byte per bit, with a stride string and an int per length,
    # the search peaked at ~310 MB.
    from ranklab import sumsets

    edge = 64 * 2096128 - 2048
    stages = [{"r": 2, "s": [0, 0]}] * 10
    past = ranklab.validate_spec({"h0": 1, "stages": stages + [{"r": 2, "s": [edge + 1, 0]}]})
    values = descendant_heights(past, LevelRef(0, 0), 11)
    assert sumsets._difference_planes(past, LevelRef(0, 0), 11, values, 1) is None
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"h0": 1, "stages": stages + [{"r": 2, "s": [edge, 0]}]}))
    code, peak_kb, _, payload = _probe(
        "ap", "--spec", path, "--base", "0:0", "--to", "11", "--max-len", "3"
    )
    assert code == 2  # 1, 2, 3 reach the cap
    assert peak_kb <= 150 * 1024
    del payload["durationMs"]
    payload["inputs"]["spec"] = "edge.json"
    assert ranklab.fingerprint(payload) == (
        "sha256:c4f599254e0d98f11e9a3f3226b30a938079b1aa7edaccdb0ec73c8874927a17"
    )


def test_asymmetry_past_the_budget_is_still_refused(capsys, monkeypatch):
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    code, payload = report(capsys, "asymmetry", "--spec", spec_path("chacon.json"),
                           "--base", "1", "--scale", "1", "--eval", "16")
    assert code == 1
    assert payload["result"]["error"] == {
        "type": "BudgetExceeded",
        "message": "descendant set at stage 16 needs ~14348907 enumeration units,"
        " over the budget of 5000000 (raise RANKLAB_BUDGET to allow it)",
    }


@pytest.mark.parametrize("command", ["gaps", "coverage"])
def test_digit_sumset_past_the_budget_is_refused_at_once(capsys, monkeypatch, command):
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    start = time.perf_counter()
    code, payload = report(capsys, command, *_BUDGET_EDGE, "8")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["result"]["error"] == {
        "type": "BudgetExceeded",
        "message": "truncated sumset enumeration needs ~43046721 enumeration units,"
        " over the budget of 5000000 (raise RANKLAB_BUDGET to allow it)",
    }


def test_budget_exhaustion_yields_error_report(capsys, monkeypatch):
    monkeypatch.setenv("RANKLAB_BUDGET", "100")
    code, out, _ = cli(
        capsys, "mixing", "--spec", spec_path("chacon.json"),
        "--base", "0:0", "--window", "3",
    )
    assert code == 1
    payload = json.loads(out)
    assert validate_report(payload) == []
    assert payload["result"]["error"]["type"] == "BudgetExceeded"


def test_descendant_enumeration_is_charged_before_it_runs(capsys, monkeypatch):
    # 3^8 = 6,561 descendants against a budget of 10.
    monkeypatch.setenv("RANKLAB_BUDGET", "10")
    code, payload = report(
        capsys, "descendants", "--spec", spec_path("chacon.json"),
        "--base", "0:0", "--to", "8",
    )
    assert code == 1
    assert payload["result"]["error"]["type"] == "BudgetExceeded"
    assert "descendant set at stage 8" in payload["result"]["error"]["message"]


@pytest.mark.parametrize(
    "argv, label",
    [
        (("diffset",), "difference multiset"),
        (("ap", "--max-len", "14"), "difference set for progression search"),
    ],
)
def test_difference_sets_are_charged_before_they_are_built(
    capsys, monkeypatch, argv, label
):
    # 27 descendants fit a budget of 700; their 27^2 = 729 pairs do not.
    monkeypatch.setenv("RANKLAB_BUDGET", "700")
    code, payload = report(
        capsys, *argv, "--spec", spec_path("chacon.json"), "--base", "1:0", "--to", "4"
    )
    assert code == 1
    assert payload["result"]["error"] == {
        "type": "BudgetExceeded",
        "message": f"{label} needs ~729 enumeration units, over the budget of 700"
        " (raise RANKLAB_BUDGET to allow it)",
    }


def test_npc_difference_set_refusal(capsys, monkeypatch):
    # Stage 5 of asymm has 2,700 descendants: 2,700^2 units are refused.
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    code, payload = report(
        capsys, "npc", "--spec", spec_path("asymm.json"), "--kappa", "13",
        "--horizon", "5",
    )
    assert code == 1
    error = payload["result"]["error"]
    assert error["type"] == "BudgetExceeded"
    assert error["message"].startswith(
        "difference set for progression search needs ~7290000 enumeration units"
    )


def test_slide_scan_is_charged_per_tuple_and_value(capsys, monkeypatch):
    # 81 stage-4 descendants: the scan is charged 81^3 = 531,441 units,
    # whatever route counts the tuples.
    monkeypatch.setenv("RANKLAB_BUDGET", "531440")
    code, payload = report(
        capsys, "conservativity", "--spec", spec_path("chacon.json"),
        "--multipliers", "1,2", "--base", "0", "--horizon", "4",
    )
    assert code == 1
    assert payload["result"]["error"] == {
        "type": "BudgetExceeded",
        "message": "per-tuple slide scan needs ~531441 enumeration units, over the"
        " budget of 531440 (raise RANKLAB_BUDGET to allow it)",
    }
    # 27^3 = 19,683 units for the last stage of a shifted scan: that stage
    # stays a skipped row, the earlier ones are counted.
    monkeypatch.setenv("RANKLAB_BUDGET", "19682")
    code, payload = report(
        capsys, "non-ergodic", "--spec", spec_path("chacon.json"), "--alpha", "1,2",
        "--shifts", "0,1", "--base", "0", "--horizon", "3",
    )
    assert code == 0
    rows = payload["evidence"]["certificate"]["evidence"]["stages"]
    assert [row.get("matched") for row in rows] == [5, 68, None]
    assert rows[2] == {
        "stage": 3,
        "tuples": 729,
        "skipped": "per-tuple slide scan with shifts needs ~19683 enumeration units,"
        " over the budget of 19682 (raise RANKLAB_BUDGET to allow it)",
    }


def test_internal_error_yields_error_report(capsys, monkeypatch):
    def broken(args, spec):
        raise AssertionError("descendants collided")

    monkeypatch.setattr(ranklab.handlers.columns, "_cmd_heights", broken)
    args = ("heights", "--spec", spec_path("chacon.json"), "--stages", "3")
    code, out, err = cli(capsys, *args)
    assert code == 1
    payload = json.loads(out)
    assert validate_report(payload) == []
    assert payload["result"]["error"] == {
        "type": "AssertionError",
        "message": "descendants collided",
    }
    assert "Traceback" in err

    def interrupted(args, spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(ranklab.handlers.columns, "_cmd_heights", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(list(args))


@pytest.mark.parametrize(
    "name, base, to",
    [
        ("chacon.json", "0:0", 9),  # 19,683 descendants: summarized by default
        ("chacon.json", "1:5", 5),
        ("asymm.json", "0:0", 3),
        ("tq41.json", "2:7", 3),
    ],
)
def test_descendant_summary_routes_agree(capsys, monkeypatch, name, base, to):
    # With every set listed, and with every set read from the height sets.
    argv = ("descendants", "--spec", spec_path(name), "--base", base, "--to", to)
    monkeypatch.setattr(ranklab.cli, "TABLE_CAP", 10**7)
    code, listed = report(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(ranklab.cli, "TABLE_CAP", 1)
    code, summarized = report(capsys, *argv)
    assert code == 0
    values = listed["evidence"]["values"]
    assert summarized["result"] == listed["result"]
    assert summarized["evidence"] == {
        "summary": {"count": len(values), "first": values[0], "last": values[-1]}
    }
    assert listed["result"]["count"] == len(values)
    assert (listed["result"]["min"], listed["result"]["max"]) == (values[0], values[-1])
    monkeypatch.setattr(ranklab.cli, "TABLE_CAP", len(values))  # listed up to the cap
    again = report(capsys, *argv)[1]
    again.pop("durationMs")  # wall time, outside the report fingerprint
    listed.pop("durationMs")
    assert again == listed


@pytest.mark.parametrize("cap", [1, 10**10])
@pytest.mark.parametrize(
    "budget, to, units", [(None, 20, 3486784401), ("10", 8, 6561)]
)
def test_descendant_refusal_does_not_depend_on_the_route(
    capsys, monkeypatch, cap, budget, to, units
):
    # Read from the height sets (cap 1) or listed (cap 10**10): one charge.
    monkeypatch.setattr(ranklab.cli, "TABLE_CAP", cap)
    if budget is None:
        monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RANKLAB_BUDGET", budget)
    code, payload = report(
        capsys, "descendants", "--spec", spec_path("chacon.json"),
        "--base", "0:0", "--to", to,
    )
    assert code == 1
    assert payload["result"]["error"] == {
        "type": "BudgetExceeded",
        "message": f"descendant set at stage {to} needs ~{units} enumeration units,"
        f" over the budget of {budget or 5000000} (raise RANKLAB_BUDGET to allow it)",
    }


def test_huge_descendant_set_is_refused_under_default_budget(capsys, monkeypatch):
    # 3^20 ~ 3.5e9 descendants: refused up front, never allocated.
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    code, payload = report(
        capsys, "descendants", "--spec", spec_path("chacon.json"),
        "--base", "0:0", "--to", "20",
    )
    assert code == 1
    assert payload["result"]["error"]["type"] == "BudgetExceeded"


@pytest.mark.parametrize("value", ["abc", "0", "-5", ""])
def test_invalid_budget_yields_error_report(capsys, monkeypatch, value):
    monkeypatch.setenv("RANKLAB_BUDGET", value)
    code, out, _ = cli(
        capsys, "mixing", "--spec", spec_path("mixing_window.json"),
        "--base", "0:0", "--shifts", "10",
    )
    assert code == 1
    payload = json.loads(out)
    assert validate_report(payload) == []
    error = payload["result"]["error"]
    assert error["type"] == "ParamOutOfRange"
    assert "RANKLAB_BUDGET" in error["message"]


_CHACON_CONSERVATIVITY = ("conservativity", *_CHACON_0_2, "--multipliers", "1,1")


@pytest.mark.parametrize(
    "argv, code, error",
    [
        ((*_CHACON_CONSERVATIVITY, "--epsilon", "abc"), 64, "not a rational: 'abc'"),
        (
            (*_CHACON_CONSERVATIVITY, "--epsilon", "1"),
            1,
            {"type": "ParamOutOfRange", "message": "epsilon must lie in [0, 1), got 1"},
        ),
        (
            ("gamma", "--k", "2", "--alphabet", "0,1", "--multipliers", "2"),
            1,
            {"type": "ParamOutOfRange", "message": "gamma search needs base k >= 3"},
        ),
        (
            ("gamma", "--k", "5", "--alphabet", "0,2,4", "--multipliers", "2"),
            1,
            {
                "type": "PreconditionViolated",
                "message": "gamma search needs two digits at distance 1",
            },
        ),
    ],
)
def test_refused_parameters_yield_a_report_or_a_usage_error(capsys, argv, code, error):
    got, out, err = cli(capsys, *argv)
    assert got == code
    if code == 64:
        assert out == ""
        assert err.startswith("usage error") and error in err
        return
    assert err == ""
    payload = json.loads(out)
    assert validate_report(payload) == []
    assert payload["result"]["error"] == error


def test_jobs_flag_is_gone(capsys):
    code, _, err = cli(
        capsys, "heights", "--spec", spec_path("chacon.json"), "--stages", "3",
        "--jobs", "2",
    )
    assert code == 64
    assert "--jobs" in err


def test_usage_errors(capsys):
    code, _, err = cli(capsys, "heights", "--spec", spec_path("chacon.json"))
    assert code == 64
    assert err != ""
    code, _, err = cli(capsys, "frobnicate")
    assert code == 64
    code, _, err = cli(capsys, "heights", "--spec", "x", "--stages", "-1")
    assert code == 64


def test_json_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = cli(
        capsys, "npc", "--spec", spec_path("chacon.json"),
        "--kappa", "13", "--horizon", "6", "--json", str(out_path),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert validate_report(payload) == []
    assert payload["result"]["verdict"] == "holds"


def test_unwritable_json_path_yields_error_report_on_stdout(capsys, tmp_path):
    bad = tmp_path / "missing-dir" / "x.json"
    code, payload = report(
        capsys, "heights", "--spec", spec_path("chacon.json"), "--stages", "3",
        "--json", bad,
    )
    assert code == 1
    assert payload["result"]["error"]["type"] == "IoError"
    assert str(bad) in payload["result"]["error"]["message"]
    assert not bad.exists()


def test_unwritable_error_report_goes_to_stdout(capsys, tmp_path):
    # The run fails (no such spec) and its error report cannot be written
    # either: an IoError report still reaches stdout.
    bad = tmp_path / "missing-dir" / "x.json"
    code, payload = report(
        capsys, "heights", "--spec", tmp_path / "nope.json", "--stages", "3",
        "--json", bad,
    )
    assert code == 1
    assert payload["result"]["error"]["type"] == "IoError"
    assert not bad.exists()


def test_reports_are_deterministic(capsys):
    args = (
        "asymmetry", "--spec", spec_path("chacon.json"),
        "--base", "1", "--scale", "1", "--eval", "8",
    )
    _, first = report(capsys, *args)
    _, second = report(capsys, *args)
    first.pop("durationMs")
    second.pop("durationMs")
    assert first == second


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "ranklab" in capsys.readouterr().out


def test_unrenderable_report_yields_error_report(capsys):
    # h_5599, and the largest stage-8001 descendant of level 8000:0, have more
    # than 4,300 digits, Python's limit for int -> str: the reports cannot be
    # written, so a named refusal replaces them, without a traceback.
    limit = sys.get_int_max_str_digits()
    for argv in (
        ("heights", "--spec", spec_path("chacon.json"), "--stages", "5600"),
        ("descendants", "--spec", spec_path("chacon.json"), "--base", "8000:0", "--to", "8001"),
    ):
        code, out, err = cli(capsys, *argv)
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert validate_report(payload) == []
        assert payload["command"] == argv[0]
        assert payload["result"]["error"]["type"] == "IntegerTooLong"
        assert f"more than {limit} decimal digits" in payload["result"]["error"]["message"]
        assert payload["inputs"]["argv"] == list(argv)


def _perfbench_jobs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", REPO / "perfbench" / "jobs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_workload_reports_match_golden(capsys, monkeypatch):
    # The benchmark's 20 process runs, replayed in process: exit codes and
    # durationMs-free fingerprints must equal the recorded ones.
    jobs = _perfbench_jobs()
    golden = jobs.load_golden()
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    specs = {path: load_spec(path) for path in jobs.SPEC_FILES["cli"]}
    templates = jobs.templates("cli")
    assert len(templates) == 20
    for template in templates:
        argv = jobs.instantiate(template, 0)
        code = run(list(argv))
        text = capsys.readouterr().out
        assert jobs.check_report(golden, template, argv, code, text, specs) == [], argv


@pytest.mark.parametrize("workload", ["mixing", "enumerate"])
def test_in_process_workload_reports_match_golden(workload, capsys, monkeypatch):
    # Every job of the in-process workloads, for every seeded height h, with
    # the environment the benchmark gives it; golden.json is only read.
    jobs = _perfbench_jobs()
    golden = jobs.load_golden()
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    for name, value in jobs.job_env(workload).items():
        monkeypatch.setenv(name, value)
    specs = {path: load_spec(path) for path in jobs.SPEC_FILES[workload]}
    seen = set()
    for h in range(8):
        for template in jobs.templates(workload):
            argv = jobs.instantiate(template, h)
            if argv in seen:
                continue
            seen.add(argv)
            code = run(list(argv))
            text = capsys.readouterr().out
            assert jobs.check_report(golden, template, argv, code, text, specs) == [], argv
    assert len(seen) == {"mixing": 11, "enumerate": 22}[workload]


def test_benchmark_tracer_installs_over_the_split_modules(capsys, monkeypatch):
    # ``perfbench/tracer.py`` (``--trace 1``) imports every module of its
    # LAYERS map and wraps the functions their ``__all__`` lists; a traced
    # enumerate job still charges the budget and writes its golden report.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    jobs = _perfbench_jobs()
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    template = jobs.templates("enumerate")[1]  # diffset: descendants, then sumsets
    argv = jobs.instantiate(template, 0)
    spans = tracer.Tracer()
    spans.install()
    try:
        code = run(list(argv))
    finally:
        spans.uninstall()
    counts = spans.collect()
    assert counts["budget.charges"] > 0
    specs = {path: load_spec(path) for path in jobs.SPEC_FILES["enumerate"]}
    text = capsys.readouterr().out
    assert jobs.check_report(jobs.load_golden(), template, argv, code, text, specs) == []


_DEEP_WINDOW_MESSAGE = (
    "overlap counts across a shift window needs ~29991924739071 enumeration units,"
    " over the budget of 5000000 (raise RANKLAB_BUDGET to allow it)"
)


def test_deep_window_is_refused_before_its_shifts_are_listed(capsys, monkeypatch):
    # The window holds ~1.7e8 shifts; it is charged as runs, never listed.
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    tracemalloc.start()
    try:
        payload = report(capsys, "mixing", "--spec", spec_path("chacon.json"),
                         "--base", "0:0", "--window", "10")[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["result"]["error"] == {
        "type": "BudgetExceeded", "message": _DEEP_WINDOW_MESSAGE,
    }
    assert peak < 20_000_000


def test_deeper_window_is_refused_by_the_budget(capsys, monkeypatch):
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    code, payload = report(capsys, "mixing", "--spec", spec_path("chacon.json"),
                           "--base", "0:0", "--window", "12")
    assert code == 1
    assert payload["result"]["error"]["type"] == "BudgetExceeded"


def test_npc_report_matches_golden_under_python_O():
    # Guards are explicit raises, so ``python -O`` runs them and must give the
    # same report as the benchmark recorded.
    jobs = _perfbench_jobs()
    template = ("npc", "--spec", "specs/chacon.json", "--kappa", "13", "--horizon", "6")
    assert template in jobs.templates("cli")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("RANKLAB_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ranklab", *template], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120,
    )
    specs = {path: load_spec(REPO / path) for path in jobs.SPEC_FILES["cli"]}
    problems = jobs.check_report(
        jobs.load_golden(), template, template, proc.returncode, proc.stdout, specs
    )
    assert problems == [], proc.stderr


_GOLDEN_REPLAY = """
import contextlib, importlib.util, io, json
import ranklab.cli
spec = importlib.util.spec_from_file_location("perfbench_jobs", "perfbench/jobs.py")
jobs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(jobs)
done = []
for template in jobs.templates("cli"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ranklab.cli.run(list(jobs.instantiate(template, 0)))
    done.append([code, out.getvalue()])
print(json.dumps(done))
"""


def _replay_cli_golden(python, *flags):
    """The benchmark's 20 ``cli`` jobs, run through ``cli.run`` in one process
    of the interpreter ``python`` with ``flags``, each checked against golden."""
    jobs = _perfbench_jobs()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("RANKLAB_BUDGET", None)
    proc = subprocess.run(
        [python, *flags, "-c", _GOLDEN_REPLAY], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    golden = jobs.load_golden()
    specs = {path: load_spec(REPO / path) for path in jobs.SPEC_FILES["cli"]}
    templates = jobs.templates("cli")
    outcomes = json.loads(proc.stdout)
    assert len(outcomes) == len(templates) == 20
    for template, (code, text) in zip(templates, outcomes):
        argv = jobs.instantiate(template, 0)
        assert jobs.check_report(golden, template, argv, code, text, specs) == [], argv


def test_cli_workload_reports_match_golden_under_python_O():
    # Its guards still run, and specs loaded again come from the spec table.
    _replay_cli_golden(sys.executable, "-O")


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_cli_workload_reports_match_golden_under_other_interpreters(name):
    # The sha256 fallback, int.bit_count and the int digit limit depend on the
    # version.  An interpreter that is absent, or whose launcher cannot run it,
    # is a skip.
    python = shutil.which(name)
    if python is None:
        pytest.skip(f"{name} is not on PATH")
    probe = subprocess.run([python, "--version"], capture_output=True, text=True, timeout=30)
    if probe.returncode != 0:
        pytest.skip(f"{name} --version failed: {probe.stderr.strip()[:200]}")
    _replay_cli_golden(python)


@pytest.mark.parametrize(
    "argv",
    [
        ("mixing", "--spec", "specs/asymm.json", "--base", "0:0", "--window", "0"),
        ("conservativity", "--spec", "specs/chacon.json", "--multipliers", "2,2",
         "--base", "0", "--horizon", "5"),
        ("heights", "--spec", "specs/asymm.json", "--stages", "9"),
        ("validate", "--spec", "specs/dyadic.json"),
    ],
)
def test_in_process_runs_repeat_a_child_process_report(argv, capsys, monkeypatch):
    # The second run gets its spec from the table, with none of the stages the
    # first run materialized; both reports are the child process's.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("RANKLAB_BUDGET", None)
    child = subprocess.run([sys.executable, "-m", "ranklab", *argv], cwd=REPO, env=env,
                           capture_output=True, text=True, timeout=60)
    monkeypatch.chdir(REPO)
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    want = re.sub(r'"durationMs":\d+,', "", child.stdout)
    for _ in range(2):
        assert run(list(argv)) == child.returncode
        out, err = capsys.readouterr()
        assert err == child.stderr == ""
        assert re.sub(r'"durationMs":\d+,', "", out) == want


def test_result_guards_run_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from ranklab.errors import ensure; ensure(0, 'kept')"],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "AssertionError: kept"


_PACKAGE = REPO / "src" / "ranklab"


def _part_handlers(part: str) -> ast.Module:
    """The handlers in ``handlers/certificates.py`` that import ``part`` of
    ``certificates``: the body of the module ``handlers/<part>.py`` they
    filled before that module held them all."""
    tree = ast.parse((_PACKAGE / "handlers" / "certificates.py").read_text(encoding="utf-8"))
    body = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and any(
        isinstance(node, ast.ImportFrom) and node.level == 2
        and node.module == f"certificates.{part}" for node in ast.walk(fn))]
    if not body:
        raise LookupError(f"no handler imports certificates.{part}")
    return ast.Module(body=body, type_ignores=[])


# Every source file, and each certificate part's handlers on their own, under
# the name of the handler module they had before they were merged.
_SOURCES = [
    *(pytest.param(name, lambda path=path: ast.parse(path.read_text(encoding="utf-8")), id=name)
      for path in sorted(_PACKAGE.rglob("*.py"))
      for name in [path.relative_to(_PACKAGE).as_posix()]),
    *(pytest.param(name, lambda part=path.stem: _part_handlers(part), id=name)
      for path in sorted((_PACKAGE / "certificates").glob("[!_]*.py"))
      for name in [f"handlers/{path.stem}.py"]),
]


@pytest.mark.parametrize("name, tree", _SOURCES)
def test_no_module_guards_with_assert(name, tree):
    # ``python -O`` strips ``assert`` statements, so no module may use one.
    lines = [node.lineno for node in ast.walk(tree()) if isinstance(node, ast.Assert)]
    assert lines == [], f"bare assert at {name} lines {lines}"


def _self_call(call: ast.Call, name: str) -> bool:
    """Whether ``call`` calls ``name`` directly or as a method of ``self``/``cls``."""
    f = call.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f.value.id in ("self", "cls") and f.attr == name
    return isinstance(f, ast.Name) and f.id == name


def test_no_function_calls_itself():
    # A recursion whose depth follows the input ends in ``RecursionError``.
    # Only the report walkers may recurse: their depth is the report's nesting.
    found = set()
    for path in sorted(_PACKAGE.rglob("*.py")):
        module = path.relative_to(_PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call) and _self_call(node, fn.name)
                for node in ast.walk(fn)
            ):
                found.add(f"{module}.{fn.name}")
    assert found == {"reporting.jsonable", "reporting._walk"}


def _label_literals(arg: ast.expr, fn: ast.AST) -> list[str]:
    """The labels a ``charge`` argument can be: a literal, an f-string up to
    its first field, or every literal assigned in ``fn`` to the name passed."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [arg.value]
    if isinstance(arg, ast.JoinedStr):
        head = itertools.takewhile(lambda part: isinstance(part, ast.Constant), arg.values)
        return ["".join(part.value for part in head)]
    if isinstance(arg, ast.Name):
        return [node.value for assign in ast.walk(fn) if isinstance(assign, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == arg.id
                        for target in assign.targets for t in ast.walk(target))
                for node in ast.walk(assign.value)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    raise AssertionError(f"unreadable budget label {ast.unparse(arg)}")


def test_every_budget_label_is_documented():
    # README's budget section names each label ``src/`` charges, so that a
    # refusal's label can be looked up there.
    labels = set()
    for path in sorted(_PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "charge":
                continue
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                if getattr(f, "id", getattr(f, "attr", None)) == "charge":
                    labels.update(_label_literals(call.args[1], fn))
    assert {"descendant set at stage ", "difference counts for the shift criterion",
            "per-tuple slide scan with shifts"} <= labels
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Enumeration budget\n")[1].split("\n## ")[0]
    assert sorted(label for label in labels if f"`{label}" not in section) == []


@pytest.mark.parametrize("name, tree", _SOURCES)
def test_no_record_checks_itself_in_init(name, tree):
    # ``_replace`` skips ``__init__``; a record's checks go in ``_check``
    # behind ``errors.CheckedRecord``, whose ``_make`` reruns them.  Records
    # and their fields classes live in one module, so one file is enough.
    classes = [node for node in ast.walk(tree()) if isinstance(node, ast.ClassDef)]
    records = {"NamedTuple"}
    for cls in classes:  # ast.walk meets a base class before its subclasses
        if any(ast.unparse(base).split(".")[-1] in records for base in cls.bases):
            records.add(cls.name)
    offenders = [
        cls.name for cls in classes if cls.name in records and any(
            isinstance(node, ast.FunctionDef) and node.name == "__init__"
            for node in cls.body
        )
    ]
    assert offenders == [], f"{name}: {offenders} define __init__ over a NamedTuple"


@pytest.mark.parametrize(
    "good, field, bad, error",
    [
        (ranklab.Certificate("asymmetry", "holds", {}, {}, "sha256:0"),
         "verdict", "bogus", ranklab.PreconditionViolated),
        (ranklab.ProductQuery((1, 1), (0, 0), 0, 2),
         "horizon", -5, ranklab.ParamOutOfRange),
        (ranklab.PatternQuery(2, (0, 1), 1, 3),
         "arity", 0, ranklab.ParamOutOfRange),
        (ranklab.MeasureInterval(1, 2), "confirmed", -1, AssertionError),
        (ranklab.InfChaconParams(3, 1, 6, 2), "t", 1, ranklab.ParamOutOfRange),
        (ranklab.TQParams(4, 1, (0,)), "positions", (0, 1),
         ranklab.ParamOutOfRange),
        (ranklab.AsymmParams(2, 3, 4, 2), "separation_factor", 1,
         ranklab.ParamOutOfRange),
        (ranklab.DigitAlphabet(9, (0, 2, 3, 5, 6, 8)), "k", 1,
         ranklab.ParamOutOfRange),
        # A bool is an int to isinstance and compares as 0 or 1.
        (ranklab.DigitAlphabet(2, (0, 1)), "digits", (False, True),
         ranklab.PreconditionViolated),
        (ranklab.ProductQuery((1, 1), (0, 0), 0, 2), "base_stage", False,
         ranklab.ParamOutOfRange),
        (ranklab.ProductQuery((1, 1), (0, 0), 0, 2), "horizon", True,
         ranklab.ParamOutOfRange),
        (ranklab.PatternQuery(2, (0, 1), 1, 3), "base_stage", True,
         ranklab.ParamOutOfRange),
        (ranklab.PatternQuery(2, (0, 1), 0, 3), "cutoff", True,
         ranklab.ParamOutOfRange),
        (ranklab.PatternQuery(2, (0, 1), 1, 3), "dconst", True,
         ranklab.ParamOutOfRange),
        (ranklab.InfChaconParams(3, 1, 6, 2), "q", True, ranklab.ParamOutOfRange),
        (ranklab.InfChaconParams(3, 1, 6, 2), "m0", True, ranklab.ParamOutOfRange),
        (ranklab.TQParams(4, 1, (0,)), "q", True, ranklab.ParamOutOfRange),
        (ranklab.TQParams(4, 1, (0,)), "positions", (False,), ranklab.ParamOutOfRange),
        (ranklab.MeasureInterval(1, 2), "confirmed", True, AssertionError),
    ],
    ids=["Certificate", "ProductQuery", "PatternQuery", "MeasureInterval",
         "InfChaconParams", "TQParams", "AsymmParams", "DigitAlphabet",
         "DigitAlphabet-bool-digits", "ProductQuery-bool-base_stage",
         "ProductQuery-bool-horizon", "PatternQuery-bool-base_stage",
         "PatternQuery-bool-cutoff", "PatternQuery-bool-dconst",
         "InfChaconParams-bool-q", "InfChaconParams-bool-m0", "TQParams-bool-q",
         "TQParams-bool-positions", "MeasureInterval-bool-confirmed"],
)
def test_replace_checks_like_the_constructor(good, field, bad, error):
    with pytest.raises(error):
        type(good)(**{**good._asdict(), field: bad})
    with pytest.raises(error):
        good._replace(**{field: bad})


_STARTUP_PROBE = """
import contextlib, io, json, sys
import ranklab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ranklab.cli.run(sys.argv[1:])
watched = ("ranklab.certificates", "ranklab.sumsets", "ranklab.digits", "ranklab.families",
           "ranklab.handlers", "dataclasses", "_hashlib")
order = list(sys.modules)  # in import order
early = order[: order.index("argparse")]
print(json.dumps([code, sorted(m for m in order if m.startswith(watched)),
                  [m for m in early if m.startswith(watched)]]))
"""


def _family(kind):
    """Modules a spec of family ``kind`` loads: the package and that kind's part."""
    return ["ranklab.families", f"ranklab.families.{kind}"]


def _handlers(group, *others):
    """A command's handler module, with the package, then ``others``."""
    return ["ranklab.handlers", f"ranklab.handlers.{group}", *others]


def _certificate_part(part, family, *others):
    """Modules a certificate command on a family spec loads, maybe sumsets too."""
    return ["ranklab.certificates", f"ranklab.certificates.{part}",
            *_family(family), *_handlers("certificates", *others)]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("heights", "--spec", spec_path("chacon.json"), "--stages", "4"),
         [*_family("inf_chacon"), *_handlers("columns")]),
        (("gaps", "--k", "9", "--alphabet", "0,2,3,5,6,8", "--digits", "3"),
         ["ranklab.digits", *_handlers("digits")]),  # no difference half
        (
            ("npc", "--spec", spec_path("chacon.json"), "--kappa", "13", "--horizon", "6"),
            _certificate_part("npc", "inf_chacon", "ranklab.sumsets"),
        ),
        # families load no sumsets, and a spec loads its own family part alone
        (("validate", "--spec", spec_path("asymm.json")),
         [*_family("asymm"), *_handlers("columns")]),
        (("validate", "--spec", spec_path("tq41.json")),
         [*_family("tq"), *_handlers("columns")]),
        # Every other certificate command: its own part, no other, no dataclasses.
        (
            ("conservativity", "--spec", spec_path("chacon.json"), "--multipliers", "1,1",
             "--base", "0", "--horizon", "2"),
            _certificate_part("products", "inf_chacon", "ranklab.sumsets"),  # no digit half
        ),
        (
            ("ergodic-match", "--spec", spec_path("chacon.json"), "--multipliers", "1,-1",
             "--shifts", "0,1", "--base", "1", "--horizon", "2"),
            _certificate_part("matching", "inf_chacon", "ranklab.sumsets"),
        ),
        (
            ("pattern", "--spec", spec_path("chacon.json"), "--moves", "0,1", "--base", "1",
             "--cutoff", "3"),
            _certificate_part("matching", "inf_chacon", "ranklab.sumsets"),
        ),
        (  # an explicit spec: no family part
            ("mixing", "--spec", spec_path("mixing_window.json"), "--base", "0:0",
             "--shifts", "0,10,40"),
            ["ranklab.certificates", "ranklab.certificates.mixing",
             *_handlers("certificates", "ranklab.sumsets")],
        ),
        (  # both halves: the digits for gamma, the differences for the witness check
            ("pwm", "--spec", spec_path("tq41.json"), "--alpha", "2,-3", "--shifts", "0,1,2",
             "--base", "1"),
            ["ranklab.certificates", "ranklab.certificates.pwm", "ranklab.digits",
             *_family("tq"), *_handlers("certificates", "ranklab.sumsets")],
        ),
        (
            ("non-ergodic", "--spec", spec_path("chacon.json"), "--alpha", "1,2",
             "--shifts", "0,1", "--base", "0", "--horizon", "3"),
            _certificate_part("products", "inf_chacon", "ranklab.sumsets"),
        ),
        (  # the only certificate command that needs no sumsets
            ("asymmetry", "--spec", spec_path("chacon.json"), "--base", "1", "--scale", "1",
             "--eval", "5"),
            _certificate_part("asymmetry", "inf_chacon"),
        ),
        (("validate", "--spec", spec_path("mixing_window.json")), _handlers("columns")),
        (("gamma", "--spec", spec_path("tq41.json"), "--multipliers", "2,3"),
         ["ranklab.digits", *_family("tq"), *_handlers("digits")]),  # no difference half
        (("diffset", "--spec", spec_path("chacon.json"), "--base", "1:0", "--to", "3"),
         [*_family("inf_chacon"), *_handlers("differences", "ranklab.sumsets")]),  # no digits
    ],
)
def test_startup_loads_only_what_the_command_needs(argv, loaded):
    # Every watched module a run loads; none loads OpenSSL's ``_hashlib``.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    code, modules, early = json.loads(proc.stdout)
    assert [code, modules] == [0, loaded]
    # ``run`` imports the module the command table names, and with it the
    # handler module, before argparse: for a certificate command, its part.
    first = ranklab.cli._COMMANDS[argv[0]][2]
    handler = "certificates" if f"certificates.{first}" in ranklab._EXPORTS else first
    part = [f"ranklab.certificates.{first}"] if handler == "certificates" else []
    assert {*part, f"ranklab.handlers.{handler}"} <= set(early)


def test_certificate_commands_are_the_ones_that_import_certificates():
    # ``run`` imports the part of ``certificates`` the table names first (peak
    # RSS), so a certificate command's handler imports that part and no other,
    # inside the function, and no other handler imports ``certificates``.
    import ranklab.handlers.certificates as handlers

    parts, in_handlers = set(), 0
    for name, (_, _, group) in ranklab.cli._COMMANDS.items():
        part = group if f"certificates.{group}" in ranklab._EXPORTS else None
        module = handlers if part else importlib.import_module(f"ranklab.handlers.{group}")
        handler = getattr(module, "_cmd_" + name.replace("-", "_"))
        source = inspect.getsource(handler)
        imported = re.findall(r"from \.\.certificates\.(\w+) import", source)
        assert imported == ([] if part is None else [part]), name
        if part is None:
            assert "certificates" not in inspect.getsource(module), name
        in_handlers += len(imported)
        # ``run`` loads the spec or digit alphabet; no handler loads its own.
        assert not re.search(r"\b(_load|_digit_alphabet)\(", source), name
        parts.add(part)
    assert parts - {None} == {
        key.partition(".")[2] for key in ranklab._EXPORTS if key.startswith("certificates.")
    }
    # Each handler imports its own part; the module itself imports none.
    assert inspect.getsource(handlers).count("from ..certificates.") == in_handlers


def test_package_exports_resolve_on_first_use():
    assert set(ranklab.__all__) <= set(dir(ranklab))
    for name in ranklab.__all__:
        getattr(ranklab, name)
    assert ranklab.MatchWitness is ranklab.certificates.MatchWitness
    with pytest.raises(AttributeError):
        ranklab.no_such_name


def test_certificate_exports_resolve_on_first_use():
    import ranklab.certificates as certificates

    assert set(certificates.__all__) <= set(dir(certificates))
    for name in certificates.__all__:
        value = getattr(certificates, name)
        assert getattr(ranklab, name, value) is value
        module = getattr(value, "__module__", certificates.__name__)
        assert module.startswith(certificates.__name__), name
    assert certificates.mixing_decay is certificates.mixing.mixing_decay
    with pytest.raises(AttributeError):
        certificates.no_such_name


def test_public_names_are_listed_once():
    # ``ranklab._EXPORTS`` is the one list of public names; a module takes its
    # ``__all__`` from it.  Only ``cli`` and ``_budget``, whose names ranklab
    # does not export, write theirs out.
    package = REPO / "src" / "ranklab"
    literal = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                literal.add(path.relative_to(package).as_posix())
    assert literal == {"cli.py", "_budget.py"}


@pytest.mark.parametrize("key", list(ranklab._EXPORTS))
def test_each_public_name_is_defined_where_the_table_says(key):
    # A function's ``__module__`` is its key, so a tracer that matches
    # ``__module__`` against a module name, as the benchmark's does, finds each
    # public function under the module that defines it.
    module = importlib.import_module(f"ranklab.{key}")
    package = importlib.import_module(f"ranklab.{key.partition('.')[0]}")
    for name in ranklab._EXPORTS[key]:
        value = getattr(module, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == f"ranklab.{key}", name
        assert getattr(ranklab, name) is value, name
        assert getattr(package, name) is value, name


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in COMMANDS:
        assert command in out


# ---------------------------------------------------------------------------
# every command under random arguments

_SPEC_FILES = sorted(str(p) for p in (REPO / "specs").glob("*.json"))
# Stages that must lie below another flag's are drawn from the low end, so
# that most runs get past the argument checks into the computation.
_LOW_STAGES = {"--base", "--start", "--scale", "--stage"}
_LIST_ENTRY = st.one_of(st.sampled_from([-1, 0, 1, 2]), st.integers(-2, 12))


def _value_text(option, kind, arity):
    """Strategy for the well-formed text of one flag's value, kept small.

    List flags get ``arity`` entries, or one more (``pwm``'s shifts).
    """
    c = ranklab.cli
    top = 2 if option in _LOW_STAGES else 6
    return {
        c._int_arg: st.integers(-20, 400).map(str),
        c._positive_int: st.integers(1, max(top, 3)).map(str),
        c._nonneg_int: st.integers(0, top).map(str),
        c._level_arg: st.builds("{}:{}".format, st.integers(0, 2), st.integers(0, 3)),
        c._int_list: st.sampled_from([arity, arity, arity + 1]).flatmap(
            lambda n: st.lists(_LIST_ENTRY, min_size=n, max_size=n)
        ).map(lambda xs: ",".join(map(str, xs))),
        c._fraction_arg: st.sampled_from(["1/10", "0", "1", "-1/2", "9/10"]),
        None: st.sampled_from(_SPEC_FILES),
    }[kind]


_MALFORMED = st.sampled_from(["", "x", "0", "-1", "1,,2", "1:", "-", "no_such_spec.json"])


def _valid_runs():
    """The benchmark's ``cli`` runs, one per command and more: argv that work."""
    jobs = _perfbench_jobs()
    runs = [jobs.instantiate(template, 1) for template in jobs.templates("cli")]
    return [[str(REPO / a) if a.startswith("specs/") else a for a in argv] for argv in runs]


_VALID_RUNS = st.sampled_from(_valid_runs())


@st.composite
def _argv(draw, runs=_VALID_RUNS, spec=None):
    """A working run with each flag kept, redrawn, malformed or left out; with
    ``spec``, ``--spec`` always names that file."""
    command, *rest = draw(runs)
    known = dict(zip(rest[::2], rest[1::2]))
    argv = [command]
    arity = draw(st.integers(1, 3))
    for option, kwargs in ranklab.cli._COMMANDS[command][1]:
        choice = draw(st.integers(0, 19))
        if option == "--spec" and spec is not None:
            value = spec
        elif option in known and choice < 8:
            value = known[option]
        elif choice < (17 if option in known or kwargs.get("required") else 5):
            value = draw(_value_text(option, kwargs["type"], arity))
        elif choice == 17:
            value = draw(_MALFORMED)
        else:
            continue
        argv += [option, value]
    if draw(st.booleans()):
        argv.append("--approx")
    return argv


def _assert_report_or_usage(argv):
    """``argv`` either exits 64 with a usage message and no report, or exits
    0/1/2 with one valid report and nothing on stderr (no traceback)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"RANKLAB_BUDGET": "100000"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 64:
        assert out.getvalue() == "" and err.getvalue().startswith("usage error: "), argv
        return
    assert code in (0, 1, 2) and err.getvalue() == "", (argv, err.getvalue())
    payload = json.loads(out.getvalue())
    assert validate_report(payload) == [], argv
    assert payload["command"] == argv[0]
    assert ("error" in payload["result"]) == (code == 1), argv


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_every_command_yields_a_report_or_a_usage_error(argv):
    # The budget keeps every run small; the benchmark's npc run is refused by it.
    _assert_report_or_usage(argv)


# Spec files: explicit stages, each family at and past the edges of its
# parameter ranges, every extension mode, and malformed values or text.  The
# valid values come first, which Hypothesis draws most.
_SPACER = st.one_of(st.integers(0, 12), st.integers(0, 10**12))
_STAGE = st.sampled_from([2, 3, 4, 5, 6, 1]).flatmap(lambda r: st.fixed_dictionaries(
    {"r": st.just(r), "s": st.lists(_SPACER, min_size=r, max_size=r)}))
_EXPLICIT = st.fixed_dictionaries(
    {"h0": st.integers(1, 5), "stages": st.lists(_STAGE, min_size=1, max_size=4)},
    optional={"extension": st.sampled_from(["repeat-last", "error", "rule"])})
_BAD_VALUE = st.sampled_from([None, True, -1, 0, 1.5, "2", [], {}, [0, "x"], {"r": 2}])
_NOT_A_SPEC = st.sampled_from(["", "{", "[]", "null", "{}", "[1, 2]", '{"stages": []}'])


@st.composite
def _family(draw):
    """A family spec of each kind, its parameters at or just past their edges."""
    kind = draw(st.sampled_from(["asymm", "inf_chacon", "tq", "explicit"]))
    if kind == "asymm":
        block = {"k": draw(st.sampled_from([1, 2, 3, 0])),
                 "p": draw(st.sampled_from([None, 2, 3, 1])),
                 "stages": draw(st.integers(0, 120) | st.just(-1)),
                 "separationFactor": draw(st.sampled_from([2, 3, 1]))}
    elif kind == "inf_chacon":
        t = draw(st.integers(2, 5) | st.just(1))
        block = {"t": t, "q": draw(st.sampled_from([*range(1, t + 1), 0])),
                 "m1": 2 * t + draw(st.sampled_from([0, 1, 3, -1])),
                 "m0": draw(st.sampled_from([1, 2, 0]))}
    elif kind == "tq":
        t = draw(st.integers(3, 6) | st.just(2))
        positions = sorted(draw(st.lists(st.integers(0, t - 1), max_size=3, unique=True)))
        block = {"t": t, "q": len(positions) + draw(st.sampled_from([0, 0, 1])),
                 "positions": positions}
    else:
        block = draw(_EXPLICIT)
    return {"family": {"kind": kind, **block}}


def _paths(value, path=()):
    """The path to every value nested in ``value``."""
    if isinstance(value, (dict, list)):
        for key in (value if isinstance(value, dict) else range(len(value))):
            yield (*path, key)
            yield from _paths(value[key], (*path, key))


@st.composite
def _spec_text(draw):
    """A spec file's text, at times with one value malformed or a key added."""
    payload = draw(st.one_of(_EXPLICIT, _family()))
    how = draw(st.sampled_from(["as drawn"] * 6 + ["bad value", "added key", "not a spec"]))
    if how == "bad value":
        *path, key = draw(st.sampled_from(list(_paths(payload))))
        block = payload
        for step in path:
            block = block[step]
        block[key] = draw(_BAD_VALUE)
    elif how == "added key":
        key = draw(st.sampled_from(["h0", "stages", "extension", "family", "x"]))
        payload[key] = draw(_BAD_VALUE | _EXPLICIT)
    elif how == "not a spec":
        return draw(_NOT_A_SPEC)
    return json.dumps(payload)


_DRAWN_SPEC = "drawn-spec.json"
_SPEC_RUNS = st.sampled_from([argv for argv in _valid_runs() if "--spec" in argv])


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(text=_spec_text(), argv=_argv(_SPEC_RUNS, _DRAWN_SPEC))
# An int past the interpreter's digit limit, which json.loads refuses with a
# bare ValueError.
@example(text='{"h0": 1' + "0" * 4400 + ', "stages": [{"r": 2, "s": [0, 0]}]}',
         argv=["validate", "--spec", _DRAWN_SPEC])
def test_every_drawn_spec_file_yields_a_report_or_a_usage_error(text, argv, tmp_path):
    path = tmp_path / _DRAWN_SPEC
    path.write_text(text, encoding="utf-8")
    _assert_report_or_usage([str(path) if a == _DRAWN_SPEC else a for a in argv])
