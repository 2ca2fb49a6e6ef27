"""Spec-file parsing: strictness, round-trips, and fingerprints."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import spec_path
import ranklab.specio as specio
from ranklab import (
    BudgetExceeded,
    IoError,
    SpecFileError,
    TQParams,
    load_spec,
    parse_spec,
    spec_fingerprint,
    spec_payload,
    tq_params_of,
)

REPO = Path(__file__).resolve().parent.parent


def test_minimal_explicit_spec_defaults():
    spec = parse_spec({"stages": [{"r": 3, "s": [0, 1, 25]}]})
    assert spec.h0 == 1
    assert spec.extension == "error"
    assert spec.height(1) == 29


@pytest.mark.parametrize(
    "payload",
    [
        "not an object",
        {"stages": [{"r": 3, "s": [0, 0, 0]}], "bogus": 1},
        {"h0": 1},
        {"family": {"kind": "tq", "t": 4, "q": 1, "positions": [1]}, "h0": 1},
        {"stages": []},
        {"stages": [{"r": 3}]},
        {"stages": [{"r": 3, "s": [0, 0, 0], "note": "hi"}]},
        {"stages": [{"r": True, "s": [0, 0, 0]}]},
        {"stages": [{"r": 3, "s": [0, False, 0]}]},
        {"stages": [{"r": 3, "s": [0, 0, 0]}], "h0": True},
        {"stages": [{"r": 3, "s": [0, 0, 0]}], "extension": "loop"},
        {"family": {"kind": "mystery"}},
        {"family": {"kind": "inf_chacon", "t": 3, "q": 1, "m1": 6}},
        {"family": {"kind": "inf_chacon", "t": 3, "q": 1, "m1": 6, "m0": 2, "x": 0}},
        {"family": {"kind": "tq", "t": 4, "q": 1, "positions": 1}},
        {"family": "tq"},
        {"family": {"kind": "explicit", "extension": "repeat-last"}},
    ],
)
def test_malformed_payloads_are_rejected(payload):
    with pytest.raises(SpecFileError):
        parse_spec(payload)


def test_family_block_is_the_only_key(chacon):
    # The guarded mixing above covers rejection; the pure form must work.
    spec = parse_spec({"family": {"kind": "inf_chacon", "t": 3, "q": 1, "m1": 6, "m0": 2}})
    assert spec_fingerprint(spec) == spec_fingerprint(chacon)


def test_explicit_family_kind_equals_toplevel_explicit():
    top = parse_spec({"h0": 2, "stages": [{"r": 2, "s": [0, 3]}]})
    nested = parse_spec(
        {"family": {"kind": "explicit", "h0": 2, "stages": [{"r": 2, "s": [0, 3]}]}}
    )
    assert spec_fingerprint(top) == spec_fingerprint(nested)


def test_asymm_family_allows_null_exponent():
    spec = parse_spec(
        {"family": {"kind": "asymm", "k": 1, "p": None, "stages": 3, "separationFactor": 2}}
    )
    assert spec.family is not None
    assert spec.height(1) > spec.height(0)


@pytest.mark.parametrize(
    "name",
    ["chacon", "chacon_q2", "tq41", "all_but_last", "dyadic", "mixing_window", "asymm"],
)
def test_payload_round_trip_preserves_fingerprint(name, request):
    spec = request.getfixturevalue(name)
    again = parse_spec(spec_payload(spec))
    assert spec_fingerprint(again) == spec_fingerprint(spec)
    # Payloads also survive the canonical JSON reporting layer untouched.
    assert spec_payload(again) == spec_payload(spec)


def test_fingerprints_distinguish_specs(chacon, chacon_q2):
    assert spec_fingerprint(chacon) != spec_fingerprint(chacon_q2)


def test_tq_params_recovery(tq41, chacon, dyadic):
    assert tq_params_of(tq41) == TQParams(t=4, q=1, positions=(1,))
    assert tq_params_of(chacon) is None
    assert tq_params_of(dyadic) is None


def test_load_spec_errors(tmp_path):
    with pytest.raises(IoError):
        load_spec(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_spec(str(bad))


def test_explicit_payload_shape(dyadic):
    payload = spec_payload(dyadic)
    assert payload == {
        "h0": 1,
        "stages": [{"r": 2, "s": [0, 0]}],
        "extension": "repeat-last",
    }


# ---------------------------------------------------------------------------
# the in-process spec table: each file text is built once, each call gets a copy

_CHILD_LOAD = """
import json, os, sys
from ranklab import BudgetExceeded, load_spec
path, stage = sys.argv[1:]
try:
    if stage:
        budget = os.environ.pop("RANKLAB_BUDGET")
        spec = load_spec(path)
        os.environ["RANKLAB_BUDGET"] = budget
        spec.height(int(stage))
    else:
        load_spec(path)
except BudgetExceeded as exc:
    print(json.dumps([exc.what, exc.units]))
"""


def _fresh_refusal(path, budget, stage=""):
    """``(label, units)`` of the refusal a fresh process meets under *budget*: as
    it loads *path*, or with a *stage*, as it materializes that stage on a spec
    it loaded at the default budget."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), RANKLAB_BUDGET=budget)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_LOAD, path, str(stage)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("name", ["chacon.json", "asymm.json", "dyadic.json"])
def test_each_load_is_a_new_spec_without_earlier_stages(name):
    first = load_spec(spec_path(name))
    built = len(first._stages)
    first.height(built + 3)
    second = load_spec(spec_path(name))
    assert second is not first
    assert len(second._stages) == built
    assert len(first._stages) == built + 3
    assert spec_fingerprint(second) == spec_fingerprint(first)
    assert second.height(built + 3) == first.height(built + 3)


def test_a_spec_and_its_copies_hash_one_fingerprint(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text('{"stages": [{"r": 5, "s": [0, 1, 2, 3, 4]}]}')
    hashed, real = [], specio.fingerprint
    monkeypatch.setattr(specio, "fingerprint", lambda payload: hashed.append(payload) or real(payload))
    fingerprints = {spec_fingerprint(load_spec(str(path))) for _ in range(3)}
    assert len(hashed) == 1
    # The value is that of the payload, as for a spec built by hand.
    by_hand = parse_spec({"stages": [{"r": 5, "s": [0, 1, 2, 3, 4]}]})
    assert fingerprints == {real(spec_payload(by_hand))} == {spec_fingerprint(by_hand)}
    assert len(hashed) == 2


def test_spec_table_sees_a_rewritten_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"stages": [{"r": 2, "s": [0, 0]}], "extension": "repeat-last"}')
    assert load_spec(str(path)).height(3) == 8
    path.write_text('{"stages": [{"r": 3, "s": [0, 0, 0]}], "extension": "repeat-last"}')
    assert load_spec(str(path)).height(3) == 27
    path.unlink()
    with pytest.raises(IoError):
        load_spec(str(path))


def test_spec_table_stores_no_failure(tmp_path):
    missing, bad = str(tmp_path / "nope.json"), tmp_path / "bad.json"
    bad.write_text('{"stages": [')
    for _ in range(3):
        with pytest.raises(IoError):
            load_spec(missing)
        with pytest.raises(SpecFileError, match="not valid JSON"):
            load_spec(str(bad))
    bad.write_text('{"stages": []}')
    for _ in range(2):
        with pytest.raises(SpecFileError, match="nonempty"):
            load_spec(str(bad))


def test_spec_table_charges_the_budget_as_a_fresh_process(monkeypatch):
    # asymm's prefix charges its separation scans (up to 2,000 units) when it
    # is built.  Under a lower budget the table holds no build, so the load is
    # refused as in a fresh process; so is a later stage, though an earlier
    # copy materialized it at the default budget.
    path = spec_path("asymm.json")
    monkeypatch.delenv("RANKLAB_BUDGET", raising=False)
    load_spec(path).height(8)
    monkeypatch.setenv("RANKLAB_BUDGET", "1999")
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as info:
            load_spec(path)
        assert (info.value.what, info.value.units) == _fresh_refusal(path, "1999")
        assert info.value.units == 2000
    monkeypatch.delenv("RANKLAB_BUDGET")
    spec = load_spec(path)
    monkeypatch.setenv("RANKLAB_BUDGET", "5000")
    with pytest.raises(BudgetExceeded) as info:
        spec.height(8)
    assert (info.value.what, info.value.units) == _fresh_refusal(path, "5000", 8)
    assert info.value.units == 5488
