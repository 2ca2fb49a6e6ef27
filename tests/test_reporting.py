"""Canonical report serialization, fingerprints, and schema validation."""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter, namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ranklab import (
    IntegerTooLong,
    IoError,
    Report,
    TOOL_VERSION,
    canonical_json,
    emit_report,
    fingerprint,
    jsonable,
    report_fingerprint,
    report_payload,
    validate_report,
)
from ranklab.reporting import _writable


def test_jsonable_fractions_become_string_pairs():
    assert jsonable(Fraction(65, 81)) == {"num": "65", "den": "81"}
    assert jsonable(Fraction(-1, 3)) == {"num": "-1", "den": "3"}
    # Huge values survive as decimal strings, no precision cliff.
    big = Fraction(1, 4**50)
    assert jsonable(big)["den"] == str(4**50)


def test_jsonable_containers():
    assert jsonable({3, 1, 2}) == [1, 2, 3]
    assert jsonable((1, (2, 3))) == [1, [2, 3]]
    assert jsonable({1: "x"}) == {"1": "x"}
    assert jsonable(True) is True
    assert jsonable(None) is None

    # ranklab's records are NamedTuples; a dataclass is not a report value.
    @dataclass(frozen=True)
    class Row:
        stage: int
        ratio: Fraction

    with pytest.raises(TypeError, match="Row"):
        jsonable(Row(2, Fraction(1, 2)))


def test_jsonable_refuses_ints_too_long_to_write():
    # The limit is exact: limit digits are written, limit + 1 are refused,
    # as values, fraction parts and mapping keys alike.
    limit = sys.get_int_max_str_digits()
    longest = 10**limit - 1
    assert jsonable(longest) == longest
    assert jsonable(-longest) == -longest
    assert jsonable(2 ** (3 * limit)) == 2 ** (3 * limit)  # past the bit-length test
    assert jsonable({longest: Fraction(1, longest)})[str(longest)]["den"] == str(longest)
    for value in (10**limit, -(10**limit), Fraction(1, 10**limit), {10**limit: 0}, [0, 10**limit]):
        with pytest.raises(IntegerTooLong, match=f"more than {limit} decimal digits"):
            jsonable(value)
    sys.set_int_max_str_digits(0)  # no limit
    try:
        assert jsonable(10**limit) == 10**limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError):
        jsonable(object())
    with pytest.raises(TypeError):
        jsonable(3 + 4j)


def _reflective_jsonable(value):
    """``jsonable`` as it was before its exact-type tests: the slow oracle."""
    if isinstance(value, int):  # bool is an int
        return _writable(value)
    if value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, Fraction):
        return {
            "num": str(_writable(value.numerator)),
            "den": str(_writable(value.denominator)),
        }
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return {name: _reflective_jsonable(v) for name, v in value._asdict().items()}
    if isinstance(value, Mapping):
        return {str(_writable(k)): _reflective_jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [_reflective_jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [_reflective_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


class _Pair(NamedTuple):
    left: Any
    right: Any


_Triple = namedtuple("_Triple", "a b c")


class _Count(int):
    pass


class _Name(str):
    pass


def _edge_int(edge, step, sign):
    """An int on either side of the 1,920-bit shortcut or of the digit limit."""
    top = 2**1920 if edge == "bits" else 10 ** sys.get_int_max_str_digits()
    return sign * (top + step)


# Drawn by name: Hypothesis cannot show an int past the digit limit.
_INTS = st.integers() | st.builds(
    _edge_int, st.sampled_from(["bits", "digits"]), st.sampled_from([-1, 0]),
    st.sampled_from([1, -1]),
)
# Subclasses of int and str take the isinstance tests.
_KEYS = _INTS | st.booleans() | st.text(max_size=3) | st.builds(_Count, _INTS)
_LEAVES = (
    _INTS | st.booleans() | st.none() | st.text(max_size=3)
    | st.builds(_Count, _INTS) | st.builds(_Name, st.text(max_size=3))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.builds(Fraction, _INTS, _INTS.filter(bool))
    | st.builds(bytes, st.integers(0, 3))
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (
        st.dictionaries(_KEYS, inner, max_size=4)
        | st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.builds(_Pair, inner, inner)
        | st.builds(_Triple, inner, inner, inner)
        | st.dictionaries(_KEYS, st.integers(), max_size=4).map(Counter)
        | st.sets(_INTS, max_size=4)
        | st.frozensets(st.text(max_size=3), max_size=4)
    ),
    max_leaves=12,
)


def _outcome(convert, value):
    try:
        return "value", repr(convert(value))
    except (IntegerTooLong, TypeError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(value=_VALUES)
@example(value=[_Count(2**1920), {_Count(-(2**1920)): _Name("x")}])
@example(value=(_Count(10 ** sys.get_int_max_str_digits()),))
def test_jsonable_matches_the_reflective_version(value):
    # Same JSON-ready value (repr tells True from 1), or the same error.
    assert _outcome(jsonable, value) == _outcome(_reflective_jsonable, value)


def test_canonical_json_is_sorted_compact_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}\n'
    with pytest.raises(ValueError):
        canonical_json({"approx": float("nan")})


def test_fingerprint_ignores_key_insertion_order():
    one = fingerprint({"a": 1, "b": 2})
    two = fingerprint({"b": 2, "a": 1})
    assert one == two
    assert one.startswith("sha256:")
    assert len(one) == len("sha256:") + 64
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200)
@given(payload=_JSON)
def test_fingerprint_is_hashlib_sha256(payload):
    # The builtin SHA-256 and the hashlib fallback, used where the interpreter
    # has no builtin module, both give hashlib's digest.
    from ranklab import reporting

    want = "sha256:" + hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
    assert fingerprint(payload) == want
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("_sha2", "_sha256"):  # masked: importing them raises ImportError
            monkeypatch.setitem(sys.modules, name, None)
        reporting._sha256.cache_clear()
        assert reporting._sha256() is hashlib.sha256
        assert fingerprint(payload) == want
    reporting._sha256.cache_clear()
    assert reporting._sha256() is not hashlib.sha256
    assert fingerprint(payload) == want


def _report(duration: int = 7) -> Report:
    return Report(
        command="heights",
        spec_fingerprint=fingerprint({"h0": 1}),
        inputs={"stages": 4},
        result={"heights": [1, 8, 50, 302], "width": Fraction(1, 9)},
        evidence={"rows": [{"stage": 1, "approx": {"width": 0.111}}]},
        duration_ms=duration,
    )


def test_report_payload_uses_camel_case_envelope():
    payload = report_payload(_report())
    assert set(payload) == {
        "command",
        "toolVersion",
        "specFingerprint",
        "inputs",
        "result",
        "evidence",
        "durationMs",
    }
    assert payload["toolVersion"] == TOOL_VERSION
    assert payload["result"]["width"] == {"num": "1", "den": "9"}


def test_report_fingerprint_is_duration_blind():
    assert report_fingerprint(_report(1)) == report_fingerprint(_report(99999))
    # ... but the emitted payload itself still carries the duration.
    assert report_payload(_report(42))["durationMs"] == 42


def test_emit_report_writes_canonical_text(tmp_path, capsys):
    report = _report()
    out = tmp_path / "report.json"
    text = emit_report(report, str(out))
    assert out.read_text() == text
    assert text.endswith("\n")
    assert json.loads(text) == report_payload(report)
    # No path: the same bytes go to stdout.
    emit_report(report)
    assert capsys.readouterr().out == text


def test_emit_report_wraps_write_failures(tmp_path):
    with pytest.raises(IoError):
        emit_report(_report(), str(tmp_path / "missing" / "r.json"))


def test_validate_report_accepts_real_payload():
    assert validate_report(report_payload(_report())) == []


def test_validate_report_flags_problems():
    assert validate_report([]) == ["report must be a JSON object"]

    payload = report_payload(_report())
    payload["result"]["loose"] = 0.5
    assert any("floating point" in p for p in validate_report(payload))

    payload = report_payload(_report())
    payload["result"]["width"] = {"num": "1"}
    assert any("partial rational" in p for p in validate_report(payload))

    payload = report_payload(_report())
    payload["result"]["width"] = {"num": "1", "den": "-9"}
    problems = validate_report(payload)
    assert any("decimal" in p or "positive" in p for p in problems)

    payload = report_payload(_report())
    payload["result"]["width"] = {"num": "1", "den": "0"}
    assert any("nonzero" in p for p in validate_report(payload))

    payload = report_payload(_report())
    payload["result"]["width"] = {"num": "01", "den": "9"}
    assert any("decimal strings" in p for p in validate_report(payload))

    payload = report_payload(_report())
    payload["specFingerprint"] = "md5:nope"
    assert any("sha256" in p for p in validate_report(payload))

    payload = report_payload(_report())
    payload["durationMs"] = -3
    assert any("durationMs" in p for p in validate_report(payload))

    payload = report_payload(_report())
    payload["durationMs"] = True
    assert any("durationMs" in p for p in validate_report(payload))

    payload = report_payload(_report())
    del payload["evidence"]
    payload["extras"] = {}
    problems = validate_report(payload)
    assert any("missing" in p for p in problems)
    assert any("unknown" in p for p in problems)

    payload = report_payload(_report())
    payload["inputs"] = [1, 2]
    assert any("must be an object" in p for p in validate_report(payload))

    payload = report_payload(_report())
    payload["result"] = {1: "x"}
    assert any("non-string key" in p for p in validate_report(payload))


def test_validate_report_allows_floats_only_under_approx():
    payload = report_payload(_report())
    # The fixture already nests a float under an approx block.
    assert validate_report(payload) == []
    payload["evidence"]["rows"][0]["approx"]["nested"] = {"deeper": 0.25}
    assert validate_report(payload) == []
