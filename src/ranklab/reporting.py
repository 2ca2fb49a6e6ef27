"""Deterministic JSON reports with stable content fingerprints.

Reports serialize through a canonical form — sorted keys, compact separators,
a single trailing newline — so identical computations produce byte-identical
output.  Exact rationals become ``{"num": "...", "den": "..."}`` pairs with
decimal-string values; floating point appears only inside ``approx`` blocks,
which are advisory renderings and never authoritative.  The report
fingerprint hashes the canonical form with ``durationMs`` removed, so timing
noise never changes it.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Mapping, NamedTuple

from ._version import __version__
from .errors import IntegerTooLong, IoError, is_plain_int

__all__ = [
    "TOOL_VERSION",
    "jsonable",
    "canonical_json",
    "fingerprint",
    "Report",
    "report_payload",
    "report_fingerprint",
    "emit_report",
    "validate_report",
]

TOOL_VERSION = __version__

REPORT_KEYS = {
    "command",
    "toolVersion",
    "specFingerprint",
    "inputs",
    "result",
    "evidence",
    "durationMs",
}

_DECIMAL = re.compile(r"^-?(0|[1-9][0-9]*)$")
_FINGERPRINT = re.compile(r"^sha256:[0-9a-f]{64}$")

# Python refuses to write an int of more than sys.get_int_max_str_digits()
# decimal digits (0: no limit; 3.10 before 3.10.7 has none).  The limit is
# never below 640 digits, and an int of at most 3 * 640 bits has fewer.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_ALWAYS_WRITABLE_BITS = 3 * 640


def _writable(value: Any) -> Any:
    """*value*, unless it is an int too long for the interpreter to write.

    ``10**limit`` has more than ``3 * limit`` bits, so the bit length settles
    all but the longest ints without computing it; no int is ever converted.
    """
    if isinstance(value, int) and value.bit_length() > _ALWAYS_WRITABLE_BITS:
        limit = _max_str_digits()
        if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
            raise IntegerTooLong(
                f"a report value of {value.bit_length()} bits has more than {limit}"
                " decimal digits, the interpreter's limit for writing an integer"
            )
    return value


def jsonable(value: Any) -> Any:
    """Convert exact values into JSON-ready structures.

    Fractions become num/den string pairs (ints could silently overflow in
    other JSON consumers; strings never do).  Sets are sorted, named tuples
    become field mappings, mapping keys are stringified.  An int too long to
    write raises :class:`~ranklab.errors.IntegerTooLong`; any other type,
    dataclasses included, raises ``TypeError``.

    The types reports are made of are tested by exact type first, then
    fractions and named tuples; subclasses and the rarer containers fall
    through to the ``isinstance`` tests below.
    """
    kind = type(value)
    if kind is int or kind is bool:
        return value if value.bit_length() <= _ALWAYS_WRITABLE_BITS else _writable(value)
    if kind is str or value is None or kind is float:
        return value
    if kind is dict:
        return {k if type(k) is str else str(_writable(k)): jsonable(v)
                for k, v in value.items()}
    if kind is list:
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return {
            "num": str(_writable(value.numerator)),
            "den": str(_writable(value.denominator)),
        }
    if isinstance(value, tuple) and hasattr(kind, "_fields"):
        return {name: jsonable(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (int, str, float)):
        return _writable(value)
    if isinstance(value, Mapping):
        return {str(_writable(k)): jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def canonical_json(payload: Any) -> str:
    return (
        json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
            allow_nan=False,
        )
        + "\n"
    )


def fingerprint(payload: Any) -> str:
    digest = _sha256()(canonical_json(payload).encode("ascii")).hexdigest()
    return f"sha256:{digest}"


@cache
def _sha256() -> Callable[[bytes], Any]:
    """SHA-256 from CPython's builtin module (``_sha2`` from 3.12, ``_sha256``
    before), which, unlike ``hashlib``, loads no OpenSSL (~4 MB resident)."""
    name = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    try:
        return importlib.import_module(name).sha256
    except ImportError:  # an interpreter built without it
        import hashlib

        return hashlib.sha256


class Report(NamedTuple):
    command: str
    spec_fingerprint: str
    inputs: Mapping[str, Any]
    result: Mapping[str, Any]
    evidence: Mapping[str, Any]
    duration_ms: int
    tool_version: str = TOOL_VERSION


def report_payload(report: Report) -> dict[str, Any]:
    return {
        "command": report.command,
        "toolVersion": report.tool_version,
        "specFingerprint": report.spec_fingerprint,
        "inputs": jsonable(report.inputs),
        "result": jsonable(report.result),
        "evidence": jsonable(report.evidence),
        "durationMs": report.duration_ms,
    }


def report_fingerprint(report: Report) -> str:
    payload = report_payload(report)
    del payload["durationMs"]
    return fingerprint(payload)


def emit_report(report: Report, path: str | None = None) -> str:
    """Write the canonical report to ``path`` (or stdout); returns the text."""
    text = canonical_json(report_payload(report))
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write report to {path}: {exc}") from exc
    return text


def _walk(value: Any, under_approx: bool, path: str, problems: list[str]) -> None:
    if isinstance(value, float):
        if not under_approx:
            problems.append(f"{path}: floating point outside an approx block")
        return
    if isinstance(value, dict):
        if "num" in value or "den" in value:
            if set(value) != {"num", "den"}:
                problems.append(f"{path}: partial rational object {sorted(value)}")
                return
            for part in ("num", "den"):
                v = value[part]
                if not isinstance(v, str) or not _DECIMAL.match(v):
                    problems.append(f"{path}.{part}: rational parts must be decimal strings")
            if isinstance(value.get("den"), str) and value["den"].startswith("-"):
                problems.append(f"{path}.den: denominator must be positive")
            if value.get("den") == "0":
                problems.append(f"{path}.den: denominator must be nonzero")
            return
        for k, v in value.items():
            if not isinstance(k, str):
                problems.append(f"{path}: non-string key {k!r}")
            _walk(v, under_approx or k == "approx", f"{path}.{k}", problems)
        return
    if isinstance(value, list):
        for idx, v in enumerate(value):
            _walk(v, under_approx, f"{path}[{idx}]", problems)
        return
    if value is None or isinstance(value, (str, bool, int)):
        return
    problems.append(f"{path}: unserializable value of type {type(value).__name__}")


def validate_report(payload: Any) -> list[str]:
    """Schema problems in a report payload; empty means valid."""
    if not isinstance(payload, dict):
        return ["report must be a JSON object"]
    problems: list[str] = []
    if set(payload) != REPORT_KEYS:
        missing = REPORT_KEYS - set(payload)
        extra = set(payload) - REPORT_KEYS
        if missing:
            problems.append(f"missing keys {sorted(missing)}")
        if extra:
            problems.append(f"unknown keys {sorted(extra)}")
    for key in ("command", "toolVersion", "specFingerprint"):
        if key in payload and not isinstance(payload[key], str):
            problems.append(f"{key} must be a string")
    fp = payload.get("specFingerprint")
    if isinstance(fp, str) and not _FINGERPRINT.match(fp):
        problems.append("specFingerprint must look like sha256:<64 hex digits>")
    for key in ("inputs", "result", "evidence"):
        if key in payload and not isinstance(payload[key], dict):
            problems.append(f"{key} must be an object")
    dur = payload.get("durationMs")
    if "durationMs" in payload and (not is_plain_int(dur) or dur < 0):
        problems.append("durationMs must be a nonnegative integer")
    for key in ("inputs", "result", "evidence"):
        if isinstance(payload.get(key), dict):
            _walk(payload[key], False, key, problems)
    return problems
