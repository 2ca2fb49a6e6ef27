"""Reading and fingerprinting construction descriptions from JSON files.

A spec file is either *explicit* — ``{"h0": 1, "stages": [{"r": 3, "s":
[0, 1, 0]}, ...], "extension": "repeat-last"}`` — or names a built-in
*family* as its only top-level key: ``{"family": {"kind": "tq", "t": 4,
"q": 1, "positions": [1]}}``.  Parsing is strict: unknown keys, booleans
posing as integers, or a family block mixed with explicit fields are all
rejected, so a fingerprint always refers to one unambiguous construction.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Mapping

from . import _public
from .construction import (
    EXTENSION_ERROR,
    EXTENSION_REPEAT,
    RankOneSpec,
    StageSpec,
    validate_spec,
)
from .errors import IoError, SpecFileError, is_plain_int
from .reporting import _max_str_digits, fingerprint

if TYPE_CHECKING:
    from .families.tq import TQParams

__all__ = _public("specio")

_TOP_KEYS = {"h0", "stages", "extension", "family"}
_EXTENSIONS = (EXTENSION_ERROR, EXTENSION_REPEAT)


def _plain_int(value: Any, where: str) -> int:
    if not is_plain_int(value):
        raise SpecFileError(f"{where} must be an integer, got {value!r}")
    return value


def _int_or_none(value: Any, where: str) -> int | None:
    if value is None:
        return None
    return _plain_int(value, where)


def _int_list(value: Any, where: str) -> list[int]:
    if not isinstance(value, list):
        raise SpecFileError(f"{where} must be an array of integers")
    return [_plain_int(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _exact_keys(block: Mapping[str, Any], required: set[str], where: str) -> None:
    if set(block) != required:
        missing = required - set(block)
        extra = set(block) - required
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unknown {sorted(extra)}")
        raise SpecFileError(f"{where}: " + "; ".join(parts))


def _parse_stages(raw: Any) -> list[StageSpec]:
    if not isinstance(raw, list) or not raw:
        raise SpecFileError("stages must be a nonempty array")
    out = []
    for idx, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SpecFileError(f"stages[{idx}] must be an object")
        _exact_keys(item, {"r", "s"}, f"stages[{idx}]")
        r = _plain_int(item["r"], f"stages[{idx}].r")
        s = _int_list(item["s"], f"stages[{idx}].s")
        out.append(StageSpec(r=r, s=tuple(s)))
    return out


def _parse_family(block: Mapping[str, Any]) -> RankOneSpec:
    # Each kind imports its own part of ``families``; an explicit one, none.
    if not isinstance(block, dict):
        raise SpecFileError("family must be an object")
    kind = block.get("kind")
    if kind == "inf_chacon":
        _exact_keys(block, {"kind", "t", "q", "m1", "m0"}, "family")
        from .families.inf_chacon import make_inf_chacon

        return make_inf_chacon(
            t=_plain_int(block["t"], "family.t"),
            q=_plain_int(block["q"], "family.q"),
            m1=_plain_int(block["m1"], "family.m1"),
            m0=_plain_int(block["m0"], "family.m0"),
        )
    if kind == "tq":
        _exact_keys(block, {"kind", "t", "q", "positions"}, "family")
        from .families.tq import make_tq

        spec, _ = make_tq(
            t=_plain_int(block["t"], "family.t"),
            q=_plain_int(block["q"], "family.q"),
            positions=tuple(_int_list(block["positions"], "family.positions")),
        )
        return spec
    if kind == "asymm":
        _exact_keys(block, {"kind", "k", "p", "stages", "separationFactor"}, "family")
        from .families.asymm import AsymmParams, make_asymm_construction

        params = AsymmParams(
            k=_plain_int(block["k"], "family.k"),
            p=_int_or_none(block["p"], "family.p"),
            prefix_stages=_plain_int(block["stages"], "family.stages"),
            separation_factor=_plain_int(
                block["separationFactor"], "family.separationFactor"
            ),
        )
        return make_asymm_construction(params)
    if kind == "explicit":
        allowed = {"kind", "stages", "h0", "extension"}
        if not set(block) <= allowed or "stages" not in block:
            raise SpecFileError(
                "family kind 'explicit' takes stages plus optional h0/extension"
            )
        return _parse_explicit(
            {k: v for k, v in block.items() if k != "kind"}
        )
    raise SpecFileError(f"unknown family kind {kind!r}")


def _parse_explicit(payload: Mapping[str, Any]) -> RankOneSpec:
    stages = _parse_stages(payload["stages"])
    h0 = _plain_int(payload.get("h0", 1), "h0")
    extension = payload.get("extension", EXTENSION_ERROR)
    if extension not in _EXTENSIONS:
        raise SpecFileError(
            f"extension must be one of {list(_EXTENSIONS)}, got {extension!r}"
        )
    return validate_spec({"stages": stages, "h0": h0, "extension": extension})


def parse_spec(payload: Any) -> RankOneSpec:
    """Build a construction from a decoded spec-file payload."""
    if not isinstance(payload, dict):
        raise SpecFileError("spec file must contain a JSON object")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise SpecFileError(f"unknown top-level keys {sorted(unknown)}")
    if "family" in payload:
        if set(payload) != {"family"}:
            # A family fixes its own base height and stage rule, so explicit
            # fields alongside it could silently contradict the family.
            raise SpecFileError("a family spec must have 'family' as its only key")
        return _parse_family(payload["family"])
    if "stages" not in payload:
        raise SpecFileError("spec file needs either 'stages' or 'family'")
    return _parse_explicit(payload)


def load_spec(path: str) -> RankOneSpec:
    """The construction the spec file at *path* describes, as a new object.

    The file is read on every call.  Its text is built into a spec once per
    process, and each call returns a :meth:`~RankOneSpec.copy` of the spec as
    built, so no stage a caller materializes reaches the next caller; the
    copies share the spec's fingerprint once one of them has computed it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read spec file {path}: {exc}") from exc
    try:
        built = _built(text, os.environ.get("RANKLAB_BUDGET"), _max_str_digits())
    except ValueError as exc:  # not JSON, or an int past the interpreter's digit limit
        raise SpecFileError(f"spec file {path} is not valid JSON: {exc}") from exc
    return built.copy()


@lru_cache(maxsize=8)
def _built(text: str, budget: str | None, max_str_digits: int) -> RankOneSpec:
    """The spec *text* describes, as built; only its copies are handed out.

    A build can charge the budget (an asymm prefix is separation-checked) and
    can fail to read a long int, so the budget's raw setting and the int digit
    limit are part of the key.  A build that raises is not stored.
    """
    return parse_spec(json.loads(text))


def spec_payload(spec: RankOneSpec) -> dict[str, Any]:
    """Normalized input-form payload; round-trips through ``parse_spec``."""
    if spec.family is not None:
        block: dict[str, Any] = {"kind": spec.family.kind}
        block.update(spec.family.as_dict())
        return {"family": block}
    return {
        "h0": spec.h0,
        "stages": [{"r": st.r, "s": list(st.s)} for st in spec.explicit_stages()],
        "extension": spec.extension,
    }


def spec_fingerprint(spec: RankOneSpec) -> str:
    """The fingerprint of ``spec_payload(spec)``, hashed once per spec and its copies."""
    if not spec._fingerprint:
        spec._fingerprint.append(fingerprint(spec_payload(spec)))
    return spec._fingerprint[0]


def tq_params_of(spec: RankOneSpec) -> TQParams | None:
    """Recover tower-alphabet parameters when the spec came from that family."""
    if spec.family is None or spec.family.kind != "tq":
        return None
    from .families.tq import TQParams

    params = spec.family.as_dict()
    return TQParams(
        t=params["t"], q=params["q"], positions=tuple(params["positions"])
    )
