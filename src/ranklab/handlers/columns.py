"""Handlers of ``validate``, ``heights`` and ``descendants``: columns and levels."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import cli
from ..cli import EXIT_OK, Outcome, _attach_approx
from ..errors import RankLabError

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_validate(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..specio import spec_payload

    preview = []
    for n in range(6):
        try:
            preview.append(spec.height(n))
        except RankLabError:
            break
    result = {"valid": True, "spec": spec_payload(spec)}
    return result, {"heightPreview": preview}, EXIT_OK


def _cmd_heights(args: Namespace, spec: RankOneSpec) -> Outcome:
    hs = [spec.height(n) for n in range(args.stages)]
    return {"heights": hs}, {}, EXIT_OK


def _cmd_descendants(args: Namespace, spec: RankOneSpec) -> Outcome:
    from .. import construction
    from ..construction import LevelRef, descendant_extent, level_width

    level = LevelRef(*args.base)
    count, lo, hi = descendant_extent(spec, level, args.to)
    # Charged as if listed on either route, so a refusal does not depend on it.
    construction._charge_descendants(spec, level, args.to)
    if count <= cli.TABLE_CAP:
        evidence = {"values": list(construction._listed(spec, level, args.to))}
    else:
        evidence = {"summary": {"count": count, "first": lo, "last": hi}}
    width = level_width(spec, LevelRef(args.to, lo))
    result = {"count": count, "min": lo, "max": hi, "levelWidth": width}
    _attach_approx(args, result, {"levelWidth": width})
    return result, evidence, EXIT_OK
