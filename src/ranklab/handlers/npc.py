"""Handler of ``npc``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..certificates.npc import npc_certificate
from ..cli import _VERDICT_EXIT, Outcome, _attach_approx

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_npc(args: Namespace, spec: RankOneSpec) -> Outcome:
    cert = npc_certificate(spec, args.kappa, args.start, args.horizon)
    longest = max(row["longest"] for row in cert.evidence["progressions"])
    result = {
        "verdict": cert.verdict,
        "longest": longest,
        "proofSup": cert.evidence["proofSup"],
    }
    _attach_approx(args, result, {"proofSup": cert.evidence["proofSup"]})
    return result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]
