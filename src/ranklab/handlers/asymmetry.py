"""Handler of ``asymmetry``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..certificates.asymmetry import asymmetry_statistic
from ..cli import _VERDICT_EXIT, Outcome, _attach_approx, _interval

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_asymmetry(args: Namespace, spec: RankOneSpec) -> Outcome:
    res = asymmetry_statistic(spec, args.base, args.scale, args.eval)
    result = {
        "verdict": res.certificate.verdict,
        "zeroSide": _interval(res.zero_side),
        "forwardSide": _interval(res.forward_side),
        "adjacencyFree": res.adjacency_free,
        "zeroExact": res.zero_exact,
    }
    _attach_approx(
        args,
        result,
        {
            "forwardConfirmed": res.forward_side.confirmed,
            "zeroUpper": res.zero_side.upper,
        },
    )
    evidence = {"certificate": res.certificate}
    return result, evidence, _VERDICT_EXIT[res.certificate.verdict]
