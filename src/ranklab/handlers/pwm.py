"""Handler of ``pwm``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..certificates.pwm import pwm_witness
from ..cli import _VERDICT_EXIT, Outcome, _attach_approx
from ..errors import ParamOutOfRange

if TYPE_CHECKING:
    from argparse import Namespace

    from ..construction import RankOneSpec


def _cmd_pwm(args: Namespace, spec: RankOneSpec) -> Outcome:
    from ..specio import tq_params_of

    params = tq_params_of(spec)
    if params is None:
        raise ParamOutOfRange(
            "power weak mixing witnesses need a tower-family spec (kind 'tq')"
        )
    res = pwm_witness(params, args.alpha, args.shifts, args.base, args.horizon)
    result = {
        "moveCount": res.gamma,
        "tailStage": res.tail_stage,
        "beta": res.beta,
        "verdict": res.certificate.verdict,
    }
    _attach_approx(args, result, {"beta": res.beta})
    evidence = {"certificate": res.certificate, "witness": res.match}
    return result, evidence, _VERDICT_EXIT[res.certificate.verdict]
