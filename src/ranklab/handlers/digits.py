"""Handlers of ``membership``, ``gaps``, ``coverage`` and ``gamma``: digit sumsets."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .. import cli
from ..cli import EXIT_OK, EXIT_PROPERTY_FAILED, Outcome, _load
from ..errors import ParamOutOfRange, UsageError

if TYPE_CHECKING:
    from argparse import Namespace

    from ..digits import DigitAlphabet


def _digit_alphabet(args: Namespace) -> tuple[DigitAlphabet, str]:
    """Alphabet from ``--spec`` (tower family) or ``--k``/``--alphabet``."""
    from ..digits import DigitAlphabet

    if args.spec is not None:
        if args.k is not None or args.alphabet is not None:
            raise UsageError("give either --spec or --k/--alphabet, not both")
        from ..specio import tq_params_of

        spec, fp = _load(args)
        params = tq_params_of(spec)
        if params is None:
            raise ParamOutOfRange(
                "this spec does not define a digit alphabet;"
                " use a tower-family spec or pass --k/--alphabet"
            )
        return params.alphabet, fp
    if args.k is None or args.alphabet is None:
        raise UsageError("need --spec, or both --k and --alphabet")
    from ..reporting import fingerprint

    alphabet = DigitAlphabet(args.k, tuple(args.alphabet))
    payload = {"digitAlphabet": {"k": alphabet.k, "digits": list(alphabet.digits)}}
    return alphabet, fingerprint(payload)


def _cmd_membership(args: Namespace, alphabet: DigitAlphabet) -> Outcome:
    from ..digits import sumset_membership

    digits = sumset_membership(alphabet, args.digits, args.target)
    result = {
        "member": digits is not None,
        "representation": None if digits is None else list(digits),
        "base": alphabet.k,
    }
    return result, {}, EXIT_OK


def _cmd_gaps(args: Namespace, alphabet: DigitAlphabet) -> Outcome:
    from ..digits import gap_count

    gc = gap_count(alphabet, args.digits)
    result = {
        "g": gc.g,
        "recursion": list(gc.recursion),
        "brute": gc.brute,
        "matches": gc.matches,
    }
    evidence: dict[str, Any] = {"unitGaps": list(gc.unit_gaps)}
    evidence |= (
        {"missing": list(gc.missing)}
        if len(gc.missing) <= cli.TABLE_CAP
        else {"missingCount": len(gc.missing)}
    )
    code = EXIT_OK if gc.matches else EXIT_PROPERTY_FAILED
    return result, evidence, code


def _cmd_coverage(args: Namespace, alphabet: DigitAlphabet) -> Outcome:
    from ..digits import coverage_checks

    cc = coverage_checks(alphabet, args.digits)
    result = {
        "passed": cc.passed,
        "hasUnitDiff": cc.has_unit_diff,
        "halfAlphabetOk": cc.half_alphabet_ok,
        "halfRangeOk": cc.half_range_ok,
        "parityOk": cc.parity_ok,
    }
    evidence = {"failures": [[kind, value] for kind, value in cc.failures]}
    code = EXIT_OK if cc.passed else EXIT_PROPERTY_FAILED
    return result, evidence, code


def _cmd_gamma(args: Namespace, alphabet: DigitAlphabet) -> Outcome:
    from ..digits import gamma_search

    gw = gamma_search(alphabet, args.multipliers, args.horizon)
    result = {"n": gw.n, "m": gw.m, "gamma": gw.gamma}
    evidence = {
        "zeroDigits": list(gw.zero_digits),
        "multiplierDigits": [[b, list(d)] for b, d in gw.beta_digits],
    }
    return result, evidence, EXIT_OK
