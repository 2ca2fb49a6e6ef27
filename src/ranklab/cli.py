"""Command-line front end: every subcommand emits one canonical JSON report.

Exit codes form the contract scripts rely on:

* ``0``  — computed; any verdict present holds or is not applicable,
* ``2``  — computed, but a checked property failed,
* ``1``  — runtime error (unreadable input, budget, infeasible request),
* ``64`` — the command line itself was malformed.

Reports go to stdout unless ``--json PATH`` redirects them (an unwritable
PATH yields an ``IoError`` report on stdout and exit 1); ``--approx`` adds
decimal renderings of the headline rationals (clearly grouped under an
``approx`` key and never authoritative).  The environment variable
``RANKLAB_BUDGET`` caps the enumeration work a single invocation may do.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Sequence

from .certificates import (
    PatternQuery,
    ProductQuery,
    asymmetry_statistic,
    conservativity_fraction,
    ergodic_matching,
    mixing_decay,
    non_ergodic_check,
    npc_certificate,
    pattern_measure,
    pwm_witness,
)
from ._budget import charge
from .construction import LevelRef, MeasureInterval, descendant_heights, level_width
from .errors import IoError, ParamOutOfRange, RankLabError, UsageError
from .reporting import TOOL_VERSION, Report, emit_report, fingerprint
from .specio import load_spec, spec_fingerprint, spec_payload, tq_params_of
from .sumsets import (
    DigitAlphabet,
    coverage_checks,
    descendant_differences,
    gamma_search,
    gap_count,
    partner_set,
    partner_shift,
    progression_runs,
    sumset_membership,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PROPERTY_FAILED = 2
EXIT_USAGE = 64

# Enumerations longer than this are summarized instead of listed, keeping
# reports bounded while staying byte-deterministic.
TABLE_CAP = 8192
RUNS_CAP = 512

# Fingerprint used by error reports when no spec was successfully loaded.
_NO_SPEC_FP = fingerprint(None)

_VERDICT_EXIT = {
    "holds": EXIT_OK,
    "inconclusive": EXIT_OK,
    "fails": EXIT_PROPERTY_FAILED,
}

# A handler returns (spec fingerprint, inputs, result, evidence, exit code).
Outcome = tuple[str, dict[str, Any], dict[str, Any], dict[str, Any], int]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via ``UsageError``."""

    def error(self, message: str) -> Any:  # noqa: A003 - argparse API
        raise UsageError(message)


# ---------------------------------------------------------------------------
# argument value parsers


def _int_arg(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip(), 10) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _level_arg(text: str) -> tuple[int, int]:
    stage, sep, height = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected STAGE:HEIGHT (e.g. 1:0), got {text!r}"
        )
    return _nonneg_int(stage), _nonneg_int(height)


def _fraction_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    return value


# ---------------------------------------------------------------------------
# shared report plumbing


def _interval(mi: MeasureInterval) -> dict[str, Fraction]:
    return {
        "confirmed": mi.confirmed,
        "unresolved": mi.unresolved,
        "upper": mi.upper,
    }


def _attach_approx(
    args: argparse.Namespace, result: dict[str, Any], values: dict[str, Any]
) -> None:
    """Add decimal renderings under ``approx`` when the flag asks for them."""
    if not args.approx:
        return
    rendered = {
        key: float(value) for key, value in values.items() if value is not None
    }
    if rendered:
        result["approx"] = rendered


def _load(args: argparse.Namespace) -> tuple[Any, str]:
    spec = load_spec(args.spec)
    return spec, spec_fingerprint(spec)


def _echo(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The ``inputs`` block: named arguments under camelCase keys, tuples as lists."""
    inputs = {}
    for name in names:
        head, *rest = name.split("_")
        value = getattr(args, name)
        inputs[head + "".join(w.title() for w in rest)] = (
            list(value) if isinstance(value, tuple) else value
        )
    return inputs


def _digit_alphabet(args: argparse.Namespace) -> tuple[DigitAlphabet, str, dict[str, Any]]:
    """Alphabet from ``--spec`` (tower family) or ``--k``/``--alphabet``."""
    if args.spec is not None:
        if args.k is not None or args.alphabet is not None:
            raise UsageError("give either --spec or --k/--alphabet, not both")
        spec, fp = _load(args)
        params = tq_params_of(spec)
        if params is None:
            raise ParamOutOfRange(
                "this spec does not define a digit alphabet;"
                " use a tower-family spec or pass --k/--alphabet"
            )
        return params.alphabet, fp, _echo(args, "spec")
    if args.k is None or args.alphabet is None:
        raise UsageError("need --spec, or both --k and --alphabet")
    alphabet = DigitAlphabet(args.k, tuple(args.alphabet))
    payload = {"digitAlphabet": {"k": alphabet.k, "digits": list(alphabet.digits)}}
    return alphabet, fingerprint(payload), _echo(args, "k", "alphabet")


def _value_table(
    values: Sequence[int], key: str = "values", row: Callable[[int], Any] | None = None
) -> dict[str, Any]:
    """Full listing (of ``row(v)`` if given) up to the cap, a summary beyond it."""
    if len(values) <= TABLE_CAP:
        return {key: list(values) if row is None else [row(v) for v in values]}
    return {"summary": {"count": len(values), "first": values[0], "last": values[-1]}}


# ---------------------------------------------------------------------------
# command handlers


def _cmd_validate(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    preview = []
    for n in range(6):
        try:
            preview.append(spec.height(n))
        except RankLabError:
            break
    result = {"valid": True, "spec": spec_payload(spec)}
    return fp, {"spec": args.spec}, result, {"heightPreview": preview}, EXIT_OK


def _cmd_heights(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    hs = [spec.height(n) for n in range(args.stages)]
    inputs = _echo(args, "spec", "stages")
    return fp, inputs, {"heights": hs}, {}, EXIT_OK


def _cmd_descendants(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    level = LevelRef(*args.base)
    values = descendant_heights(spec, level, args.to)
    width = level_width(spec, LevelRef(args.to, values[0]))
    result = {
        "count": len(values),
        "min": values[0],
        "max": values[-1],
        "levelWidth": width,
    }
    _attach_approx(args, result, {"levelWidth": width})
    inputs = _echo(args, "spec", "base", "to")
    return fp, inputs, result, _value_table(values), EXIT_OK


def _cmd_diffset(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    level = LevelRef(*args.base)
    values = descendant_heights(spec, level, args.to)
    charge(len(values) ** 2, "difference multiset")
    counts = descendant_differences(spec, level, args.to, values, counted=True)
    positive = sorted(counts)[1:]  # 0 is always present
    result = {
        "setSize": len(values),
        "distinctPositive": len(positive),
        "maxDifference": positive[-1] if positive else 0,
    }
    evidence = _value_table(positive, "positive", lambda v: [v, counts[v]])
    inputs = _echo(args, "spec", "base", "to")
    return fp, inputs, result, evidence, EXIT_OK


def _cmd_ap(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    level = LevelRef(*args.base)
    values = descendant_heights(spec, level, args.to)
    charge(len(values) ** 2, "difference set for progression search")
    diffs = descendant_differences(spec, level, args.to, values)
    res = progression_runs(diffs, args.max_len)
    cap_reached = res.longest >= args.max_len
    result = {
        "longest": res.longest,
        "witness": res.witness,
        "progression": list(res.progression),
        "capReached": cap_reached,
    }
    if len(res.runs) <= RUNS_CAP:
        runs = sorted(res.runs.items())
        evidence: dict[str, Any] = {"runs": [[x, ln] for x, ln in runs]}
    else:
        evidence = {
            "runCount": len(res.runs),
            "longest": res.longest,
            "witness": res.witness,
        }
    inputs = _echo(args, "spec", "base", "to", "max_len")
    code = EXIT_PROPERTY_FAILED if cap_reached else EXIT_OK
    return fp, inputs, result, evidence, code


def _cmd_partners(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    heights = spec.height_set(args.stage)
    inputs = _echo(args, "spec", "stage")
    if args.shift is not None:
        inputs["shift"] = args.shift
        s0 = partner_set(heights, args.shift)
        s1 = partner_set(heights, args.shift + 1)
        result = {
            "z": args.shift,
            "sizeAtZ": len(s0.members),
            "sizeAtZPlus1": len(s1.members),
            "delta": s0.delta,
        }
        _attach_approx(args, result, {"delta": s0.delta})
        evidence = {"membersAtZ": list(s0.members), "membersAtZPlus1": list(s1.members)}
        return fp, inputs, result, evidence, EXIT_OK
    ps = partner_shift(heights)
    if ps is None:
        return fp, inputs, {"found": False}, {"heights": list(heights)}, EXIT_OK
    result = {
        "found": True,
        "z": ps.z,
        "pairCount": len(ps.at_z.members),
        "delta": ps.delta,
    }
    _attach_approx(args, result, {"delta": ps.delta})
    evidence = {
        "membersAtZ": list(ps.at_z.members),
        "membersAtZPlus1": list(ps.at_z_plus_1.members),
    }
    return fp, inputs, result, evidence, EXIT_OK


def _cmd_membership(args: argparse.Namespace) -> Outcome:
    alphabet, fp, inputs = _digit_alphabet(args)
    digits = sumset_membership(alphabet, args.digits, args.target)
    inputs |= _echo(args, "digits", "target")
    result = {
        "member": digits is not None,
        "representation": None if digits is None else list(digits),
        "base": alphabet.k,
    }
    return fp, inputs, result, {}, EXIT_OK


def _cmd_gaps(args: argparse.Namespace) -> Outcome:
    alphabet, fp, inputs = _digit_alphabet(args)
    gc = gap_count(alphabet, args.digits)
    inputs |= _echo(args, "digits")
    result = {
        "g": gc.g,
        "recursion": list(gc.recursion),
        "brute": gc.brute,
        "matches": gc.matches,
    }
    evidence: dict[str, Any] = {"unitGaps": list(gc.unit_gaps)}
    evidence |= (
        {"missing": list(gc.missing)}
        if len(gc.missing) <= TABLE_CAP
        else {"missingCount": len(gc.missing)}
    )
    code = EXIT_OK if gc.matches else EXIT_PROPERTY_FAILED
    return fp, inputs, result, evidence, code


def _cmd_coverage(args: argparse.Namespace) -> Outcome:
    alphabet, fp, inputs = _digit_alphabet(args)
    cc = coverage_checks(alphabet, args.digits)
    inputs |= _echo(args, "digits")
    result = {
        "passed": cc.passed,
        "hasUnitDiff": cc.has_unit_diff,
        "halfAlphabetOk": cc.half_alphabet_ok,
        "halfRangeOk": cc.half_range_ok,
        "parityOk": cc.parity_ok,
    }
    evidence = {"failures": [[kind, value] for kind, value in cc.failures]}
    code = EXIT_OK if cc.passed else EXIT_PROPERTY_FAILED
    return fp, inputs, result, evidence, code


def _cmd_gamma(args: argparse.Namespace) -> Outcome:
    alphabet, fp, inputs = _digit_alphabet(args)
    gw = gamma_search(alphabet, args.multipliers, args.horizon)
    inputs |= _echo(args, "multipliers", "horizon")
    result = {"n": gw.n, "m": gw.m, "gamma": gw.gamma}
    evidence = {
        "zeroDigits": list(gw.zero_digits),
        "multiplierDigits": [[b, list(d)] for b, d in gw.beta_digits],
    }
    return fp, inputs, result, evidence, EXIT_OK


def _cmd_conservativity(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    query = ProductQuery(
        multipliers=args.multipliers,
        shifts=(0,) * len(args.multipliers),
        base_stage=args.base,
        horizon=args.horizon,
        epsilon=args.epsilon,
    )
    best, cert = conservativity_fraction(spec, query)
    result = {"bestFraction": best, "verdict": cert.verdict}
    _attach_approx(args, result, {"bestFraction": best})
    inputs = _echo(args, "spec", "multipliers", "base", "horizon", "epsilon")
    return fp, inputs, result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]


def _cmd_ergodic_match(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    query = ProductQuery(
        multipliers=args.multipliers,
        shifts=args.shifts,
        base_stage=args.base,
        horizon=args.horizon,
    )
    res = ergodic_matching(spec, query)
    result = {
        "fraction": res.fraction,
        "dead": res.dead,
        "pending": res.pending,
        "verdict": res.certificate.verdict,
    }
    _attach_approx(args, result, {"fraction": res.fraction, "dead": res.dead})
    evidence = {"certificate": res.certificate, "witness": res.witness}
    inputs = _echo(args, "spec", "multipliers", "shifts", "base", "horizon")
    return fp, inputs, result, evidence, _VERDICT_EXIT[res.certificate.verdict]


def _cmd_pattern(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    query = PatternQuery(
        arity=len(args.moves),
        shifts=args.moves,
        base_stage=args.base,
        cutoff=args.cutoff,
        dconst=args.dconst,
    )
    res = pattern_measure(spec, query)
    result = {
        "matched": _interval(res.matched),
        "hitMass": res.hit_mass,
        "bound": res.bound,
        "moveCount": res.gamma,
        "verdict": res.certificate.verdict,
    }
    _attach_approx(
        args,
        result,
        {"confirmed": res.matched.confirmed, "bound": res.bound},
    )
    inputs = _echo(args, "spec", "moves", "base", "cutoff", "dconst")
    evidence = {"certificate": res.certificate}
    return fp, inputs, result, evidence, _VERDICT_EXIT[res.certificate.verdict]


def _cmd_mixing(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    if not args.shifts and args.window is None:
        raise UsageError("give --shifts and/or --window")
    level = LevelRef(*args.base)
    res = mixing_decay(spec, level, args.shifts, args.window)
    result = {
        "verdict": res.verdict,
        "entryCount": len(res.shifts),
        "inWindow": res.in_window,
        "violations": res.violation_count,
        "worstRatio": res.worst_ratio,
    }
    _attach_approx(args, result, {"worstRatio": res.worst_ratio})
    inputs = _echo(args, "spec", "base", "shifts", "window")
    evidence = {"certificate": res.certificate}
    return fp, inputs, result, evidence, _VERDICT_EXIT[res.verdict]


def _cmd_npc(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    cert = npc_certificate(spec, args.kappa, args.start, args.horizon)
    longest = max(row["longest"] for row in cert.evidence["progressions"])
    result = {
        "verdict": cert.verdict,
        "longest": longest,
        "proofSup": cert.evidence["proofSup"],
    }
    _attach_approx(args, result, {"proofSup": cert.evidence["proofSup"]})
    inputs = _echo(args, "spec", "kappa", "start", "horizon")
    return fp, inputs, result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]


def _cmd_pwm(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
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
    inputs = _echo(args, "spec", "alpha", "shifts", "base", "horizon")
    return fp, inputs, result, evidence, _VERDICT_EXIT[res.certificate.verdict]


def _cmd_non_ergodic(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
    cert = non_ergodic_check(spec, args.alpha, args.shifts, args.base, args.horizon)
    result = {"verdict": cert.verdict, "scope": cert.evidence.get("scope")}
    inputs = _echo(args, "spec", "alpha", "shifts", "base", "horizon")
    return fp, inputs, result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]


def _cmd_asymmetry(args: argparse.Namespace) -> Outcome:
    spec, fp = _load(args)
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
    inputs = _echo(args, "spec", "base", "scale", "eval")
    evidence = {"certificate": res.certificate}
    return fp, inputs, result, evidence, _VERDICT_EXIT[res.certificate.verdict]


# ---------------------------------------------------------------------------
# parser assembly


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write the report to PATH")
    p.add_argument(
        "--approx",
        action="store_true",
        help="include non-authoritative decimal renderings",
    )


def _add_spec(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--spec", required=required, metavar="PATH", help="spec JSON file")


def _add_digit_source(p: argparse.ArgumentParser) -> None:
    _add_spec(p, required=False)
    p.add_argument("--k", type=_positive_int, metavar="K", help="digit base")
    p.add_argument(
        "--alphabet",
        type=_int_list,
        metavar="LIST",
        help="comma-separated digits (0 and K-1 required)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ranklab",
        description="exact certificates for rank-one cutting-and-stacking maps",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def cmd(
        name: str, handler: Callable[[argparse.Namespace], Outcome], help_: str
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        _add_report_flags(p)
        return p

    p = cmd("validate", _cmd_validate, "parse a spec file and echo its normal form")
    _add_spec(p)

    p = cmd("heights", _cmd_heights, "column heights h_0..h_{N-1}")
    _add_spec(p)
    p.add_argument("--stages", type=_positive_int, required=True, metavar="N")

    p = cmd("descendants", _cmd_descendants, "heights a level splits into")
    _add_spec(p)
    p.add_argument("--base", type=_level_arg, required=True, metavar="STAGE:HEIGHT")
    p.add_argument("--to", type=_nonneg_int, required=True, metavar="STAGE")

    p = cmd("diffset", _cmd_diffset, "difference multiset of the descendants")
    _add_spec(p)
    p.add_argument("--base", type=_level_arg, required=True, metavar="STAGE:HEIGHT")
    p.add_argument("--to", type=_nonneg_int, required=True, metavar="STAGE")

    p = cmd("ap", _cmd_ap, "longest run x,2x,..,lx inside the difference set")
    _add_spec(p)
    p.add_argument("--base", type=_level_arg, required=True, metavar="STAGE:HEIGHT")
    p.add_argument("--to", type=_nonneg_int, required=True, metavar="STAGE")
    p.add_argument("--max-len", type=_positive_int, required=True, metavar="L")

    p = cmd("partners", _cmd_partners, "offsets with a partner at distance z, z+1")
    _add_spec(p)
    p.add_argument("--stage", type=_nonneg_int, required=True, metavar="N")
    p.add_argument("--shift", type=_positive_int, metavar="Z")

    p = cmd("membership", _cmd_membership, "digit representation of a target value")
    _add_digit_source(p)
    p.add_argument("--digits", type=_positive_int, required=True, metavar="N")
    p.add_argument("--target", type=_int_arg, required=True, metavar="X")

    p = cmd("gaps", _cmd_gaps, "missing-value counts: recursion vs brute force")
    _add_digit_source(p)
    p.add_argument("--digits", type=_positive_int, required=True, metavar="N")

    p = cmd("coverage", _cmd_coverage, "low-range and parity coverage checks")
    _add_digit_source(p)
    p.add_argument("--digits", type=_positive_int, required=True, metavar="N")

    p = cmd("gamma", _cmd_gamma, "shift keeping scaled powers representable")
    _add_digit_source(p)
    p.add_argument("--multipliers", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--horizon", type=_positive_int, default=8, metavar="N")

    p = cmd("conservativity", _cmd_conservativity, "returning-tuple fraction")
    _add_spec(p)
    p.add_argument("--multipliers", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--base", type=_nonneg_int, required=True, metavar="STAGE")
    p.add_argument("--horizon", type=_positive_int, required=True, metavar="STAGE")
    p.add_argument(
        "--epsilon", type=_fraction_arg, default=Fraction(1, 10), metavar="EPS"
    )

    p = cmd("ergodic-match", _cmd_ergodic_match, "matched fraction for +-1 products")
    _add_spec(p)
    p.add_argument("--multipliers", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--shifts", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--base", type=_nonneg_int, required=True, metavar="STAGE")
    p.add_argument("--horizon", type=_positive_int, required=True, metavar="STAGE")

    p = cmd("pattern", _cmd_pattern, "capture bound for all-forward move patterns")
    _add_spec(p)
    p.add_argument(
        "--moves",
        type=_int_list,
        required=True,
        metavar="LIST",
        help="raised-move count per coordinate",
    )
    p.add_argument("--base", type=_nonneg_int, required=True, metavar="STAGE")
    p.add_argument("--cutoff", type=_positive_int, required=True, metavar="STAGE")
    p.add_argument("--dconst", type=_positive_int, metavar="D")

    p = cmd("mixing", _cmd_mixing, "overlap ratios against the pairing bound")
    _add_spec(p)
    p.add_argument("--base", type=_level_arg, required=True, metavar="STAGE:HEIGHT")
    p.add_argument("--shifts", type=_int_list, default=(), metavar="LIST")
    p.add_argument("--window", type=_nonneg_int, metavar="STAGE")

    p = cmd("npc", _cmd_npc, "progression freeness with self-propagating ratios")
    _add_spec(p)
    p.add_argument("--kappa", type=_positive_int, required=True, metavar="K")
    p.add_argument("--start", type=_nonneg_int, default=0, metavar="STAGE")
    p.add_argument("--horizon", type=_positive_int, required=True, metavar="STAGE")

    p = cmd("pwm", _cmd_pwm, "matched pair witness for products of powers")
    _add_spec(p)
    p.add_argument("--alpha", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--shifts", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--base", type=_positive_int, required=True, metavar="STAGE")
    p.add_argument("--horizon", type=_positive_int, default=8, metavar="N")

    p = cmd("non-ergodic", _cmd_non_ergodic, "certify shifts as never realizable")
    _add_spec(p)
    p.add_argument("--alpha", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--shifts", type=_int_list, required=True, metavar="LIST")
    p.add_argument("--base", type=_nonneg_int, required=True, metavar="STAGE")
    p.add_argument("--horizon", type=_positive_int, required=True, metavar="STAGE")

    p = cmd("asymmetry", _cmd_asymmetry, "triple-overlap statistic vs its reversal")
    _add_spec(p)
    p.add_argument("--base", type=_positive_int, required=True, metavar="STAGE")
    p.add_argument("--scale", type=_positive_int, required=True, metavar="STAGE")
    p.add_argument("--eval", type=_positive_int, required=True, metavar="STAGE")

    return parser


# ---------------------------------------------------------------------------
# entry points


def run(argv: Sequence[str] | None = None) -> int:
    """Parse, dispatch, emit one report, and return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.monotonic()
    try:
        fp, inputs, result, evidence, code = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A RankLabError is a refusal; anything else is a bug in ranklab, so
        # its traceback goes to stderr beside the error report.
        if not isinstance(exc, RankLabError):
            import traceback  # here, to keep it off the start-up path

            traceback.print_exc()
        fp, inputs, result, evidence, code = _error_outcome(argv, exc)
    report = Report(
        command=args.command,
        spec_fingerprint=fp,
        inputs=inputs,
        result=result,
        evidence=evidence,
        duration_ms=int((time.monotonic() - started) * 1000),
    )
    try:
        emit_report(report, args.json)
    except IoError as exc:
        # The report could not reach --json: put the error on stdout instead.
        fp, inputs, result, evidence, code = _error_outcome(argv, exc)
        emit_report(Report(args.command, fp, inputs, result, evidence, report.duration_ms))
    return code


def _error_outcome(argv: list[str], exc: Exception) -> Outcome:
    error = {"type": type(exc).__name__, "message": str(exc)}
    return _NO_SPEC_FP, {"argv": argv}, {"error": error}, {}, EXIT_ERROR


def main() -> None:
    sys.exit(run())
