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

import importlib
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

from .errors import IoError, ParamOutOfRange, RankLabError, UsageError

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction

    from .construction import MeasureInterval, RankOneSpec
    from .sumsets import DigitAlphabet

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PROPERTY_FAILED = 2
EXIT_USAGE = 64

# Enumerations longer than this are summarized instead of listed, keeping
# reports bounded while staying byte-deterministic.
TABLE_CAP = 8192
RUNS_CAP = 512

_VERDICT_EXIT = {
    "holds": EXIT_OK,
    "inconclusive": EXIT_OK,
    "fails": EXIT_PROPERTY_FAILED,
}

# A handler gets the spec or digit alphabet that ``run`` loaded and returns
# (result, evidence, exit code); ``run`` adds the spec fingerprint and the
# ``inputs`` block, echoed from the command's flags.
Outcome = tuple[dict[str, Any], dict[str, Any], int]


# ---------------------------------------------------------------------------
# argument value parsers


def _invalid(message: str) -> Exception:
    """The error a value parser raises; argparse reports its message as is."""
    import argparse  # loaded by then: value parsers run while parsing

    return argparse.ArgumentTypeError(message)


def _int_arg(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise _invalid(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise _invalid(f"must be >= 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise _invalid(f"must be >= 0, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip(), 10) for part in text.split(","))
    except ValueError:
        raise _invalid(f"expected comma-separated integers, got {text!r}") from None


def _level_arg(text: str) -> tuple[int, int]:
    stage, sep, height = text.partition(":")
    if not sep:
        raise _invalid(f"expected STAGE:HEIGHT (e.g. 1:0), got {text!r}")
    return _nonneg_int(stage), _nonneg_int(height)


def _fraction_arg(text: str) -> Fraction:
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _invalid(f"not a rational: {text!r}") from None
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


def _load(args: argparse.Namespace) -> tuple[RankOneSpec, str]:
    from .specio import load_spec, spec_fingerprint

    spec = load_spec(args.spec)
    return spec, spec_fingerprint(spec)


def _digit_alphabet(args: argparse.Namespace) -> tuple[DigitAlphabet, str]:
    """Alphabet from ``--spec`` (tower family) or ``--k``/``--alphabet``."""
    from .sumsets import DigitAlphabet

    if args.spec is not None:
        if args.k is not None or args.alphabet is not None:
            raise UsageError("give either --spec or --k/--alphabet, not both")
        from .specio import tq_params_of

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
    from .reporting import fingerprint

    alphabet = DigitAlphabet(args.k, tuple(args.alphabet))
    payload = {"digitAlphabet": {"k": alphabet.k, "digits": list(alphabet.digits)}}
    return alphabet, fingerprint(payload)


# ---------------------------------------------------------------------------
# command handlers
#
# ``_cmd_<name>`` handles command ``<name>`` (dashes as underscores), given
# the input ``run`` loaded: the spec, or the digit alphabet for a command
# with the digit-source flags.  Each imports what it calls, so a command
# loads only the modules it needs; a certificate command imports the part of
# ``certificates`` that the command table names for it, never the other
# parts.  Without cached bytecode each imported module is compiled on every
# start, and the compiler's working memory lands on top of whatever is live,
# so ``run`` imports that part first, before argparse or a spec.


def _cmd_validate(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .specio import spec_payload

    preview = []
    for n in range(6):
        try:
            preview.append(spec.height(n))
        except RankLabError:
            break
    result = {"valid": True, "spec": spec_payload(spec)}
    return result, {"heightPreview": preview}, EXIT_OK


def _cmd_heights(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    hs = [spec.height(n) for n in range(args.stages)]
    return {"heights": hs}, {}, EXIT_OK


def _cmd_descendants(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from ._budget import charge
    from .construction import LevelRef, descendant_extent, descendant_heights, level_width

    level = LevelRef(*args.base)
    count, lo, hi = descendant_extent(spec, level, args.to)
    if count <= TABLE_CAP:
        evidence = {"values": list(descendant_heights(spec, level, args.to))}
    else:
        # Too many to list: read from the height sets, charged as if listed,
        # so that a refusal does not depend on the route.
        charge(count, f"descendant set at stage {args.to}")
        evidence = {"summary": {"count": count, "first": lo, "last": hi}}
    width = level_width(spec, LevelRef(args.to, lo))
    result = {"count": count, "min": lo, "max": hi, "levelWidth": width}
    _attach_approx(args, result, {"levelWidth": width})
    return result, evidence, EXIT_OK


def _cmd_diffset(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from ._budget import charge
    from .construction import LevelRef, descendant_heights
    from .sumsets import descendant_differences

    level = LevelRef(*args.base)
    values = descendant_heights(spec, level, args.to)
    charge(len(values) ** 2, "difference multiset")
    diffs = descendant_differences(spec, level, args.to, values)
    if isinstance(diffs, int):  # bit d is difference d, 0 included
        rest = diffs >> 1  # bit d - 1 is positive difference d
        size, first, last = rest.bit_count(), (rest & -rest).bit_length(), rest.bit_length()
    else:
        rest = diffs - {0}
        size, first, last = len(rest), min(rest, default=None), max(rest, default=0)
    result = {"setSize": len(values), "distinctPositive": size, "maxDifference": last}
    if size > TABLE_CAP:  # summarized: only a listing reads the counts
        return result, {"summary": {"count": size, "first": first, "last": last}}, EXIT_OK
    counts = descendant_differences(spec, level, args.to, values, counted=True)
    table = [[v, counts[v]] for v in sorted(counts)[1:]]  # 0 is always present
    return result, {"positive": table}, EXIT_OK


def _cmd_ap(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from ._budget import charge
    from .construction import LevelRef, descendant_heights
    from .sumsets import descendant_differences, progression_runs

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
    if len(res.runs) <= RUNS_CAP:  # ``runs`` iterates in ascending order
        evidence: dict[str, Any] = {"runs": [[x, ln] for x, ln in res.runs.items()]}
    else:
        evidence = {
            "runCount": len(res.runs),
            "longest": res.longest,
            "witness": res.witness,
        }
    code = EXIT_PROPERTY_FAILED if cap_reached else EXIT_OK
    return result, evidence, code


def _cmd_partners(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .sumsets import partner_set, partner_shift

    heights = spec.height_set(args.stage)
    if args.shift is not None:
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
        return result, evidence, EXIT_OK
    ps = partner_shift(heights)
    if ps is None:
        return {"found": False}, {"heights": list(heights)}, EXIT_OK
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
    return result, evidence, EXIT_OK


def _cmd_membership(args: argparse.Namespace, alphabet: DigitAlphabet) -> Outcome:
    from .sumsets import sumset_membership

    digits = sumset_membership(alphabet, args.digits, args.target)
    result = {
        "member": digits is not None,
        "representation": None if digits is None else list(digits),
        "base": alphabet.k,
    }
    return result, {}, EXIT_OK


def _cmd_gaps(args: argparse.Namespace, alphabet: DigitAlphabet) -> Outcome:
    from .sumsets import gap_count

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
        if len(gc.missing) <= TABLE_CAP
        else {"missingCount": len(gc.missing)}
    )
    code = EXIT_OK if gc.matches else EXIT_PROPERTY_FAILED
    return result, evidence, code


def _cmd_coverage(args: argparse.Namespace, alphabet: DigitAlphabet) -> Outcome:
    from .sumsets import coverage_checks

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


def _cmd_gamma(args: argparse.Namespace, alphabet: DigitAlphabet) -> Outcome:
    from .sumsets import gamma_search

    gw = gamma_search(alphabet, args.multipliers, args.horizon)
    result = {"n": gw.n, "m": gw.m, "gamma": gw.gamma}
    evidence = {
        "zeroDigits": list(gw.zero_digits),
        "multiplierDigits": [[b, list(d)] for b, d in gw.beta_digits],
    }
    return result, evidence, EXIT_OK


def _cmd_conservativity(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.products import ProductQuery, conservativity_fraction

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
    return result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]


def _cmd_ergodic_match(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.matching import ProductQuery, ergodic_matching

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
    return result, evidence, _VERDICT_EXIT[res.certificate.verdict]


def _cmd_pattern(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.matching import PatternQuery, pattern_measure

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
    evidence = {"certificate": res.certificate}
    return result, evidence, _VERDICT_EXIT[res.certificate.verdict]


def _cmd_mixing(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.mixing import mixing_decay
    from .construction import LevelRef

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
    evidence = {"certificate": res.certificate}
    return result, evidence, _VERDICT_EXIT[res.verdict]


def _cmd_npc(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.npc import npc_certificate

    cert = npc_certificate(spec, args.kappa, args.start, args.horizon)
    longest = max(row["longest"] for row in cert.evidence["progressions"])
    result = {
        "verdict": cert.verdict,
        "longest": longest,
        "proofSup": cert.evidence["proofSup"],
    }
    _attach_approx(args, result, {"proofSup": cert.evidence["proofSup"]})
    return result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]


def _cmd_pwm(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.pwm import pwm_witness
    from .specio import tq_params_of

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


def _cmd_non_ergodic(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.products import non_ergodic_check

    cert = non_ergodic_check(spec, args.alpha, args.shifts, args.base, args.horizon)
    result = {"verdict": cert.verdict, "scope": cert.evidence.get("scope")}
    return result, {"certificate": cert}, _VERDICT_EXIT[cert.verdict]


def _cmd_asymmetry(args: argparse.Namespace, spec: RankOneSpec) -> Outcome:
    from .certificates.asymmetry import asymmetry_statistic

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


# ---------------------------------------------------------------------------
# the command table

# One flag: its option string and the keyword arguments of ``add_argument``.
Flag = tuple[str, dict[str, Any]]


def _required(option: str, kind: Any, metavar: str, **extra: Any) -> Flag:
    return option, {"type": kind, "required": True, "metavar": metavar, **extra}


def _optional(option: str, kind: Any, metavar: str, **extra: Any) -> Flag:
    return option, {"type": kind, "metavar": metavar, **extra}


_SPEC = _required("--spec", None, "PATH", help="spec JSON file")
_LEVEL = _required("--base", _level_arg, "STAGE:HEIGHT")
_BASE = _required("--base", _nonneg_int, "STAGE")
_BASE_1 = _required("--base", _positive_int, "STAGE")
_TO = _required("--to", _nonneg_int, "STAGE")
_HORIZON = _required("--horizon", _positive_int, "STAGE")
_HORIZON_8 = _optional("--horizon", _positive_int, "N", default=8)
_MULTIPLIERS = _required("--multipliers", _int_list, "LIST")
_ALPHA = _required("--alpha", _int_list, "LIST")
_SHIFTS = _required("--shifts", _int_list, "LIST")
_DIGITS = _required("--digits", _positive_int, "N")
_DIGIT_SOURCE = (
    _optional("--spec", None, "PATH", help="spec JSON file"),
    _optional("--k", _positive_int, "K", help="digit base"),
    _optional(
        "--alphabet",
        _int_list,
        "LIST",
        help="comma-separated digits (0 and K-1 required)",
    ),
)
_STAGES = _required("--stages", _positive_int, "N")
_MAX_LEN = _required("--max-len", _positive_int, "L")
_STAGE = _required("--stage", _nonneg_int, "N")
_SHIFT = _optional("--shift", _positive_int, "Z")
_TARGET = _required("--target", _int_arg, "X")
_EPSILON = _optional("--epsilon", _fraction_arg, "EPS", default="1/10")
_MOVES = _required(
    "--moves", _int_list, "LIST", help="raised-move count per coordinate"
)
_CUTOFF = _required("--cutoff", _positive_int, "STAGE")
_DCONST = _optional("--dconst", _positive_int, "D")
_SHIFTS_OR_NONE = _optional("--shifts", _int_list, "LIST", default=())
_WINDOW = _optional("--window", _nonneg_int, "STAGE")
_KAPPA = _required("--kappa", _positive_int, "K")
_START = _optional("--start", _nonneg_int, "STAGE", default=0)
_SCALE = _required("--scale", _positive_int, "STAGE")
_EVAL = _required("--eval", _positive_int, "STAGE")

# Every command: its help line, its flags after --json and --approx, and the
# part of ``certificates`` its handler imports (None if it issues no
# certificate).  Each flag is echoed into the report's ``inputs`` under its
# camelCase name, except that the flags in _ECHO_IF_GIVEN are left out when not given.
_COMMANDS: dict[str, tuple[str, tuple[Flag, ...], str | None]] = {
    "validate": ("parse a spec file and echo its normal form", (_SPEC,), None),
    "heights": ("column heights h_0..h_{N-1}", (_SPEC, _STAGES), None),
    "descendants": ("heights a level splits into", (_SPEC, _LEVEL, _TO), None),
    "diffset": ("difference multiset of the descendants", (_SPEC, _LEVEL, _TO), None),
    "ap": (
        "longest run x,2x,..,lx inside the difference set",
        (_SPEC, _LEVEL, _TO, _MAX_LEN),
        None,
    ),
    "partners": (
        "offsets with a partner at distance z, z+1", (_SPEC, _STAGE, _SHIFT), None
    ),
    "membership": (
        "digit representation of a target value",
        (*_DIGIT_SOURCE, _DIGITS, _TARGET),
        None,
    ),
    "gaps": (
        "missing-value counts: recursion vs brute force",
        (*_DIGIT_SOURCE, _DIGITS),
        None,
    ),
    "coverage": (
        "low-range and parity coverage checks", (*_DIGIT_SOURCE, _DIGITS), None
    ),
    "gamma": (
        "shift keeping scaled powers representable",
        (*_DIGIT_SOURCE, _MULTIPLIERS, _HORIZON_8),
        None,
    ),
    "conservativity": (
        "returning-tuple fraction",
        (_SPEC, _MULTIPLIERS, _BASE, _HORIZON, _EPSILON),
        "products",
    ),
    "ergodic-match": (
        "matched fraction for +-1 products",
        (_SPEC, _MULTIPLIERS, _SHIFTS, _BASE, _HORIZON),
        "matching",
    ),
    "pattern": (
        "capture bound for all-forward move patterns",
        (_SPEC, _MOVES, _BASE, _CUTOFF, _DCONST),
        "matching",
    ),
    "mixing": (
        "overlap ratios against the pairing bound",
        (_SPEC, _LEVEL, _SHIFTS_OR_NONE, _WINDOW),
        "mixing",
    ),
    "npc": (
        "progression freeness with self-propagating ratios",
        (_SPEC, _KAPPA, _START, _HORIZON),
        "npc",
    ),
    "pwm": (
        "matched pair witness for products of powers",
        (_SPEC, _ALPHA, _SHIFTS, _BASE_1, _HORIZON_8),
        "pwm",
    ),
    "non-ergodic": (
        "certify shifts as never realizable",
        (_SPEC, _ALPHA, _SHIFTS, _BASE, _HORIZON),
        "products",
    ),
    "asymmetry": (
        "triple-overlap statistic vs its reversal",
        (_SPEC, _BASE_1, _SCALE, _EVAL),
        "asymmetry",
    ),
}

_ECHO_IF_GIVEN = frozenset({"--spec", "--k", "--alphabet", "--shift"})


def _new_parser(**kwargs: Any) -> argparse.ArgumentParser:
    """An argument parser that reports usage problems via ``UsageError``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> Any:  # noqa: A003 - argparse API
            raise UsageError(message)

    return Parser(**kwargs)


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--json", metavar="PATH", help="write the report to PATH")
    p.add_argument(
        "--approx",
        action="store_true",
        help="include non-authoritative decimal renderings",
    )
    for option, kwargs in _COMMANDS[command][1]:
        p.add_argument(option, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for help, ``--version`` and usage errors."""
    from ._version import __version__

    parser = _new_parser(
        prog="ranklab",
        description="exact certificates for rank-one cutting-and-stacking maps",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (help_, _, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Arguments of one run, building only the parser of the command named.

    Anything else (help, ``--version``, a missing or unknown command) goes
    through :func:`build_parser`, whose messages list every command.
    """
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    command = argv[0]
    parser = _new_parser(prog=f"ranklab {command}")
    _add_flags(parser, command)
    # argparse reads a token starting with "-" as an option unless it is a
    # plain negative number, so ``--alpha -1,2`` would lose its value: such a
    # value is joined to its list option as ``--alpha=-1,2``.
    flags = _COMMANDS[command][1]
    lists = {option for option, kwargs in flags if kwargs["type"] is _int_list}
    tokens: list[str] = []
    for token in argv[1:]:
        negative = token[:1] == "-" and token[1:2].isdigit()
        if negative and tokens and tokens[-1] in lists:
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = parser.parse_args(tokens)
    args.command = command
    return args


def _inputs(args: argparse.Namespace) -> dict[str, Any]:
    """The ``inputs`` block: the command's flags in camelCase, tuples as lists."""
    inputs = {}
    for option, _ in _COMMANDS[args.command][1]:
        value = getattr(args, option[2:].replace("-", "_"))
        if value is None and option in _ECHO_IF_GIVEN:
            continue
        head, *rest = option[2:].split("-")
        inputs[head + "".join(w.title() for w in rest)] = (
            list(value) if isinstance(value, tuple) else value
        )
    return inputs


# ---------------------------------------------------------------------------
# entry points


def run(argv: Sequence[str] | None = None) -> int:
    """Parse, dispatch, emit one report, and return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    part = _COMMANDS[argv[0]][2] if argv and argv[0] in _COMMANDS else None
    if part is not None:
        # Compiled before anything else is live; see the note on the handlers.
        importlib.import_module(f".certificates.{part}", __package__)
    from .reporting import Report, emit_report

    try:
        args = _parse(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.monotonic()
    try:
        # Looked up at call time, so a replaced handler takes effect.
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        load = _load if _SPEC in _COMMANDS[args.command][1] else _digit_alphabet
        source, fp = load(args)
        result, evidence, code = handler(args, source)
        inputs = _inputs(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
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
    except Exception as exc:
        # The report could not be written: an error report takes its place,
        # on stdout when it was --json that failed.
        path = None if isinstance(exc, IoError) else args.json
        fp, inputs, result, evidence, code = _error_outcome(argv, exc)
        emit_report(
            Report(args.command, fp, inputs, result, evidence, report.duration_ms), path
        )
    return code


def _error_outcome(
    argv: list[str], exc: Exception
) -> tuple[str, dict[str, Any], dict[str, Any], dict[str, Any], int]:
    """Fingerprint, inputs, result, evidence and exit code of an error report."""
    # A RankLabError is a refusal; anything else is a bug in ranklab, so its
    # traceback goes to stderr beside the error report.
    if not isinstance(exc, RankLabError):
        import traceback  # here, to keep it off the start-up path

        traceback.print_exc()
    error = {"type": type(exc).__name__, "message": str(exc)}
    from .reporting import fingerprint

    # An error report carries the fingerprint of no spec.
    return fingerprint(None), {"argv": argv}, {"error": error}, {}, EXIT_ERROR


def main() -> None:
    sys.exit(run())
