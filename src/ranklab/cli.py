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

import functools
import importlib
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

from .errors import IoError, RankLabError, UsageError

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction
    from types import ModuleType

    from .construction import RankOneSpec

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PROPERTY_FAILED = 2
EXIT_USAGE = 64

# Enumerations longer than this are summarized instead of listed, keeping
# reports bounded while staying byte-deterministic.
TABLE_CAP = 8192
RUNS_CAP = 512

# A handler (see ``handlers``) gets the spec or digit alphabet that ``run``
# loaded and returns (result, evidence, exit code); ``run`` adds the spec
# fingerprint and the ``inputs`` block, echoed from the command's flags.
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
# module ``run`` imports first: the module of ``handlers`` that holds its
# handler, or for a certificate command the part of ``certificates`` it calls,
# whose handler is in ``handlers.certificates``.  Each flag is echoed into the
# report's ``inputs`` under its camelCase name, except that the flags in
# _ECHO_IF_GIVEN are left out when not given.
_COMMANDS: dict[str, tuple[str, tuple[Flag, ...], str]] = {
    "validate": ("parse a spec file and echo its normal form", (_SPEC,), "columns"),
    "heights": ("column heights h_0..h_{N-1}", (_SPEC, _STAGES), "columns"),
    "descendants": ("heights a level splits into", (_SPEC, _LEVEL, _TO), "columns"),
    "diffset": (
        "difference multiset of the descendants", (_SPEC, _LEVEL, _TO), "differences"
    ),
    "ap": (
        "longest run x,2x,..,lx inside the difference set",
        (_SPEC, _LEVEL, _TO, _MAX_LEN),
        "differences",
    ),
    "partners": (
        "offsets with a partner at distance z, z+1", (_SPEC, _STAGE, _SHIFT), "differences"
    ),
    "membership": (
        "digit representation of a target value",
        (*_DIGIT_SOURCE, _DIGITS, _TARGET),
        "digits",
    ),
    "gaps": (
        "missing-value counts: recursion vs brute force",
        (*_DIGIT_SOURCE, _DIGITS),
        "digits",
    ),
    "coverage": (
        "low-range and parity coverage checks", (*_DIGIT_SOURCE, _DIGITS), "digits"
    ),
    "gamma": (
        "shift keeping scaled powers representable",
        (*_DIGIT_SOURCE, _MULTIPLIERS, _HORIZON_8),
        "digits",
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


@functools.cache
def _parser_class() -> type[argparse.ArgumentParser]:
    """The argument parser class, reporting usage problems via ``UsageError``."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> Any:  # noqa: A003 - argparse API
            raise UsageError(message)

    return Parser


# Each command's parser, built on the command's first run in the process.
_PARSERS: dict[str, argparse.ArgumentParser] = {}


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

    parser = _parser_class()(
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
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = _parser_class()(prog=f"ranklab {command}")
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


def _handlers(command: str) -> ModuleType:
    """The command's handler module, after the part of ``certificates`` it calls."""
    group = _COMMANDS[command][2]
    if group not in ("columns", "differences", "digits"):
        importlib.import_module(f".certificates.{group}", __package__)
        group = "certificates"
    return importlib.import_module(f".handlers.{group}", __package__)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse, dispatch, emit one report, and return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _COMMANDS:
        _handlers(argv[0])  # compiled before anything else is live; see ``handlers``
    from .reporting import Report, emit_report

    try:
        args = _parse(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = time.monotonic()
    try:
        # Looked up at call time, so a replaced handler takes effect.
        handlers = _handlers(args.command)
        handler = getattr(handlers, "_cmd_" + args.command.replace("-", "_"))
        load = _load if _SPEC in _COMMANDS[args.command][1] else handlers._digit_alphabet
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
