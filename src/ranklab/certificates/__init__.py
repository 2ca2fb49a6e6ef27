"""Machine-checkable certificates for dynamical properties of a construction.

Each operation here answers a yes/no/unknown question about the
transformation a construction describes — can shifted copies of a level be
matched back onto each other, how fast do overlaps decay, are long
arithmetic progressions absent from the difference sets — and packages the
answer as a :class:`Certificate`: a verdict plus enough exact evidence that
an independent checker can replay the claim without rerunning the search.

Verdicts are three-valued.  ``holds`` and ``fails`` are only emitted when
exact finite arithmetic settles the question at the inspected stages;
anything limited by horizon, budget, or an unmet hypothesis is
``inconclusive``.  Witnesses (matched tuple pairs, progressions, shifts) are
re-verified from raw integers before a certificate is emitted — a
non-verifying witness is a bug, and raises :class:`PreconditionViolated`.

The code is split by command, as a process without cached bytecode compiles
every source it imports: a command compiles this core, which holds what the
commands share, and its own part (``products``, ``matching``, ``mixing``,
``npc``, ``pwm`` or ``asymmetry``), whose public names are exported here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .. import _lazy_exports
from ..construction import LevelRef, RankOneSpec, check_level
from ..errors import CheckedRecord, ParamOutOfRange, PreconditionViolated, is_plain_int
from ..reporting import TOOL_VERSION
from ..specio import spec_fingerprint

# Public names by the part that defines them.  A part is imported the first
# time one of its names is looked up (PEP 562), as in ``ranklab/__init__``.
_PARTS = {
    "products": ("conservativity_fraction", "non_ergodic_check"),
    "matching": ("ErgodicMatchResult", "ergodic_matching", "PatternQuery", "PatternResult",
                 "pattern_measure"),
    "mixing": ("MixingEntry", "MixingResult", "mixing_decay"),
    "npc": ("npc_certificate",),
    "pwm": ("PwmResult", "pwm_witness"),
    "asymmetry": ("AsymmetryResult", "asymmetry_statistic"),
}
_PART_OF = {name: part for part, names in _PARTS.items() for name in names}

__all__ = [
    "VERDICT_HOLDS", "VERDICT_FAILS", "VERDICT_INCONCLUSIVE", "CERTIFICATE_KINDS",
    "Certificate", "ProductQuery", "MatchWitness", "verify_match_witness", *_PART_OF,
]

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_INCONCLUSIVE = "inconclusive"
_VERDICTS = (VERDICT_HOLDS, VERDICT_FAILS, VERDICT_INCONCLUSIVE)

CERTIFICATE_KINDS = (
    "ap-free",
    "ratio-bound",
    "ergodic-fraction",
    "conservative-fraction",
    "pwm-witness",
    "non-ergodic",
    "mixing-decay",
    "asymmetry",
    "pattern-bound",
)


def _require(ok: bool, message: str) -> None:
    """Certificate guard that also runs under ``python -O``, unlike ``assert``."""
    if not ok:
        raise PreconditionViolated(message)


def _require_ints(
    values: Sequence[Any], what: str, ok: Callable[[int], object] = lambda v: True
) -> None:
    """Refuse the first value that is no plain ``int`` or fails ``ok``."""
    for v in values:
        if not is_plain_int(v) or not ok(v):
            raise ParamOutOfRange(f"{what}, got {v!r}")


class _CertificateFields(NamedTuple):
    kind: str
    verdict: str
    parameters: Mapping[str, Any]
    evidence: Mapping[str, Any]
    spec_fingerprint: str
    tool_version: str = TOOL_VERSION


class Certificate(CheckedRecord, _CertificateFields):
    """A verdict with replayable evidence, bound to one exact construction."""

    __slots__ = ()

    def _check(self) -> None:
        _require(self.kind in CERTIFICATE_KINDS, f"unknown certificate kind {self.kind}")
        _require(self.verdict in _VERDICTS, f"unknown verdict {self.verdict}")


def _certificate(
    spec: RankOneSpec,
    kind: str,
    verdict: str,
    parameters: Mapping[str, Any],
    evidence: Mapping[str, Any],
) -> Certificate:
    return Certificate(
        kind=kind,
        verdict=verdict,
        parameters=dict(parameters),
        evidence=dict(evidence),
        spec_fingerprint=spec_fingerprint(spec),
    )


# ---------------------------------------------------------------------------
# queries over products of powers


class _ProductQueryFields(NamedTuple):
    multipliers: tuple[int, ...]
    shifts: tuple[int, ...]
    base_stage: int
    horizon: int
    epsilon: Fraction = Fraction(1, 10)


class ProductQuery(CheckedRecord, _ProductQueryFields):
    """Shifted product question: one coordinate per entry of ``multipliers``.

    Coordinate ``l`` carries the power ``multipliers[l]`` of the base map and
    the shift ``shifts[l]``.  Stages ``base_stage .. horizon - 1`` are the
    inspection window; ``epsilon`` is the slack used by threshold verdicts.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not self.multipliers:
            raise ParamOutOfRange("product query needs at least one coordinate")
        _require_ints(self.multipliers, "multipliers must be nonzero integers", bool)
        if len(self.shifts) != len(self.multipliers):
            raise ParamOutOfRange(
                f"{len(self.shifts)} shifts for {len(self.multipliers)} coordinates"
            )
        _require_ints(self.shifts, "shifts must be integers")
        _require_ints((self.base_stage, self.horizon), "stages must be integers")
        if self.base_stage < 0:
            raise ParamOutOfRange(f"base stage must be >= 0, got {self.base_stage}")
        if self.horizon <= self.base_stage:
            raise ParamOutOfRange(
                f"horizon {self.horizon} must exceed base stage {self.base_stage}"
            )
        if not 0 <= self.epsilon < 1:
            raise ParamOutOfRange(f"epsilon must lie in [0, 1), got {self.epsilon}")


def _check_shift_bounds(spec: RankOneSpec, query: ProductQuery) -> None:
    h = spec.height(query.base_stage)
    for l, b in enumerate(query.shifts):
        if not 0 <= b < h:
            raise ParamOutOfRange(
                f"shift b[{l}] = {b} outside [0, {h}) at stage {query.base_stage}"
            )


# ---------------------------------------------------------------------------
# matched-pair witnesses


class MatchWitness(NamedTuple):
    """One exactly matched tuple pair for a shifted product question.

    Coordinate ``c`` pairs level height ``a[c]`` with ``d[c]``; both are
    descendants of ``base`` (their per-stage offsets are recorded), and the
    pair satisfies ``a[c] - d[c] - shifts[c] == powers[c] * residual`` with a
    single residual shared by every coordinate.  All quantities are raw
    integers so the witness can be rechecked without any search state.
    """

    base: LevelRef
    powers: tuple[int, ...]
    shifts: tuple[int, ...]
    a: tuple[int, ...]
    d: tuple[int, ...]
    a_summands: tuple[tuple[tuple[int, int], ...], ...]
    d_summands: tuple[tuple[tuple[int, int], ...], ...]
    end_stages: tuple[int, ...]
    residual: int


def verify_match_witness(spec: RankOneSpec, witness: MatchWitness) -> None:
    """Recheck a witness from raw integers; any failure raises PreconditionViolated."""
    from ..sumsets import descendant_decompose  # here: ``asymmetry`` needs no sumsets

    k = len(witness.powers)
    fields = (witness.shifts, witness.a, witness.d, witness.end_stages)
    fields += (witness.a_summands, witness.d_summands)
    _require(all(len(f) == k for f in fields), "witness fields disagree on arity")
    check_level(spec, witness.base)
    for c in range(k):
        end = witness.end_stages[c]
        _require(end > witness.base.stage, f"end stage {end} of coordinate {c} too low")
        for total, summands in (
            (witness.a[c], witness.a_summands[c]),
            (witness.d[c], witness.d_summands[c]),
        ):
            stages = [g for g, _ in summands]
            _require(stages == sorted(set(stages)), "summand stages must increase")
            _require(
                all(witness.base.stage <= g < end for g in stages),
                f"summand stages of coordinate {c} outside [base, end)",
            )
            acc = witness.base.height
            by_stage = {}
            for g, off in summands:
                _require(off in spec.height_set(g), f"offset {off} not in H_{g}")
                acc += off
                by_stage[g] = off
            _require(acc == total, f"summands of coordinate {c} do not add up")
            # The greedy decomposition is unique, so it must reproduce the
            # recorded offsets (zero-padded at unused stages).
            expect = tuple(
                by_stage.get(g, 0) for g in range(witness.base.stage, end)
            )
            got = descendant_decompose(spec, witness.base, end, total)
            _require(got == expect, f"decomposition mismatch at coordinate {c}")
        lhs = witness.a[c] - witness.d[c] - witness.shifts[c]
        _require(
            lhs == witness.powers[c] * witness.residual,
            f"coordinate {c}: {lhs} != {witness.powers[c]} * {witness.residual}",
        )


__getattr__, __dir__ = _lazy_exports(globals(), _PART_OF)
