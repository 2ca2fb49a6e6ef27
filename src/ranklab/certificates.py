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
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, Sequence

from ._budget import charge, enumeration_budget
from .construction import (
    LevelRef,
    MeasureInterval,
    RankOneSpec,
    _intersection_measure,
    check_level,
    descendant_extent,
    descendant_heights,
)
from .errors import (
    BudgetExceeded,
    HypothesisUnmet,
    NoPartnerStages,
    ParamOutOfRange,
    PreconditionViolated,
    StageTooLow,
    StageUnavailable,
    is_plain_int,
)
from .families import TQParams, make_tq
from .reporting import TOOL_VERSION
from .specio import spec_fingerprint
from .sumsets import (
    PartnerShift,
    descendant_decompose,
    descendant_differences,
    gamma_search,
    partner_shift,
    progression_runs,
)

__all__ = [
    "VERDICT_HOLDS",
    "VERDICT_FAILS",
    "VERDICT_INCONCLUSIVE",
    "CERTIFICATE_KINDS",
    "Certificate",
    "ProductQuery",
    "MatchWitness",
    "verify_match_witness",
    "conservativity_fraction",
    "ErgodicMatchResult",
    "ergodic_matching",
    "exhaustive_matches",
    "PatternQuery",
    "PatternResult",
    "pattern_measure",
    "MixingEntry",
    "MixingResult",
    "mixing_decay",
    "npc_certificate",
    "PwmResult",
    "pwm_witness",
    "non_ergodic_check",
    "AsymmetryResult",
    "asymmetry_statistic",
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


@dataclass(frozen=True)
class Certificate:
    """A verdict with replayable evidence, bound to one exact construction."""

    kind: str
    verdict: str
    parameters: Mapping[str, Any]
    evidence: Mapping[str, Any]
    spec_fingerprint: str
    tool_version: str = TOOL_VERSION

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class ProductQuery:
    """Shifted product question: one coordinate per entry of ``multipliers``.

    Coordinate ``l`` carries the power ``multipliers[l]`` of the base map and
    the shift ``shifts[l]``.  Stages ``base_stage .. horizon - 1`` are the
    inspection window; ``epsilon`` is the slack used by threshold verdicts.
    """

    multipliers: tuple[int, ...]
    shifts: tuple[int, ...]
    base_stage: int
    horizon: int
    epsilon: Fraction = Fraction(1, 10)

    def __post_init__(self) -> None:
        if not self.multipliers:
            raise ParamOutOfRange("product query needs at least one coordinate")
        _require_ints(self.multipliers, "multipliers must be nonzero integers", bool)
        if len(self.shifts) != len(self.multipliers):
            raise ParamOutOfRange(
                f"{len(self.shifts)} shifts for {len(self.multipliers)} coordinates"
            )
        _require_ints(self.shifts, "shifts must be integers")
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


@dataclass(frozen=True)
class MatchWitness:
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


# ---------------------------------------------------------------------------
# conservativity of shifted products (zero shifts)


def _residue_matched(values: Sequence[int], alpha0: int) -> int:
    m = abs(alpha0)
    if m == 1:
        # Any other descendant is reachable with a nonzero power.
        return len(values) if len(values) > 1 else 0
    classes: dict[int, int] = {}
    for a in values:
        classes[a % m] = classes.get(a % m, 0) + 1
    return sum(c for c in classes.values() if c >= 2)


def _anchored_matched(
    values: Sequence[int], alpha0: int, arity: int
) -> tuple[int, Fraction]:
    """Uniform-multiplier route: group tuples by anchored difference key.

    Sliding a tuple by ``n * alpha`` preserves the coordinate differences and
    the anchor's residue mod ``|alpha|``; two tuples in one group are exact
    slides of each other, and a nonzero slide exists iff a group has >= 2
    members.  Returns the matched count and the diagonal sub-fraction.
    """
    m = abs(alpha0)
    groups: dict[tuple, int] = {}
    if arity == 2:
        for a0 in values:
            key0 = a0 % m
            for a1 in values:
                key = (a1 - a0, key0)
                groups[key] = groups.get(key, 0) + 1
    else:
        for tup in itertools.product(values, repeat=arity):
            key = (tuple(t - tup[0] for t in tup[1:]), tup[0] % m)
            groups[key] = groups.get(key, 0) + 1
    matched = sum(c for c in groups.values() if c >= 2)
    zero = (0,) * (arity - 1) if arity > 2 else 0
    diag_matched = sum(
        c for key, c in groups.items() if key[0] == zero and c >= 2
    )
    diagonal = Fraction(diag_matched, len(values))
    return matched, diagonal


def _difference_matched(counts: Mapping[int, int]) -> tuple[int, Fraction]:
    """``_anchored_matched`` for two coordinates and ``|alpha| = 1``.

    The key is then the difference alone, so a group is the set of ordered
    pairs at one difference: ``counts`` gives their number for each
    difference ``d >= 0``, and ``-d`` has as many as ``d``.
    """
    size = counts[0]
    diag_matched = size if size >= 2 else 0
    matched = diag_matched + 2 * sum(c for d, c in counts.items() if d and c >= 2)
    return matched, Fraction(diag_matched, size)


def _slide_scan(
    values: Sequence[int], alphas: Sequence[int], shifts: Sequence[int]
) -> int:
    """Count the tuples that some slide ``n`` moves back into the value set.

    Tuple ``a`` slides back when every ``a_l - n*alphas[l] - shifts[l]`` is a
    value.  With every shift 0, ``n = 0`` is the identity and does not count.
    Each value gets a bitmask of its slides, one bit per slide coordinate 0
    can take (so at most ``V**2`` bits); a tuple slides back iff the AND of
    its masks is nonzero, so each coordinate folds in by its distinct masks.
    """
    a0, b0 = alphas[0], shifts[0]
    slides = {a - d - b0 for a in values for d in values}
    slides = {x // a0 for x in slides if not x % a0 and (x or any(shifts))}
    bit = {n: 1 << i for i, n in enumerate(sorted(slides))}
    masks: dict[tuple[int, int], Counter[int]] = {}
    for al, b in set(zip(alphas, shifts)):
        at = {n * al + b: m for n, m in bit.items()}
        masks[al, b] = Counter(sum(at.get(a - d, 0) for d in values) for a in values)
    *head, last = zip(alphas, shifts)
    partial: Mapping[int, int] = {-1: 1}  # -1 has every bit set
    for pair in head:
        folded: Counter[int] = Counter()
        for pm, pc in partial.items():
            for m, c in masks[pair].items():
                if pm & m:
                    folded[pm & m] += pc * c
        partial = folded
    tail = masks[last].items()
    return sum(pc * sum(c for m, c in tail if pm & m) for pm, pc in partial.items())


def conservativity_fraction(
    spec: RankOneSpec, query: ProductQuery
) -> tuple[Fraction, Certificate]:
    """Fraction of descendant tuples that slide back into the tuple set.

    A tuple ``(a_0, ..., a_{v-1})`` of stage-``j`` descendants *returns* if
    some nonzero integer power ``n`` has ``a_l - n * multipliers[l]`` again a
    descendant for every ``l`` — the finite shadow of the product
    transformation revisiting a positive-measure set.  The verdict holds at
    ``epsilon`` when some inspected stage has fraction >= 1 - epsilon.
    """
    if any(query.shifts):
        raise ParamOutOfRange("the return-fraction question uses zero shifts")
    _check_shift_bounds(spec, query)
    base = LevelRef(query.base_stage, 0)
    alpha = query.multipliers
    v = len(alpha)
    rows = []
    best = Fraction(0)
    known = None
    for j in range(query.base_stage + 1, query.horizon + 1):
        values = descendant_heights(spec, base, j)
        count = len(values)
        diagonal: Fraction | None = None
        if v == 1:
            matched = _residue_matched(values, alpha[0])
            route = "residue"
        elif len(set(alpha)) == 1:
            charge(count**v, "anchored difference keys")
            if v == 2 and abs(alpha[0]) == 1:
                counts = descendant_differences(spec, base, j, values, True, known)
                known = (j, counts)
                matched, diagonal = _difference_matched(counts)
            else:
                matched, diagonal = _anchored_matched(values, alpha[0], v)
            route = "anchored"
        else:
            charge(count ** (v + 1), "per-tuple slide scan")
            matched = _slide_scan(values, alpha, query.shifts)
            route = "scan"
        fraction = Fraction(matched, count**v)
        _require(0 <= fraction <= 1, "fraction outside [0, 1]")
        row: dict[str, Any] = {
            "stage": j,
            "route": route,
            "matched": matched,
            "tuples": count**v,
            "fraction": fraction,
        }
        if diagonal is not None:
            row["diagonalFraction"] = diagonal
        rows.append(row)
        best = max(best, fraction)
    verdict = VERDICT_HOLDS if best >= 1 - query.epsilon else VERDICT_INCONCLUSIVE
    cert = _certificate(
        spec,
        "conservative-fraction",
        verdict,
        parameters={
            "multipliers": alpha,
            "shifts": query.shifts,
            "baseStage": query.base_stage,
            "horizon": query.horizon,
            "epsilon": query.epsilon,
        },
        evidence={"stages": rows, "bestFraction": best},
    )
    return best, cert


# ---------------------------------------------------------------------------
# matching machinery shared by the ergodic-fraction and pattern questions

# Move kinds: how one stage of the matching treats the tuple's coordinates.
_RAISED_FORWARD = 1  # forward target absorbs one extra unit
_LOWERED_FORWARD = 2  # forward target gives one unit back
_RAISED_INVERSE = 3  # inverse target absorbs one extra unit


@dataclass(frozen=True)
class _Move:
    coord: int
    kind: int


def _move_plan(
    signature: Sequence[int], shifts: Sequence[int]
) -> tuple[tuple[_Move, ...], int]:
    """Block-ordered move list realizing the shifts, and the anchor index."""
    forwards = [l for l, e in enumerate(signature) if e > 0]
    if not forwards:
        raise ParamOutOfRange("matching needs at least one forward coordinate")
    ref = forwards[0]
    b_ref = shifts[ref]
    moves: list[_Move] = []
    for l in forwards:
        excess = shifts[l] - b_ref
        moves.extend([_Move(l, _RAISED_FORWARD)] * max(excess, 0))
    for l in forwards:
        deficit = b_ref - shifts[l]
        moves.extend([_Move(l, _LOWERED_FORWARD)] * max(deficit, 0))
    for l, e in enumerate(signature):
        if e < 0:
            lift = shifts[l] + b_ref
            _require(lift >= 0, "inverse lift negative despite nonnegative shifts")
            moves.extend([_Move(l, _RAISED_INVERSE)] * lift)
    return tuple(moves), ref


def _stage_sets(
    ps: PartnerShift, signature: Sequence[int], move: _Move
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Per-coordinate required offsets and offset deltas for one move stage.

    Returns ``(required, deltas)`` where a tuple advances the matching iff
    coordinate ``l``'s stage offset lies in ``required[l]``, in which case its
    partner offset differs by ``deltas[l]`` (new offset = old - delta).
    """
    z = ps.z
    s_z = ps.at_z.members
    s_z1 = ps.at_z_plus_1.members
    s_z_low = tuple(x - z for x in s_z)
    s_z1_low = tuple(x - z - 1 for x in s_z1)
    required: list[tuple[int, ...]] = []
    deltas: list[int] = []
    for l, e in enumerate(signature):
        if move.kind == _RAISED_FORWARD:
            if e > 0 and l == move.coord:
                required.append(s_z1), deltas.append(z + 1)
            elif e > 0:
                required.append(s_z), deltas.append(z)
            else:
                required.append(s_z_low), deltas.append(-z)
        elif move.kind == _LOWERED_FORWARD:
            if e > 0 and l == move.coord:
                required.append(s_z), deltas.append(z)
            elif e > 0:
                required.append(s_z1), deltas.append(z + 1)
            else:
                required.append(s_z1_low), deltas.append(-(z + 1))
        else:
            if e < 0 and l == move.coord:
                required.append(s_z_low), deltas.append(-z)
            elif e < 0:
                required.append(s_z1_low), deltas.append(-(z + 1))
            else:
                required.append(s_z1), deltas.append(z + 1)
    return tuple(required), tuple(deltas)


def _hit_region(ps: PartnerShift) -> tuple[int, ...]:
    """Offsets that participate in any pair at shift z or z+1 (either end)."""
    z = ps.z
    region = set(ps.at_z.members) | set(ps.at_z_plus_1.members)
    region |= {x - z for x in ps.at_z.members}
    region |= {x - z - 1 for x in ps.at_z_plus_1.members}
    return tuple(sorted(region))


@dataclass(frozen=True)
class ErgodicMatchResult:
    fraction: Fraction
    dead: Fraction
    pending: Fraction
    witness: MatchWitness | None
    certificate: Certificate


def ergodic_matching(spec: RankOneSpec, query: ProductQuery) -> ErgodicMatchResult:
    """Exact matched fraction for a product of powers +-1 with shifts.

    A descendant tuple is *matched* once it has performed, in order, the
    planned moves: the tuple's first ``gamma`` visits to the per-stage hit
    region must land in the move's required offsets.  Matched tuples map to
    partner tuples realizing ``a - d - b = power * residual`` with one shared
    residual; the construction is replayed on an explicit lex-least witness.
    """
    for l, m in enumerate(query.multipliers):
        if m not in (1, -1):
            raise ParamOutOfRange(
                f"matching handles powers +-1 only; coordinate {l} has {m}"
            )
    _check_shift_bounds(spec, query)
    signature = query.multipliers
    k = len(signature)
    moves, ref = _move_plan(signature, query.shifts)
    gamma = len(moves)
    base = LevelRef(query.base_stage, 0)

    stage_rows = []
    partner_stages: list[tuple[int, PartnerShift]] = []
    for n in range(query.base_stage, query.horizon):
        ps = partner_shift(spec.height_set(n))
        stage_rows.append(
            {
                "stage": n,
                "offsets": len(spec.height_set(n)),
                "shift": None if ps is None else ps.z,
                "pairs": None if ps is None else len(ps.at_z.members),
            }
        )
        if ps is not None:
            partner_stages.append((n, ps))
    if gamma > 0 and not partner_stages:
        raise NoPartnerStages(
            f"no stage in [{query.base_stage}, {query.horizon}) has a partner shift"
        )

    # Exact distribution over moves completed, tuple offsets being uniform
    # and independent across stages.
    alive = [Fraction(0)] * (gamma + 1)
    alive[0] = Fraction(1)
    dead = Fraction(0)
    for n, ps in partner_stages:
        hset = spec.height_set(n)
        region = _hit_region(ps)
        p_hit = Fraction(len(region), len(hset)) ** k
        advanced = [Fraction(0)] * (gamma + 1)
        for t in range(gamma + 1):
            if not alive[t]:
                continue
            if t == gamma:
                advanced[t] += alive[t]  # finished tuples ignore later hits
                continue
            required, _ = _stage_sets(ps, signature, moves[t])
            p_move = Fraction(1)
            for req in required:
                p_move *= Fraction(len(req), len(hset))
            _require(p_move <= p_hit, "required offsets must lie in the hit region")
            advanced[t + 1] += alive[t] * p_move
            advanced[t] += alive[t] * (1 - p_hit)
            dead += alive[t] * (p_hit - p_move)
        alive = advanced
    fraction = alive[gamma]
    pending = sum(alive[:gamma], Fraction(0))
    _require(fraction + pending + dead == 1, "matched, pending and dead mass must sum to 1")

    witness = None
    if fraction > 0:
        witness = _build_match_witness(
            spec, base, signature, query.shifts, query.horizon,
            moves, ref, partner_stages,
        )
        verify_match_witness(spec, witness)

    verdict = VERDICT_HOLDS if fraction > 0 else VERDICT_INCONCLUSIVE
    evidence: dict[str, Any] = {
        "stages": stage_rows,
        "moves": [{"coord": m.coord, "kind": m.kind} for m in moves],
        "gamma": gamma,
        "fraction": fraction,
        "dead": dead,
        "pending": pending,
    }
    if gamma > 0 and len(partner_stages) < gamma:
        evidence["obstruction"] = (
            f"only {len(partner_stages)} partner stages for {gamma} moves"
        )
    if witness is not None:
        evidence["witness"] = {
            "a": witness.a,
            "d": witness.d,
            "residual": witness.residual,
        }
    cert = _certificate(
        spec,
        "ergodic-fraction",
        verdict,
        parameters={
            "multipliers": signature,
            "shifts": query.shifts,
            "baseStage": query.base_stage,
            "horizon": query.horizon,
        },
        evidence=evidence,
    )
    return ErgodicMatchResult(fraction, dead, pending, witness, cert)


def _build_match_witness(
    spec: RankOneSpec,
    base: LevelRef,
    powers: Sequence[int],
    shifts: Sequence[int],
    horizon: int,
    moves: Sequence[_Move],
    ref: int,
    partner_stages: Sequence[tuple[int, PartnerShift]],
) -> MatchWitness:
    """Lex-least matched tuple: smallest required offset at each move stage."""
    k = len(powers)
    gamma = len(moves)
    _require(len(partner_stages) >= gamma, "fewer partner stages than moves")
    move_at = {partner_stages[t][0]: t for t in range(gamma)}
    a_rows: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    d_rows: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    shift_sum = 0
    for n in range(base.stage, horizon):
        if n in move_at:
            t = move_at[n]
            ps = dict(partner_stages)[n]
            required, deltas = _stage_sets(ps, powers, moves[t])
            if moves[t].kind == _RAISED_FORWARD:
                shift_sum += ps.z
            else:
                shift_sum += ps.z + 1
            for c in range(k):
                offset = min(required[c])
                a_rows[c].append((n, offset))
                d_rows[c].append((n, offset - deltas[c]))
        else:
            for c in range(k):
                a_rows[c].append((n, 0))
                d_rows[c].append((n, 0))
    a = tuple(base.height + sum(off for _, off in row) for row in a_rows)
    d = tuple(base.height + sum(off for _, off in row) for row in d_rows)
    residual = shift_sum - shifts[ref]
    return MatchWitness(
        base=base,
        powers=tuple(powers),
        shifts=tuple(shifts),
        a=a,
        d=d,
        a_summands=tuple(tuple(row) for row in a_rows),
        d_summands=tuple(tuple(row) for row in d_rows),
        end_stages=(horizon,) * k,
        residual=residual,
    )


def exhaustive_matches(
    spec: RankOneSpec, query: ProductQuery
) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Replay the matching tuple by tuple; the slow cross-check route.

    Returns ``{a_tuple: (d_tuple, residual)}`` over all matched stage-horizon
    descendant tuples.  Agreement of ``len(result) / total`` with the
    distribution computed by :func:`ergodic_matching`, and injectivity of the
    map, are exactly the properties the fast route relies on.
    """
    for l, m in enumerate(query.multipliers):
        if m not in (1, -1):
            raise ParamOutOfRange(
                f"matching handles powers +-1 only; coordinate {l} has {m}"
            )
    _check_shift_bounds(spec, query)
    signature = query.multipliers
    k = len(signature)
    moves, ref = _move_plan(signature, query.shifts)
    gamma = len(moves)
    base = LevelRef(query.base_stage, 0)
    values = descendant_heights(spec, base, query.horizon)
    span = query.horizon - query.base_stage
    charge(len(values) ** k * span, "exhaustive tuple matching")

    decomp = {
        v: descendant_decompose(spec, base, query.horizon, v) for v in values
    }
    stage_info: list[tuple[tuple[int, ...], PartnerShift | None]] = []
    for n in range(query.base_stage, query.horizon):
        ps = partner_shift(spec.height_set(n))
        stage_info.append((() if ps is None else _hit_region(ps), ps))

    out: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for avec in itertools.product(values, repeat=k):
        offs = [decomp[a] for a in avec]
        t = 0
        shift_sum = 0
        d_offs = [list(o) for o in offs]
        ok = True
        for idx in range(span):
            region, ps = stage_info[idx]
            if ps is None:
                continue
            stage_offs = tuple(offs[c][idx] for c in range(k))
            if not all(o in region for o in stage_offs):
                continue
            if t == gamma:
                continue  # finished; later hits are free
            required, deltas = _stage_sets(ps, signature, moves[t])
            if all(o in req for o, req in zip(stage_offs, required)):
                for c in range(k):
                    d_offs[c][idx] = offs[c][idx] - deltas[c]
                shift_sum += ps.z if moves[t].kind == _RAISED_FORWARD else ps.z + 1
                t += 1
            else:
                ok = False
                break
        if not ok or t < gamma:
            continue
        dvec = tuple(
            base.height + sum(d_offs[c]) for c in range(k)
        )
        residual = shift_sum - query.shifts[ref]
        _require(
            all(
                avec[c] - dvec[c] - query.shifts[c] == signature[c] * residual
                for c in range(k)
            ),
            "replayed pair misses the shared residual",
        )
        out[avec] = (dvec, residual)
    return out


# ---------------------------------------------------------------------------
# pattern-capture bound (all-forward products)


@dataclass(frozen=True)
class PatternQuery:
    """All-forward product question with per-coordinate move counts.

    ``shifts[l]`` is how many raised moves coordinate ``l`` owes; the pattern
    completes after ``gamma = sum(shifts)`` moves.  ``dconst`` (default
    ``4**arity``) calibrates the capture bound: at every usable stage the hit
    region to the ``arity`` is at most ``dconst`` times the required set.
    """

    arity: int
    shifts: tuple[int, ...]
    base_stage: int
    cutoff: int
    dconst: int | None = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ParamOutOfRange(f"arity must be >= 1, got {self.arity}")
        if len(self.shifts) != self.arity:
            raise ParamOutOfRange(
                f"{len(self.shifts)} move counts for arity {self.arity}"
            )
        _require_ints(self.shifts, "move counts must be >= 0", lambda b: b >= 0)
        if self.base_stage < 0:
            raise ParamOutOfRange(f"base stage must be >= 0, got {self.base_stage}")
        if self.cutoff <= self.base_stage:
            raise ParamOutOfRange(
                f"cutoff {self.cutoff} must exceed base stage {self.base_stage}"
            )
        if self.dconst is not None and self.dconst < 1:
            raise ParamOutOfRange(f"dconst must be >= 1, got {self.dconst}")

    @property
    def gamma(self) -> int:
        return sum(self.shifts)

    @property
    def capture_constant(self) -> int:
        return self.dconst if self.dconst is not None else 4**self.arity


@dataclass(frozen=True)
class PatternResult:
    matched: MeasureInterval
    hit_mass: Fraction
    bound: Fraction
    gamma: int
    certificate: Certificate


def pattern_measure(spec: RankOneSpec, query: PatternQuery) -> PatternResult:
    """Matched mass versus hit mass for an all-forward pattern.

    Runs two exact distributions over stages ``base_stage .. cutoff - 1``:
    the strict one (first ``gamma`` hit-region visits must follow the move
    pattern) and the lax one (any visit counts).  The capture bound says the
    strictly matched mass is at least ``dconst**-gamma`` times the mass with
    ``gamma`` lax hits; the verdict checks exactly that inequality.
    """
    k = query.arity
    gamma = query.gamma
    dconst = query.capture_constant
    signature = (1,) * k
    moves: list[_Move] = []
    for l in range(k):
        moves.extend([_Move(l, _RAISED_FORWARD)] * query.shifts[l])
    _require(len(moves) == gamma, "move list disagrees with the move counts")

    partner_stages = []
    stage_rows = []
    for n in range(query.base_stage, query.cutoff):
        ps = partner_shift(spec.height_set(n))
        if ps is not None:
            partner_stages.append((n, ps))
    if gamma > 0 and not partner_stages:
        raise NoPartnerStages(
            f"no stage in [{query.base_stage}, {query.cutoff}) has a partner shift"
        )

    strict = [Fraction(0)] * (gamma + 1)
    strict[0] = Fraction(1)
    lax = [Fraction(0)] * (gamma + 1)
    lax[0] = Fraction(1)
    for n, ps in partner_stages:
        hset = spec.height_set(n)
        region = _hit_region(ps)
        p_hit = Fraction(len(region), len(hset)) ** k
        row = {
            "stage": n,
            "shift": ps.z,
            "pairs": len(ps.at_z.members),
            "region": len(region),
        }
        strict_next = [Fraction(0)] * (gamma + 1)
        lax_next = [Fraction(0)] * (gamma + 1)
        for t in range(gamma + 1):
            if t == gamma:
                strict_next[t] += strict[t]
                lax_next[t] += lax[t]
                continue
            required, _ = _stage_sets(ps, signature, moves[t])
            p_move = Fraction(1)
            e_size = 1
            for req in required:
                p_move *= Fraction(len(req), len(hset))
                e_size *= len(req)
            if len(region) ** k > dconst * e_size:
                raise ParamOutOfRange(
                    f"dconst {dconst} too small at stage {n}:"
                    f" hit region {len(region)}^{k} vs required {e_size}"
                )
            if t == 0:
                row["required"] = e_size
            strict_next[t + 1] += strict[t] * p_move
            strict_next[t] += strict[t] * (1 - p_hit)
            lax_next[t + 1] += lax[t] * p_hit
            lax_next[t] += lax[t] * (1 - p_hit)
        strict = strict_next
        lax = lax_next
        stage_rows.append(row)

    confirmed = strict[gamma]
    pending = sum(strict[:gamma], Fraction(0))
    hit_mass = lax[gamma]
    matched = MeasureInterval(confirmed, pending)
    bound = Fraction(1, dconst**gamma) * hit_mass
    _require(hit_mass >= confirmed, "strictly matched mass exceeds the hit mass")
    verdict = VERDICT_HOLDS if confirmed >= bound else VERDICT_FAILS
    cert = _certificate(
        spec,
        "pattern-bound",
        verdict,
        parameters={
            "arity": k,
            "moveCounts": query.shifts,
            "baseStage": query.base_stage,
            "cutoff": query.cutoff,
            "dconst": dconst,
        },
        evidence={
            "stages": stage_rows,
            "gamma": gamma,
            "confirmed": confirmed,
            "pending": pending,
            "hitMass": hit_mass,
            "bound": bound,
        },
    )
    return PatternResult(matched, hit_mass, bound, gamma, cert)


# ---------------------------------------------------------------------------
# overlap decay under large shifts


@dataclass(frozen=True)
class MixingEntry:
    m: int
    window: int | None
    eval_stage: int | None
    ratio: Fraction | None
    pushed_out: int | None
    bound: Fraction | None
    delta: Fraction | None
    hypothesis_ok: bool | None
    violation: bool | None
    note: str | None = None


class _Concat(Sequence[Any]):
    """Read-only concatenation: part ``k`` fills ``[ends[k], ends[k+1])``
    with its items if it is a range, else with copies of itself."""

    def __init__(self, parts: list[Any], ends: list[int]) -> None:
        self._parts, self._ends = parts, ends

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, i: int) -> Any:
        j = range(len(self))[i]  # negative indices and IndexError as for a tuple
        k = bisect_right(self._ends, j)
        part = self._parts[k - 1]  # a range is indexed from its end
        return part[j - self._ends[k]] if isinstance(part, range) else part

    def __iter__(self) -> Iterator[Any]:
        lengths = map(int.__sub__, self._ends[1:], self._ends)
        return itertools.chain.from_iterable(
            p if isinstance(p, range) else itertools.repeat(p, n)
            for p, n in zip(self._parts, lengths))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class MixingResult:
    """A sweep's verdict and summary, with one compact row per shift.

    ``rows[i]`` holds the fields after ``m`` of the entry for ``shifts[i]``.
    Both are read-only views: ``shifts`` over runs of consecutive shifts,
    ``rows`` over segments of shifts that share a row.  ``entries`` builds
    the :class:`MixingEntry` tuple on first read.
    """

    shifts: Sequence[int]
    rows: Sequence[tuple[Any, ...]] = field(repr=False)
    verdict: str
    certificate: Certificate
    in_window: int
    violation_count: int
    worst_ratio: Fraction | None

    @cached_property
    def entries(self) -> tuple[MixingEntry, ...]:
        return tuple(MixingEntry(m, *row) for m, row in zip(self.shifts, self.rows))


_ZERO_ROW = (None, None, Fraction(1), None, None, None, None, None, "zero shift")
_BEYOND_ROW = (None,) * 8 + ("beyond the materialized stages",)


def _window_tops(spec: RankOneSpec, level: LevelRef, reach: int) -> list[int]:
    """Top shift of each window from ``level.stage`` on, until one reaches ``reach``.

    Stage ``level.stage + i`` owns the shifts in ``(tops[i-1], tops[i]]``, so
    one bisect locates a shift.  The list stops early at the first stage the
    spec cannot materialize; shifts beyond its last top have no window.
    """
    tops: list[int] = []
    top, n = 0, level.stage
    while top < reach:
        try:
            top += max(spec.height_set(n))
        except StageUnavailable:
            break
        tops.append(top)
        n += 1
    return tops


class _Window:
    """One shift window: stage ``n``'s pairing data, evaluated at stage ``n + 1``."""

    def __init__(self, spec: RankOneSpec, level: LevelRef, n: int, owned: int) -> None:
        size = descendant_extent(spec, level, n + 1)[0]
        if owned * size > enumeration_budget() >= size:  # refuse before building
            charge(owned * size, "overlap counts across a shift window")
        self.values = descendant_heights(spec, level, n + 1)
        charge(owned * len(self.values), "overlap counts across a shift window")
        self.n = n
        self.top = spec.height(n + 1) - 1
        # Multiplicity of each positive difference among the sorted distinct
        # values.  Counting all V(V-1)/2 pairs pays off only when at least V/2
        # lookups are due; either way the work stays within the charged units.
        # ``cuts`` then lists each |m| whose counts may differ from |m| - 1's:
        # every difference, every difference + 1 and the V pushed-out steps.
        # Without them (the scan route) each shift scans the V values.
        self.cuts: list[int] | None = None
        if 2 * owned >= len(self.values):
            counts = Counter(b - a for a, b in itertools.combinations(self.values, 2))
            self.count: Callable[[int], int] = counts.__getitem__  # 0 if missing
            self.cuts = sorted({*counts, *(d + 1 for d in counts),
                                *(self.top + 1 - f for f in self.values)})
        else:
            members = set(self.values)
            self.count = lambda d: sum(f + d in members for f in self.values)
        ps = partner_shift(spec.height_set(n))
        self.delta = ps.delta if ps is not None else Fraction(0)
        stage = spec.stage(n)
        self.bound = max(Fraction(1, stage.r), self.delta)
        self.hyp = stage.s[-1] >= max(spec.height_set(n)) + spec.height(n)
        # (overlap count, pushed-out count) -> [row, least m with those counts]
        self.records: dict[tuple[int, int], list[Any]] = {}

    def row(self, inside: int, pushed: int) -> tuple[Any, ...]:
        ratio = Fraction(inside, len(self.values))
        violation = self.hyp and ratio > self.bound
        note = None if self.hyp else "rightmost spacer below clearing height"
        n, bound, delta, hyp = self.n, self.bound, self.delta, self.hyp
        return (n, n + 1, ratio, pushed, bound, delta, hyp, violation, note)


def mixing_decay(
    spec: RankOneSpec,
    level: LevelRef,
    ms: Sequence[int] = (),
    window: int | None = None,
) -> MixingResult:
    """Overlap ratio mu(T^m F ∩ F)/mu(F) against the pairing bound.

    A shift ``m`` belongs to the window of the first stage ``n`` whose
    largest descendant drop reaches it; the ratio is evaluated one stage
    later, counting descendants that land back on descendants.  When stage
    ``n``'s rightmost spacer clears the column (spacer >= max offset +
    height), the bound max(1/r_n, delta_n) applies and is checked; without
    that hypothesis the entry is reported but carries no verdict weight.
    ``window=n`` enumerates every shift in stage ``n``'s window.

    Cost: shifts are kept as runs of consecutive integers, split at 0 and
    at ±each window top.  Over the V sorted distinct stage-``n+1``
    descendants, the overlap at m is the multiplicity of difference |m|,
    nonzero only at the V(V-1)/2 differences, and the pushed-out count steps
    only at V thresholds.  Sorting these cut points once per window costs
    O(V² log V); they split each piece of a run into segments of constant
    counts, one evaluation each: O(V² log V + runs + segments), with nothing
    stored per shift.  A window owning fewer than V/2 shifts scans its V
    values per shift instead (one-shift segments), so the work never exceeds
    the units charged.  One ``Fraction`` is made per distinct pair of counts
    in a window.  ``shifts`` and ``rows`` are views over runs and segments.
    """
    check_level(spec, level)
    runs: list[range] = []  # consecutive ascending named shifts merged
    for m in ms:
        run = runs.pop() if runs and runs[-1].stop == m else range(m, m)
        runs.append(range(run.start, m + 1))
    if window is not None:
        if window < level.stage:
            raise StageTooLow(
                f"window stage {window} precedes level stage {level.stage}"
            )
        # Stage ``window`` owns the shifts [max(1, maxD_n), maxD_{n+1}].
        lo = sum(max(spec.height_set(q)) for q in range(level.stage, window))
        runs.append(range(max(1, lo), lo + max(spec.height_set(window)) + 1))
    tops = _window_tops(spec, level, max((max(-r[0], r[-1]) for r in runs), default=0))

    # Pieces (first m, stop, window index) in shift order; 0 and shifts past
    # the last top have no window.  Each evaluation column is built and
    # charged once, in order of first use.
    edges = sorted({0, 1, *(t + 1 for t in tops), *(-t for t in tops)})
    pieces: list[tuple[int, int, int]] = []
    owned: Counter[int] = Counter()
    for r in runs:
        cut = edges[bisect_right(edges, r.start):bisect_left(edges, r.stop)]
        for a, b in zip([r.start, *cut], [*cut, r.stop]):
            pieces.append((a, b, bisect_left(tops, abs(a)) if a else len(tops)))
            owned[pieces[-1][2]] += b - a
    windows = {i: _Window(spec, level, level.stage + i, count)
               for i, count in owned.items() if i < len(tops)}

    parts: list[tuple[Any, ...]] = []  # each segment's row, filling the
    ends = [0]  # shifts from ends[k] to ends[k + 1]
    violating: list[int] = []
    for a, b, i in pieces:
        w = windows.get(i)
        if w is None:
            parts.append(_BEYOND_ROW if a else _ZERO_ROW)
            ends.append(ends[-1] + b - a)
            continue
        lo, hi = (a, b) if a > 0 else (1 - b, 1 - a)  # |m| in [lo, hi)
        cut = range(lo + 1, hi) if w.cuts is None else (
            w.cuts[bisect_right(w.cuts, lo):bisect_left(w.cuts, hi)])
        spans = list(zip([lo, *cut], [*cut, hi]))
        # Negative pieces run down through |m|; either way a segment's least
        # m is its first in shift order.
        for s, e in spans if a > 0 else reversed(spans):
            key = (w.count(s), len(w.values) - bisect_right(w.values, w.top - s))
            m = s if a > 0 else 1 - e
            rec = w.records.get(key)
            if rec is None:
                rec = w.records[key] = [w.row(*key), m]
            elif m < rec[1]:
                rec[1] = m
            if rec[0][7]:  # the row's violation flag
                violating.extend(range(ends[-1], ends[-1] + e - s))
            parts.append(rec[0])
            ends.append(ends[-1] + e - s)
    shifts = _Concat(runs, list(itertools.accumulate(map(len, runs), initial=0)))
    rows = _Concat(parts, ends)

    used = [windows[i] for i in sorted(windows)]
    if violating:
        verdict = VERDICT_FAILS
    elif any(w.hyp for w in used):
        verdict = VERDICT_HOLDS
    else:
        verdict = VERDICT_INCONCLUSIVE

    # Largest ratio, then smallest m; equal m means equal entries.
    records = [rec for w in used for rec in w.records.values()]
    top_rec = max(records, key=lambda rec: (rec[0][2], -rec[1]), default=None)
    worst = None if top_rec is None else MixingEntry(top_rec[1], *top_rec[0])
    in_window = sum(count for i, count in owned.items() if i < len(tops))
    evidence: dict[str, Any]
    if len(shifts) <= 512:
        evidence = {"entries": [MixingEntry(m, *row) for m, row in zip(shifts, rows)]}
    else:
        evidence = {
            "entryCount": len(shifts),
            "inWindow": in_window,
            "firstShift": shifts[0],
            "lastShift": shifts[-1],
            "violations": [MixingEntry(shifts[i], *rows[i]) for i in violating],
            "worstRatio": worst,
            "windows": [w.n for w in used],
        }
    cert = _certificate(
        spec,
        "mixing-decay",
        verdict,
        parameters={
            "levelStage": level.stage,
            "levelHeight": level.height,
            "shiftCount": len(shifts),
            "window": window,
        },
        evidence=evidence,
    )
    return MixingResult(
        shifts, rows, verdict, cert,
        in_window, len(violating), None if worst is None else worst.ratio,
    )


# ---------------------------------------------------------------------------
# progression freeness with a ratio-bound replay


def npc_certificate(
    spec: RankOneSpec, kappa: int, start: int, horizon: int
) -> Certificate:
    """No (kappa+1)-term progression among positive descendant differences.

    Pairs a direct search over stages ``start .. horizon`` with the ratio
    machinery that makes the freeness self-propagating: once the column
    height dominates the descendant spread (statement ratios positive, proof
    ratios bounded by kappa), any progression long enough to cross a stage
    boundary is impossible, and the per-stage replay checks the three
    inequalities that argument needs.
    """
    if kappa < 2:
        raise ParamOutOfRange(f"kappa must be >= 2, got {kappa}")
    if start < 0 or horizon <= start:
        raise ParamOutOfRange(
            f"need 0 <= start < horizon, got start={start} horizon={horizon}"
        )
    base = LevelRef(start, 0)

    max_drop = {start: 0}
    for n in range(start, horizon + 1):
        max_drop[n + 1] = max_drop[n] + max(spec.height_set(n))

    statement_rows = []
    for n in range(start + 1, horizon + 1):
        head = spec.height(n) - 2 * max_drop[n]
        statement_rows.append(
            {
                "stage": n,
                "headroom": head,
                "ratio": Fraction(head, max_drop[n]),
                "positive": head > 0,
            }
        )
    proof_rows = []
    sup_proof: Fraction | None = None
    for n in range(start, horizon):
        head = spec.height(n) - 2 * max_drop[n]
        if head <= 0:
            proof_rows.append({"stage": n, "headroom": head, "ratio": None})
            continue
        ratio = Fraction(max_drop[n + 1], head)
        proof_rows.append({"stage": n, "headroom": head, "ratio": ratio})
        sup_proof = ratio if sup_proof is None else max(sup_proof, ratio)
    proof_ok = (
        sup_proof is not None
        and sup_proof < kappa
        and all(row["ratio"] is not None for row in proof_rows)
    )

    spacing_rows = []
    for n in range(start, horizon):
        slack = (
            spec.height(n + 1)
            - 2 * spec.height(n)
            - 2 * max(spec.height_set(n))
        )
        row: dict[str, Any] = {"stage": n, "slack": slack, "slackOk": slack >= 0}
        if n >= start + 1:
            ratio = Fraction(spec.height(n), max(spec.height_set(n + 1)))
            row["heightRatio"] = ratio
            row["heightRatioOk"] = ratio >= Fraction(1, kappa)
        spacing_rows.append(row)

    # One pass from the start stage up, each stage's differences extending the
    # last; ``diffs`` keeps each stage's bitset (or set, on a sparse stage).
    searches, diffs, free, ap_rows = {}, {}, {}, []
    for j in range(start, horizon + 1):
        values = descendant_heights(spec, base, j)
        charge(len(values) ** 2, "difference set for progression search")
        known = (j - 1, diffs[j - 1]) if j > start else None
        diffs[j] = descendant_differences(spec, base, j, values, known=known)
        res = searches[j] = progression_runs(diffs[j], kappa + 1)
        free[j] = res.longest <= kappa
        ap_rows.append(
            {
                "stage": j,
                "longest": res.longest,
                "witness": res.witness,
                "progression": res.progression,
            }
        )

    replay_rows = []
    for n in range(start, horizon):
        if isinstance(diffs[n], int) and isinstance(diffs[n + 1], int):
            new = diffs[n + 1] & ~diffs[n]  # bitsets: the lowest new bit
            min_new = (new & -new).bit_length() - 1 if new else None
        else:
            old = searches[n].runs
            min_new = next((x for x in searches[n + 1].runs if x not in old), None)
        c1_bound = spec.height(n) - max_drop[n]
        c1 = min_new is None or min_new >= c1_bound
        c2 = spec.height(n) > 2 * max_drop[n]
        c3_room = spec.height(n) - 2 * max_drop[n]
        c3 = c3_room > 0 and max_drop[n + 1] < kappa * c3_room
        replay_rows.append(
            {
                "stage": n,
                "minNewDifference": min_new,
                "separation": c1_bound,
                "newDiffsClear": c1,
                "heightDominates": c2,
                "nextDropBounded": c3,
            }
        )
        # The replay inequalities are exactly what pushes freeness one stage
        # up, so they must never disagree with the direct search.
        if c1 and c2 and c3 and free[n]:
            _require(free[n + 1], f"replay passed at stage {n} but search found one")

    if not all(free.values()):
        verdict = VERDICT_FAILS
    elif proof_ok:
        verdict = VERDICT_HOLDS
    else:
        verdict = VERDICT_INCONCLUSIVE
    return _certificate(
        spec,
        "ratio-bound",
        verdict,
        parameters={"kappa": kappa, "start": start, "horizon": horizon},
        evidence={
            "statementRatios": statement_rows,
            "proofRatios": proof_rows,
            "proofSup": sup_proof,
            "spacing": spacing_rows,
            "progressions": ap_rows,
            "replay": replay_rows,
        },
    )


# ---------------------------------------------------------------------------
# power weak mixing witnesses for the tower family


@dataclass(frozen=True)
class PwmResult:
    gamma: int
    digit_stage: int
    zero_digit_stage: int
    l_values: tuple[int, ...]
    r_values: tuple[int, ...]
    deltas: tuple[int, ...]
    tail_stage: int
    beta: Fraction
    match: MatchWitness
    certificate: Certificate


def _geometric_head(k: int, length: int) -> int:
    """1 + k + ... + k^(length-1); the height defect of a k-fold step."""
    return (k**length - 1) // (k - 1)


def pwm_witness(
    params: TQParams,
    alpha: Sequence[int],
    shifts: Sequence[int],
    base_stage: int,
    horizon: int = 8,
) -> PwmResult:
    """Simultaneous matched pair for T x T^a1 x ... with independent shifts.

    Realizes, inside the tower family's digit arithmetic, a pair of
    descendant tuples whose coordinate differences satisfy
    ``a_q - d_q = alpha_q * (a_0 - d_0 - b_0) + b_q`` exactly: one digit
    expansion per multiplier absorbs ``gamma * |alpha_q|`` heights, padding
    stages align the residuals, and a final gap-one digit pair supplies the
    unit step.  The witness is replayed from raw integers before emission.
    """
    spec, _ = make_tq(params.t, params.q, params.positions)
    alphabet = params.alphabet
    if not alphabet.has_unit_diff:
        raise HypothesisUnmet(
            "the digit alphabet has no two digits at distance one"
        )
    alphas = tuple(alpha)
    if not alphas:
        raise ParamOutOfRange("need at least one multiplied coordinate")
    _require_ints(alphas, "multipliers must be nonzero integers", bool)
    b = tuple(shifts)
    if len(b) != len(alphas) + 1:
        raise ParamOutOfRange(
            f"need {len(alphas) + 1} shifts (coordinate 0 first), got {len(b)}"
        )
    _require_ints(b, "shifts must be integers >= 0", lambda x: x >= 0)
    if base_stage < 1:
        raise StageTooLow("the digit assembly starts at stage 1 or later")

    k = params.k
    v = len(alphas) + 1
    gs = gamma_search(alphabet, {abs(a) for a in alphas}, horizon)
    gamma = gs.gamma

    digit_rows: list[tuple[int, ...]] = [gs.zero_digits]
    for a in alphas:
        digit_rows.append(gs.digits_for(abs(a)))
    scaled = [gamma] + [gamma * abs(a) for a in alphas]
    for c in range(v):
        digits = digit_rows[c]
        total = sum(d * k**l for l, d in enumerate(digits))
        _require(total == k ** len(digits) - scaled[c], "digit table corrupt")

    l_values = tuple(
        _geometric_head(k, len(digits))
        - sum(d * _geometric_head(k, l) for l, d in enumerate(digits))
        for digits in digit_rows
    )

    def tail(q: int, r0: int) -> int:
        a = alphas[q - 1]
        sign = 1 if a > 0 else -1
        return abs(a) * (l_values[0] + r0 - b[0]) + sign * b[q] - l_values[q]

    r0 = 0
    for q in range(1, v):
        a = abs(alphas[q - 1])
        sign = 1 if alphas[q - 1] > 0 else -1
        need = 1 + l_values[q] - sign * b[q]
        r0 = max(r0, -(-need // a) - l_values[0] + b[0])
    r0 = max(r0, 0)
    r_values = (r0,) + tuple(tail(q, r0) for q in range(1, v))
    _require(all(r >= 1 for r in r_values[1:]), "padding failed to align residuals")

    h_base = spec.height(base_stage)
    powers = (1,) + alphas
    deltas = []
    for c in range(v):
        mag = scaled[c] * h_base + l_values[c] + r_values[c]
        deltas.append(mag if powers[c] > 0 else -mag)
    deltas = tuple(deltas)

    lo = min(u for u in alphabet.digits if u + 1 in alphabet.digits)
    top = k - 1
    _require(top in alphabet.digits and 0 in alphabet.digits, "alphabet lacks 0 or k-1")

    a_rows = []
    d_rows = []
    for c in range(v):
        digits = digit_rows[c]
        rows_a: list[tuple[int, int]] = []
        rows_d: list[tuple[int, int]] = []
        for l, dig in enumerate(digits):
            g = base_stage + l
            u = min(x for x in alphabet.digits if x - dig in alphabet.digits)
            rows_a.append((g, (u - dig) * spec.height(g)))
            rows_d.append((g, u * spec.height(g)))
        for i in range(r_values[c]):
            g = base_stage + len(digits) + i
            rows_a.append((g, 0))
            rows_d.append((g, top * spec.height(g)))
        g_final = base_stage + len(digits) + r_values[c]
        rows_a.append((g_final, (lo + 1) * spec.height(g_final)))
        rows_d.append((g_final, lo * spec.height(g_final)))
        if powers[c] < 0:
            rows_a, rows_d = rows_d, rows_a
        a_rows.append(tuple(rows_a))
        d_rows.append(tuple(rows_d))

    a = tuple(sum(off for _, off in rows) for rows in a_rows)
    d = tuple(sum(off for _, off in rows) for rows in d_rows)
    end_stages = tuple(
        base_stage + len(digit_rows[c]) + r_values[c] + 1 for c in range(v)
    )
    for c in range(v):
        _require(a[c] - d[c] == deltas[c], f"assembly off at coordinate {c}")
    residual = deltas[0] - b[0]
    witness = MatchWitness(
        base=LevelRef(base_stage, 0),
        powers=powers,
        shifts=b,
        a=a,
        d=d,
        a_summands=tuple(a_rows),
        d_summands=tuple(d_rows),
        end_stages=end_stages,
        residual=residual,
    )
    verify_match_witness(spec, witness)

    tail_stage = gs.n + max(r_values)
    beta = Fraction(1, params.t ** (v * tail_stage))
    cert = _certificate(
        spec,
        "pwm-witness",
        VERDICT_HOLDS,
        parameters={
            "t": params.t,
            "q": params.q,
            "positions": params.positions,
            "multipliers": alphas,
            "shifts": b,
            "baseStage": base_stage,
            "horizon": horizon,
        },
        evidence={
            "gamma": gamma,
            "digitStage": gs.n,
            "zeroDigitStage": gs.m,
            "digits": [list(row) for row in digit_rows],
            "lValues": l_values,
            "rValues": r_values,
            "deltas": deltas,
            "tailStage": tail_stage,
            "beta": beta,
            "witness": {"a": a, "d": d, "residual": residual},
        },
    )
    return PwmResult(
        gamma=gamma,
        digit_stage=gs.n,
        zero_digit_stage=gs.m,
        l_values=l_values,
        r_values=r_values,
        deltas=deltas,
        tail_stage=tail_stage,
        beta=beta,
        match=witness,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# ergodicity obstructions for products with unequal shifts


def non_ergodic_check(
    spec: RankOneSpec,
    alpha: Sequence[int],
    shifts: Sequence[int],
    base_stage: int,
    horizon: int,
) -> Certificate:
    """Certify that no tuple slide ever realizes the requested shifts.

    Necessary condition for a matched pair: some integer ``n`` (zero
    allowed) has ``a_l - n*alpha_l - b_l`` a descendant for every ``l``.
    The fraction of tuples passing it is computed per stage; an arithmetic
    obstruction (all descendant heights share a divisor that the shift
    combination misses) forces the fraction to zero at every stage at once.
    """
    alphas = tuple(alpha)
    b = tuple(shifts)
    if not alphas or len(b) != len(alphas):
        raise ParamOutOfRange(
            f"{len(b)} shifts for {len(alphas)} multipliers"
        )
    _require_ints(alphas, "multipliers must be nonzero integers", bool)
    _require_ints(b, "shifts must be integers")
    if base_stage < 0 or horizon <= base_stage:
        raise ParamOutOfRange(
            f"need 0 <= base stage < horizon, got {base_stage}, {horizon}"
        )
    v = len(alphas)
    base = LevelRef(base_stage, 0)

    params = {
        "multipliers": alphas,
        "shifts": b,
        "baseStage": base_stage,
        "horizon": horizon,
    }
    if len(set(b)) == 1:
        return _certificate(
            spec,
            "non-ergodic",
            VERDICT_INCONCLUSIVE,
            parameters=params,
            evidence={
                "note": "equal shifts slide along the diagonal; nothing to refute"
            },
        )

    growth_rows = []
    max_drop = 0
    for n in range(base_stage + 1, horizon + 1):
        max_drop += max(spec.height_set(n - 1))
        h, bound = spec.height(n), max_drop + 2
        growth_rows.append({"stage": n, "height": h, "bound": bound, "ok": h >= bound})

    g = 0
    for n in range(base_stage, horizon):
        for x in spec.height_set(n):
            g = math.gcd(g, x)
    _require(g >= 1, "height sets share no positive divisor")
    blocked = None
    for l in range(v):
        if (alphas[l] * b[0] - alphas[0] * b[l]) % g:
            blocked = l
            break

    rows = []
    zero_everywhere = True
    any_rows = False
    count = 1
    known = None
    for j in range(base_stage + 1, horizon + 1):
        count *= spec.stage(j - 1).r  # descendant count: product of cut counts
        row: dict[str, Any] = {"stage": j, "tuples": count**v}
        try:
            values = descendant_heights(spec, base, j)
            if v == 2 and alphas == (1, 1):
                charge(count**2, "difference counts for the shift criterion")
                counts = descendant_differences(spec, base, j, values, True, known)
                known = (j, counts)
                # Count the ordered differences u with u - want a difference
                # too; u = -p < 0 qualifies iff |p + want| is in the half.
                want = b[0] - b[1]
                matched = sum(c for p, c in counts.items() if abs(p - want) in counts)
                matched += sum(
                    c for p, c in counts.items() if p and abs(p + want) in counts
                )
                row["route"] = "difference-counts"
            else:
                charge(count ** (v + 1), "per-tuple slide scan with shifts")
                matched = _slide_scan(values, alphas, b)
                row["route"] = "scan"
        except BudgetExceeded as exc:
            row["skipped"] = str(exc)
            rows.append(row)
            continue
        fraction = Fraction(matched, count**v)
        row["matched"] = matched
        row["fraction"] = fraction
        if blocked is not None:
            _require(fraction == 0, "arithmetic obstruction contradicted by scan")
            row["route"] += "+structural"
        rows.append(row)
        any_rows = True
        zero_everywhere = zero_everywhere and fraction == 0

    evidence: dict[str, Any] = {"growth": growth_rows, "stages": rows, "divisor": g}
    if blocked is not None:
        evidence["obstruction"] = {
            "coordinate": blocked,
            "value": alphas[blocked] * b[0] - alphas[0] * b[blocked],
            "label": "parity" if g % 2 == 0 else "divisor",
        }
        evidence["scope"] = "structural"
        verdict = VERDICT_FAILS
    elif any_rows and zero_everywhere:
        evidence["scope"] = "horizon"
        verdict = VERDICT_FAILS
    else:
        verdict = VERDICT_INCONCLUSIVE
    return _certificate(spec, "non-ergodic", verdict, params, evidence)


# ---------------------------------------------------------------------------
# directional asymmetry of triple intersections


@dataclass(frozen=True)
class AsymmetryResult:
    level: LevelRef
    scale_stage: int
    zero_side: MeasureInterval
    forward_side: MeasureInterval
    adjacency_free: bool
    zero_exact: bool
    certificate: Certificate


def asymmetry_statistic(
    spec: RankOneSpec, base_stage: int, scale_stage: int, eval_stage: int
) -> AsymmetryResult:
    """Triple-intersection masses that tell a map from its inverse.

    Compares mu(I ∩ T^-(h+1) I ∩ T^-(2h+1) I) against
    mu(I ∩ T^-h I ∩ T^-(2h+1) I) for ``h`` the stage-``scale_stage`` height.
    A time-symmetric transformation would relate the two; here the forward
    pattern is confirmed with definite mass while the other side's interval
    collapses to zero once no two descendants ever sit at distance one
    (adjacent levels could otherwise resolve the off-by-one pattern later).
    """
    if base_stage < 1:
        raise StageTooLow("the statistic needs a base stage >= 1")
    if scale_stage < base_stage:
        raise StageTooLow(
            f"scale stage {scale_stage} precedes base stage {base_stage}"
        )
    if eval_stage <= scale_stage:
        raise StageTooLow(
            f"evaluation stage {eval_stage} must exceed scale stage {scale_stage}"
        )
    level = LevelRef(base_stage, 0)
    h = spec.height(scale_stage)
    zero_exps = (0, h + 1, 2 * h + 1)
    fwd_exps = (0, h, 2 * h + 1)
    # Both sides and the last adjacency row share one set of the evaluation
    # stage's descendants.  Its two reuses are charged as the enumerations
    # they replace, so budget ledgers and refusals stay as they were.
    at_eval = set(descendant_heights(spec, level, eval_stage))
    for _ in range(2):
        charge(len(at_eval), f"descendant set at stage {eval_stage}")
    zero_side = _intersection_measure(spec, level, zero_exps, eval_stage, at_eval)
    forward_side = _intersection_measure(spec, level, fwd_exps, eval_stage, at_eval)

    adjacency_rows = []
    adjacency_free = True
    for j in range(base_stage, eval_stage + 1):
        vset = set(descendant_heights(spec, level, j)) if j < eval_stage else at_eval
        pairs = sum(1 for x in vset if x + 1 in vset)
        adjacency_rows.append({"stage": j, "adjacentPairs": pairs})
        adjacency_free = adjacency_free and pairs == 0

    zero_exact = adjacency_free and zero_side.confirmed == 0
    zero_upper = Fraction(0) if zero_exact else zero_side.upper
    verdict = (
        VERDICT_HOLDS
        if forward_side.confirmed > zero_upper
        else VERDICT_INCONCLUSIVE
    )
    width = spec.level_width(base_stage)
    cert = _certificate(
        spec,
        "asymmetry",
        verdict,
        parameters={
            "baseStage": base_stage,
            "scaleStage": scale_stage,
            "evalStage": eval_stage,
            "zeroExponents": zero_exps,
            "forwardExponents": fwd_exps,
        },
        evidence={
            "levelMeasure": width,
            "zeroSide": zero_side,
            "forwardSide": forward_side,
            "zeroRelativeUpper": zero_upper / width,
            "forwardRelativeConfirmed": forward_side.confirmed / width,
            "adjacency": adjacency_rows,
            "adjacencyFree": adjacency_free,
            "zeroExact": zero_exact,
        },
    )
    return AsymmetryResult(
        level=level,
        scale_stage=scale_stage,
        zero_side=zero_side,
        forward_side=forward_side,
        adjacency_free=adjacency_free,
        zero_exact=zero_exact,
        certificate=cert,
    )
