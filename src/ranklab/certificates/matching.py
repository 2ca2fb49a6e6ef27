"""Matching machinery shared by the ergodic-fraction and pattern questions."""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple, Sequence

from .. import sumsets
from ..construction import LevelRef, MeasureInterval, RankOneSpec
from ..errors import CheckedRecord, NoPartnerStages, ParamOutOfRange
from ..sumsets import PartnerShift
from . import VERDICT_FAILS, VERDICT_HOLDS, VERDICT_INCONCLUSIVE, Certificate
from . import MatchWitness, ProductQuery, _certificate, _check_shift_bounds
from . import _require, _require_ints, verify_match_witness

# Move kinds: how one stage of the matching treats the tuple's coordinates.
_RAISED_FORWARD = 1  # forward target absorbs one extra unit
_LOWERED_FORWARD = 2  # forward target gives one unit back
_RAISED_INVERSE = 3  # inverse target absorbs one extra unit


class _Move(NamedTuple):
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
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """Per-coordinate required offsets and offset deltas for one move stage.

    Returns ``(required, deltas, step)`` where a tuple advances the matching
    iff coordinate ``l``'s stage offset lies in ``required[l]``, in which case
    its partner offset differs by ``deltas[l]`` (new offset = old - delta),
    and the stage adds ``step`` to the shared residual.  Coordinate ``l``
    uses the pairs at width ``z + 1`` when it is the moving coordinate of a
    raised-forward move or a bystander of any other move, else at width
    ``z``: a forward coordinate sits at the pair's upper end, an inverse one
    at its lower end.
    """
    z = ps.z
    required: list[tuple[int, ...]] = []
    deltas: list[int] = []
    for l, e in enumerate(signature):
        w = z + ((l == move.coord) == (move.kind == _RAISED_FORWARD))
        upper = ps.at_z.members if w == z else ps.at_z_plus_1.members
        required.append(upper if e > 0 else tuple(x - w for x in upper))
        deltas.append(w if e > 0 else -w)
    return tuple(required), tuple(deltas), z + (move.kind != _RAISED_FORWARD)


def _hit_region(ps: PartnerShift) -> tuple[int, ...]:
    """Offsets that participate in any pair at shift z or z+1 (either end)."""
    z = ps.z
    region = set(ps.at_z.members) | set(ps.at_z_plus_1.members)
    region |= {x - z for x in ps.at_z.members}
    region |= {x - z - 1 for x in ps.at_z_plus_1.members}
    return tuple(sorted(region))


def _stages(
    spec: RankOneSpec, first: int, stop: int, gamma: int
) -> list[tuple[int, PartnerShift | None]]:
    """Each stage in ``[first, stop)`` with its partner shift, if it has one.

    Every required set of a move stage has one entry per pair at ``z``,
    whatever the move, because the pairs at ``z`` and ``z + 1`` are equally
    many: the move distribution relies on that.
    """
    stages = [(n, sumsets.partner_shift(spec.height_set(n))) for n in range(first, stop)]
    for _, ps in stages:
        _require(
            ps is None or len(ps.at_z.members) == len(ps.at_z_plus_1.members),
            "a partner shift needs as many pairs at z + 1 as at z",
        )
    if gamma > 0 and all(ps is None for _, ps in stages):
        raise NoPartnerStages(f"no stage in [{first}, {stop}) has a partner shift")
    return stages


def _advance(
    mass: Sequence[Fraction], p_hit: Fraction, p_move: Fraction
) -> tuple[list[Fraction], Fraction]:
    """One partner stage of the exact distribution over moves completed.

    ``mass[t]`` is the mass of tuples that have made ``t`` of the
    ``len(mass) - 1`` planned moves.  An unfinished tuple misses the stage's
    hit region with chance ``1 - p_hit``, makes its next move with chance
    ``p_move`` and dies otherwise; finished tuples ignore later hits.
    Returns the next masses and the mass that died.
    """
    _require(p_move <= p_hit, "required offsets must lie in the hit region")
    *moving, done = mass
    advanced = [m * (1 - p_hit) for m in moving] + [done]
    for t, m in enumerate(moving):
        advanced[t + 1] += m * p_move
    return advanced, sum(moving, Fraction(0)) * (p_hit - p_move)


def _matching_plan(
    spec: RankOneSpec, query: ProductQuery
) -> tuple[tuple[_Move, ...], int, list[tuple[int, PartnerShift | None]]]:
    """Moves, anchor index and stages of a product of powers +-1."""
    for l, m in enumerate(query.multipliers):
        if m not in (1, -1):
            raise ParamOutOfRange(
                f"matching handles powers +-1 only; coordinate {l} has {m}"
            )
    _check_shift_bounds(spec, query)
    moves, ref = _move_plan(query.multipliers, query.shifts)
    return moves, ref, _stages(spec, query.base_stage, query.horizon, len(moves))


class ErgodicMatchResult(NamedTuple):
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
    moves, ref, stages = _matching_plan(spec, query)
    signature = query.multipliers
    k = len(signature)
    gamma = len(moves)
    partner_stages = [(n, ps) for n, ps in stages if ps is not None]
    stage_rows = [
        {
            "stage": n,
            "offsets": len(spec.height_set(n)),
            "shift": None if ps is None else ps.z,
            "pairs": None if ps is None else len(ps.at_z.members),
        }
        for n, ps in stages
    ]

    # Exact distribution over moves completed, tuple offsets being uniform
    # and independent across stages.
    alive = [Fraction(1)] + [Fraction(0)] * gamma
    dead = Fraction(0)
    for n, ps in partner_stages:
        size = len(spec.height_set(n))
        p_hit = Fraction(len(_hit_region(ps)), size) ** k
        p_move = Fraction(len(ps.at_z.members), size) ** k
        alive, died = _advance(alive, p_hit, p_move)
        dead += died
    fraction = alive[gamma]
    pending = sum(alive[:gamma], Fraction(0))
    _require(fraction + pending + dead == 1, "matched, pending and dead mass must sum to 1")

    witness = None
    if fraction > 0:
        witness = _build_match_witness(
            spec, LevelRef(query.base_stage, 0), signature, query.shifts,
            query.horizon, moves, ref, partner_stages,
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
    _require(len(partner_stages) >= len(moves), "fewer partner stages than moves")
    move_at = {n: (ps, move) for (n, ps), move in zip(partner_stages, moves)}
    a_rows: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    d_rows: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    shift_sum = 0
    for n in range(base.stage, horizon):
        if n in move_at:
            ps, move = move_at[n]
            required, deltas, step = _stage_sets(ps, powers, move)
            shift_sum += step
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


# ---------------------------------------------------------------------------
# pattern-capture bound (all-forward products)


class _PatternQueryFields(NamedTuple):
    arity: int
    shifts: tuple[int, ...]
    base_stage: int
    cutoff: int
    dconst: int | None = None


class PatternQuery(CheckedRecord, _PatternQueryFields):
    """All-forward product question with per-coordinate move counts.

    ``shifts[l]`` is how many raised moves coordinate ``l`` owes; the pattern
    completes after ``gamma = sum(shifts)`` moves.  ``dconst`` (default
    ``4**arity``) calibrates the capture bound: at every usable stage the hit
    region to the ``arity`` is at most ``dconst`` times the required set.
    """

    __slots__ = ()

    def _check(self) -> None:
        _require_ints((self.arity, self.base_stage, self.cutoff),
                      "arity and stages must be integers")
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
        if self.dconst is not None:
            _require_ints((self.dconst,), "dconst must be an integer >= 1", lambda d: d >= 1)

    @property
    def gamma(self) -> int:
        return sum(self.shifts)

    @property
    def capture_constant(self) -> int:
        return self.dconst if self.dconst is not None else 4**self.arity


class PatternResult(NamedTuple):
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
    stages = _stages(spec, query.base_stage, query.cutoff, gamma)

    strict = lax = [Fraction(1)] + [Fraction(0)] * gamma
    stage_rows = []
    for n, ps in stages:
        if ps is None:
            continue
        size = len(spec.height_set(n))
        region, pairs = len(_hit_region(ps)), len(ps.at_z.members)
        row = {"stage": n, "shift": ps.z, "pairs": pairs, "region": region}
        # Every move's required set is the pairs at z or z + 1, one per
        # coordinate, so the capture check is the same for each move.
        if gamma > 0:
            if region**k > dconst * pairs**k:
                raise ParamOutOfRange(
                    f"dconst {dconst} too small at stage {n}:"
                    f" hit region {region}^{k} vs required {pairs**k}"
                )
            row["required"] = pairs**k
        p_hit = Fraction(region, size) ** k
        strict, _ = _advance(strict, p_hit, Fraction(pairs, size) ** k)
        lax, _ = _advance(lax, p_hit, p_hit)
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
