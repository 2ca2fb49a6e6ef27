"""Matching machinery shared by the ergodic-fraction and pattern questions."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, NamedTuple, Sequence

from .. import _budget, construction, sumsets
from ..construction import LevelRef, MeasureInterval, RankOneSpec
from ..errors import NoPartnerStages, ParamOutOfRange
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
        ps = sumsets.partner_shift(spec.height_set(n))
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
    values = construction.descendant_heights(spec, base, query.horizon)
    span = query.horizon - query.base_stage
    _budget.charge(len(values) ** k * span, "exhaustive tuple matching")

    decomp = {
        v: sumsets.descendant_decompose(spec, base, query.horizon, v) for v in values
    }
    stage_info: list[tuple[tuple[int, ...], PartnerShift | None]] = []
    for n in range(query.base_stage, query.horizon):
        ps = sumsets.partner_shift(spec.height_set(n))
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


class _PatternQueryFields(NamedTuple):
    arity: int
    shifts: tuple[int, ...]
    base_stage: int
    cutoff: int
    dconst: int | None = None


class PatternQuery(_PatternQueryFields):
    """All-forward product question with per-coordinate move counts.

    ``shifts[l]`` is how many raised moves coordinate ``l`` owes; the pattern
    completes after ``gamma = sum(shifts)`` moves.  ``dconst`` (default
    ``4**arity``) calibrates the capture bound: at every usable stage the hit
    region to the ``arity`` is at most ``dconst`` times the required set.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
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
    signature = (1,) * k
    moves: list[_Move] = []
    for l in range(k):
        moves.extend([_Move(l, _RAISED_FORWARD)] * query.shifts[l])
    _require(len(moves) == gamma, "move list disagrees with the move counts")

    partner_stages = []
    stage_rows = []
    for n in range(query.base_stage, query.cutoff):
        ps = sumsets.partner_shift(spec.height_set(n))
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
