"""Power weak mixing witnesses for the tower family."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from ..construction import LevelRef
from ..digits import gamma_search
from ..errors import HypothesisUnmet, ParamOutOfRange, StageTooLow
from ..families.tq import TQParams, make_tq
from . import VERDICT_HOLDS, Certificate, MatchWitness, _certificate
from . import _require, _require_ints, verify_match_witness


class PwmResult(NamedTuple):
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
