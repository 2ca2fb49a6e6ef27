"""Slow reference routes that no command runs, kept for the tests to check the fast ones.

``ranklab`` exports their names as before, loading this module on first use.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import _budget, construction, sumsets
from .certificates import ProductQuery, _require
from .certificates.matching import _hit_region, _matching_plan, _stage_sets
from .construction import LevelRef, RankOneSpec
from .sumsets import APSearchResult, _check_max_len, _pair_differences, progression_runs

__all__ = ["ColumnStats", "column_stats", "ap_search", "exhaustive_matches"]


class ColumnStats(NamedTuple):
    """Exact per-column bookkeeping."""

    stage: int
    height: int
    level_width: Fraction
    total_measure: Fraction


def column_stats(spec: RankOneSpec, n: int) -> ColumnStats:
    h = spec.height(n)
    w = spec.level_width(n)
    return ColumnStats(stage=n, height=h, level_width=w, total_measure=h * w)

def ap_search(values: Iterable[int], max_len: int) -> APSearchResult:
    _check_max_len(max_len)
    vals = sorted(set(values))
    _budget.charge(len(vals) ** 2, "difference set for progression search")
    return progression_runs(_pair_differences(vals, counted=False), max_len)


def exhaustive_matches(
    spec: RankOneSpec, query: ProductQuery
) -> dict[tuple[int, ...], tuple[tuple[int, ...], int]]:
    """Replay the matching tuple by tuple; the slow cross-check route.

    Returns ``{a_tuple: (d_tuple, residual)}`` over all matched stage-horizon
    descendant tuples.  Agreement of ``len(result) / total`` with the
    distribution computed by :func:`~ranklab.certificates.ergodic_matching`, and injectivity of the
    map, are exactly the properties the fast route relies on.
    """
    moves, ref, stages = _matching_plan(spec, query)
    signature = query.multipliers
    k = len(signature)
    gamma = len(moves)
    base = LevelRef(query.base_stage, 0)
    values = construction.descendant_heights(spec, base, query.horizon)
    _budget.charge(len(values) ** k * len(stages), "exhaustive tuple matching")

    decomp = {
        v: sumsets.descendant_decompose(spec, base, query.horizon, v) for v in values
    }
    regions = [() if ps is None else _hit_region(ps) for _, ps in stages]

    out: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for avec in itertools.product(values, repeat=k):
        offs = [decomp[a] for a in avec]
        t = 0
        shift_sum = 0
        d_offs = [list(o) for o in offs]
        for idx, (_, ps) in enumerate(stages):
            if ps is None or t == gamma:
                continue  # finished tuples ignore later hits
            stage_offs = tuple(offs[c][idx] for c in range(k))
            if not all(o in regions[idx] for o in stage_offs):
                continue
            required, deltas, step = _stage_sets(ps, signature, moves[t])
            if not all(o in req for o, req in zip(stage_offs, required)):
                break  # a hit off the planned move kills the tuple
            for c in range(k):
                d_offs[c][idx] = offs[c][idx] - deltas[c]
            shift_sum += step
            t += 1
        if t < gamma:
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
