"""Work budget for exact enumerations.

Everything in this package is computed exactly, so the only runaway risk is
combinatorial size.  Operations that enumerate (descendant sets, tuple
scans, difference multisets, digit sweeps) estimate their elementary unit
count up front and charge it against a budget read from the
``RANKLAB_BUDGET`` environment variable (default 5,000,000 units; any value
but a positive integer raises :class:`~ranklab.errors.ParamOutOfRange`).
Exceeding the budget raises :class:`~ranklab.errors.BudgetExceeded` instead
of silently degrading to an approximation.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded, ParamOutOfRange

DEFAULT_BUDGET = 5_000_000

__all__ = ["DEFAULT_BUDGET", "enumeration_budget", "charge"]


def enumeration_budget() -> int:
    """Current budget in enumeration units (env override, else default)."""
    raw = os.environ.get("RANKLAB_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ParamOutOfRange(f"RANKLAB_BUDGET must be a positive integer, got {raw!r}")
    return value


def charge(units: int, what: str) -> None:
    """Refuse up front if *what* would cost more than the budget allows."""
    budget = enumeration_budget()
    if units > budget:
        raise BudgetExceeded(what, units, budget)
