"""Exception taxonomy.

Every failure this package raises on purpose derives from :class:`RankLabError`,
so front ends can map errors to exit codes without parsing messages.  The leaf
classes mirror the distinct ways a computation can be refused: malformed
construction data, out-of-range arguments, unmet mathematical hypotheses, and
resource limits.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = [
    "RankLabError",
    "SpecError",
    "CutTooSmall",
    "NegativeSpacer",
    "LengthMismatch",
    "StageUnavailable",
    "StageTooLow",
    "ParamOutOfRange",
    "PreconditionViolated",
    "HorizonExceeded",
    "BudgetExceeded",
    "NoPartnerStages",
    "HypothesisUnmet",
    "ScheduleInfeasible",
    "SpecFileError",
    "IoError",
    "IntegerTooLong",
    "UsageError",
]


def is_plain_int(value: object) -> bool:
    """An ``int`` that is not a ``bool``, which would otherwise pose as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def ensure(ok: object, message: str) -> None:
    """Guard a computed result by an explicit raise, which ``python -O`` keeps."""
    if not ok:
        raise AssertionError(message)


class CheckedRecord:
    """First base of a ``NamedTuple`` record whose fields are checked on creation.

    A ``NamedTuple`` body may not define ``__init__``, so a record subclasses
    its fields class with this base in front and puts its checks in
    ``_check``.  ``_make`` goes through the constructor, so ``_replace``
    checks the new fields too.
    """

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        self._check()

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> Any:
        return cls(*iterable)

    def _check(self) -> None:
        raise NotImplementedError(f"{type(self).__name__} defines no _check")


class RankLabError(Exception):
    """Base class for all errors raised deliberately by this package."""


class SpecError(RankLabError):
    """A cutting-and-stacking description is structurally invalid."""


class CutTooSmall(SpecError):
    """A stage cuts its column into fewer than two subcolumns."""


class NegativeSpacer(SpecError):
    """A spacer count is negative."""


class LengthMismatch(SpecError):
    """A spacer vector's length differs from the stage's cut count."""


class StageUnavailable(RankLabError):
    """A stage index lies beyond the description and no extension rule applies."""


class StageTooLow(RankLabError):
    """A target stage precedes the base stage of the object being refined."""


class ParamOutOfRange(RankLabError):
    """An argument violates its documented range."""


class PreconditionViolated(RankLabError):
    """An input fails a structural precondition (e.g. bad digit alphabet)."""


class HorizonExceeded(RankLabError):
    """A bounded search exhausted its horizon without an answer."""


class BudgetExceeded(RankLabError):
    """An exact enumeration would exceed the configured work budget."""

    def __init__(self, what: str, units: int, budget: int) -> None:
        super().__init__(
            f"{what} needs ~{units} enumeration units, over the budget of {budget}"
            " (raise RANKLAB_BUDGET to allow it)"
        )
        self.what = what
        self.units = units
        self.budget = budget


class NoPartnerStages(RankLabError):
    """No stage in the requested window carries a usable partner shift."""


class HypothesisUnmet(RankLabError):
    """A stated hypothesis of the computation fails for the given input."""


class ScheduleInfeasible(RankLabError):
    """A requested density is not realizable at the scheduled cut count."""


class SpecFileError(RankLabError):
    """A spec file is unreadable as a construction description."""


class IoError(RankLabError):
    """Reading an input file or writing a report failed."""


class IntegerTooLong(RankLabError):
    """A report value has more decimal digits than the interpreter will write."""


class UsageError(RankLabError):
    """The command line was malformed."""
