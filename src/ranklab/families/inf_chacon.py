"""An infinite-Chacon-type construction: ``t`` cuts, one single spacer sitting in
the ``q``-th gap, and a right spacer stack sized so the height recursion is
``h_{n+1} = m1*h_n + m0``."""

from __future__ import annotations

from typing import NamedTuple

from ..construction import FamilyTag, RankOneSpec, StageSpec
from ..errors import CheckedRecord, ParamOutOfRange, is_plain_int


class _InfChaconFields(NamedTuple):
    t: int
    q: int
    m1: int
    m0: int


class InfChaconParams(CheckedRecord, _InfChaconFields):
    """``t`` cuts, single spacer in gap ``q``, heights ``h' = m1*h + m0``."""

    __slots__ = ()

    def _check(self) -> None:
        if not all(map(is_plain_int, self)):
            raise ParamOutOfRange(f"t, q, m1 and m0 must be integers, got {tuple(self)!r}")
        if self.t < 2:
            raise ParamOutOfRange(f"need at least 2 cuts, got t={self.t}")
        if not 1 <= self.q <= self.t - 1:
            raise ParamOutOfRange(f"spacer gap q={self.q} outside 1..{self.t - 1}")
        if self.m1 < 2 * self.t:
            raise ParamOutOfRange(
                f"height factor m1={self.m1} below 2t={2 * self.t}"
            )
        if self.m0 < 1:
            raise ParamOutOfRange(f"height offset m0={self.m0} must be >= 1")

    def height_set(self, h: int) -> tuple[int, ...]:
        """Closed form: offset ``i*h`` plus 1 once the spacer gap is passed."""
        return tuple((1 if i >= self.q else 0) + i * h for i in range(self.t))

    def stage(self, h: int) -> StageSpec:
        s = [1 if j == self.q - 1 else 0 for j in range(self.t - 1)]
        s.append((self.m1 - self.t) * h + self.m0 - 1)
        return StageSpec(self.t, tuple(s))


def make_inf_chacon(t: int = 3, q: int = 1, m1: int = 6, m0: int = 2) -> RankOneSpec:
    params = InfChaconParams(t, q, m1, m0)
    tag = FamilyTag.of(
        "inf_chacon", {"t": t, "q": q, "m1": m1, "m0": m0}
    )
    return RankOneSpec(
        stages=(),
        h0=1,
        stage_rule=lambda n, h: params.stage(h),
        family=tag,
    )
