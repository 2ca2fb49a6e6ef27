"""The ``(t, q)`` family: ``t`` cuts, ``q`` full-height spacer blocks over chosen
subcolumns plus one spacer on the rightmost subcolumn, so ``h_{n+1} =
(t+q)*h_n + 1`` and offsets are digit multiples ``phi(i)*h_n``."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from ..construction import FamilyTag, RankOneSpec, StageSpec
from ..errors import CheckedRecord, ParamOutOfRange, ensure, is_plain_int

if TYPE_CHECKING:
    from ..digits import DigitAlphabet


class _TQFields(NamedTuple):
    t: int
    q: int
    positions: tuple[int, ...]


class TQParams(CheckedRecord, _TQFields):
    """``t`` cuts, full-height spacer blocks over ``positions``, one top spacer.

    ``k = t + q`` and the offsets are ``phi(i) * h_n`` where ``phi`` skips one
    value per spacer block passed, ending at ``phi(t-1) = k - 1``.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not all(map(is_plain_int, (self.t, self.q, *self.positions))):
            raise ParamOutOfRange(f"t, q and positions must be integers, got {tuple(self)!r}")
        if self.t < 3:
            raise ParamOutOfRange(f"need t >= 3 cuts, got {self.t}")
        if self.q < 1:
            raise ParamOutOfRange(f"need q >= 1 spacer blocks, got {self.q}")
        pos = self.positions
        if len(pos) != self.q:
            raise ParamOutOfRange(f"{len(pos)} positions for q={self.q} blocks")
        if len(set(pos)) != len(pos):
            raise ParamOutOfRange(f"spacer positions must be distinct, got {pos}")
        bad = [p for p in pos if not 0 <= p <= self.t - 2]
        if bad:
            raise ParamOutOfRange(
                f"spacer positions {bad} outside subcolumns 0..{self.t - 2}"
            )
        if tuple(sorted(pos)) != pos:
            raise ParamOutOfRange(f"spacer positions must be sorted, got {pos}")

    @property
    def k(self) -> int:
        return self.t + self.q

    @property
    def phi(self) -> tuple[int, ...]:
        posset = set(self.positions)
        out = []
        skipped = 0
        for i in range(self.t):
            out.append(i + skipped)
            if i in posset:
                skipped += 1
        ensure(out[-1] == self.k - 1, "digit map misses the largest digit")
        return tuple(out)

    @property
    def alphabet(self) -> DigitAlphabet:
        from ..digits import DigitAlphabet  # loading a spec needs no digits

        return DigitAlphabet(self.k, self.phi)

    def stage(self, h: int) -> StageSpec:
        posset = set(self.positions)
        s = [h if j in posset else 0 for j in range(self.t - 1)]
        s.append(1)
        return StageSpec(self.t, tuple(s))


def make_tq(t: int, q: int, positions: Sequence[int]) -> tuple[RankOneSpec, TQParams]:
    params = TQParams(t, q, tuple(sorted(positions)))
    tag = FamilyTag.of(
        "tq", {"t": t, "q": q, "positions": list(params.positions)}
    )
    spec = RankOneSpec(
        stages=(),
        h0=1,
        stage_rule=lambda n, h: params.stage(h),
        family=tag,
    )
    return spec, params
