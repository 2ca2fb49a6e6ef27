"""Base-``k`` digit machinery for alphabets with gaps of 1 or 2.

Membership in the truncated signed-digit sumset ``D(n)' = (A-A) + k(A-A) +
... + k^{n-1}(A-A)``, the gap-count recursion, coverage checks, and the
search for a shift ``gamma`` that keeps prescribed multiples representable.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from typing import Iterable, Iterator, NamedTuple

from . import _public
from ._budget import charge
from .errors import CheckedRecord, HorizonExceeded, ParamOutOfRange, PreconditionViolated
from .errors import ensure, is_plain_int

__all__ = _public("digits")


# ---------------------------------------------------------------------------
# digit alphabets


class _DigitAlphabetFields(NamedTuple):
    k: int
    digits: tuple[int, ...]


class DigitAlphabet(CheckedRecord, _DigitAlphabetFields):
    """Digit set for base ``k`` with steps of 1 or 2 between digits.

    Contains 0 and ``k - 1``; consecutive digits differ by 1 or 2.  The gap
    structure is what the coverage and gap-count results below rely on, so it
    is enforced at construction time.
    """

    # No __slots__ here: the cached tables below live in the instance dict.
    def _check(self) -> None:
        if not is_plain_int(self.k) or self.k < 2:
            raise ParamOutOfRange(f"base must be an integer >= 2, got {self.k!r}")
        d = self.digits
        if not all(map(is_plain_int, d)):
            raise PreconditionViolated(f"digits must be integers, got {d!r}")
        if not d or list(d) != sorted(set(d)):
            raise PreconditionViolated("digits must be strictly increasing")
        if d[0] != 0:
            raise PreconditionViolated("digit set must contain 0")
        if d[-1] != self.k - 1:
            raise PreconditionViolated(f"largest digit must be k-1 = {self.k - 1}, got {d[-1]}")
        for a, b in zip(d, d[1:]):
            if not 1 <= b - a <= 2:
                raise PreconditionViolated(
                    f"digit gap {b - a} between {a} and {b}; gaps must be 1 or 2"
                )

    @cached_property
    def diffs(self) -> frozenset[int]:
        """The signed digit set A - A."""
        return frozenset(a - b for a in self.digits for b in self.digits)

    @cached_property
    def _by_residue(self) -> dict[int, tuple[int, ...]]:
        """The differences grouped by residue mod ``k``, largest first."""
        groups: dict[int, list[int]] = {}
        for c in sorted(self.diffs, reverse=True):
            groups.setdefault(c % self.k, []).append(c)
        return {r: tuple(cands) for r, cands in groups.items()}

    @property
    def has_unit_diff(self) -> bool:
        return 1 in self.diffs


def admissible_alphabets(k: int) -> tuple[DigitAlphabet, ...]:
    """Every digit alphabet for base ``k``: all gap words over {1, 2}."""
    if k < 2:
        raise ParamOutOfRange(f"base must be >= 2, got {k}")
    out = []
    span = k - 1
    # Compositions of k-1 into parts 1 and 2, generated by the count of 2s.
    for twos in range(span // 2 + 1):
        ones = span - 2 * twos
        for positions in itertools.combinations(range(ones + twos), twos):
            gaps = [2 if p in positions else 1 for p in range(ones + twos)]
            out.append(DigitAlphabet(k, tuple(itertools.accumulate(gaps, initial=0))))
    ensure(len({a.digits for a in out}) == len(out), "an alphabet was generated twice")
    return tuple(out)


def _sumset_row(alphabet: DigitAlphabet, n: int) -> str:
    """Nonnegative half of D(n)': character ``v < k^n`` is ``"1"`` iff ``v`` is in it.

    D(n)' is one ``int``: after ``l`` positions, bit ``v + k^l - 1`` stands for
    ``v``, and each position ORs one copy per ``c`` in A-A, shifted ``(c + k - 1) * k^l``.
    """
    charge(alphabet.k**n, "truncated sumset enumeration")
    k, bits, scale = alphabet.k, 1, 1
    for _ in range(n):
        bits = reduce(int.__or__, (bits << (c + k - 1) * scale for c in alphabet.diffs))
        scale *= k
    ensure(bits & 1 and bits.bit_length() == 2 * scale - 1, "span is off")
    return bin(bits >> scale - 1)[:1:-1]  # k^n characters, as the span check holds


def _absent(values: range, row: str, first: int = -1) -> list[int]:
    """The ``values`` whose characters in ``row`` are ``"0"``: all, or the first ``first``."""
    pieces = row[values.start : values.stop : values.step].split("0", first)[:-1]
    return [values[i - 1] for i in itertools.accumulate(len(p) + 1 for p in pieces)]


def sumset_membership(
    alphabet: DigitAlphabet, n: int, target: int
) -> tuple[int, ...] | None:
    """Digits ``(c_0, ..., c_{n-1})`` in A-A with ``sum c_l * k^l = target``.

    Least-significant digit first; at each position the candidates congruent
    to the remainder mod ``k`` are tried largest-first, so the returned
    representation is deterministic.  A remainder too large for the remaining
    positions (``|rem| > k^(n-l) - 1``) is pruned; as no remainder passes
    ``max(|target|, k - 1)``, only the last few positions can prune.  Failing
    ``(position, remainder)`` states are memoized, which keeps the search
    polynomial in ``n``.  The path is a list, not the call stack.

    Returns ``None`` when ``target`` is not in D(n)'.
    """
    if not is_plain_int(n) or n < 1:
        raise ParamOutOfRange(f"digit count must be an integer >= 1, got {n!r}")
    if not is_plain_int(target):
        raise ParamOutOfRange(f"target must be an integer, got {target!r}")
    k = alphabet.k
    by_residue = alphabet._by_residue
    caps = [0]  # k^i - 1 for i positions left, up to the first that no remainder passes
    while caps[-1] < max(abs(target), k - 1):
        caps.append(caps[-1] * k + k - 1)
    dead: set[tuple[int, int]] = set()
    path: list[tuple[int, Iterator[int]]] = []  # (remainder, untried digits) per position
    digits: list[int] = []
    rem = target
    while len(path) < n or rem:
        if abs(rem) <= caps[min(n - len(path), len(caps) - 1)] and (len(path), rem) not in dead:
            path.append((rem, iter(by_residue.get(rem % k, ()))))
            digits.append(0)
        while path:  # the deepest position's next digit, or back up
            rem, untried = path[-1]
            c = next(untried, None)
            if c is not None:
                digits[-1], rem = c, (rem - c) // k
                break
            dead.add((len(path) - 1, rem))
            path.pop()
            digits.pop()
        else:
            return None
    ensure(reduce(lambda v, c: v * k + c, reversed(digits), 0) == target, "digits miss target")
    ensure(all(c in alphabet.diffs for c in digits), "a digit is outside A - A")
    return tuple(digits)


# ---------------------------------------------------------------------------
# gap counts and coverage


class GapCount(NamedTuple):
    """Missing-value count of D(n)' by recursion and by brute force.

    ``g`` counts the values in ``[1, k-1]`` outside A-A; ``recursion`` is the
    sequence lambda_1..lambda_n from ``lambda_1 = g``,
    ``lambda_{m+1} = (2g+1) lambda_m + g``; ``brute`` counts the values in
    ``[0, k^n - 1]`` outside D(n)', with the values themselves in
    ``missing``.
    """

    alphabet: DigitAlphabet
    n: int
    g: int
    unit_gaps: tuple[int, ...]
    recursion: tuple[int, ...]
    brute: int
    missing: tuple[int, ...]

    @property
    def matches(self) -> bool:
        return self.recursion[-1] == self.brute


def gap_count(alphabet: DigitAlphabet, n: int) -> GapCount:
    if not is_plain_int(n) or n < 1:
        raise ParamOutOfRange(f"digit count must be an integer >= 1, got {n!r}")
    if not alphabet.has_unit_diff:
        raise PreconditionViolated(
            "gap-count recursion needs two digits at distance 1 (1 in A-A)"
        )
    k = alphabet.k
    unit_gaps = tuple(v for v in range(1, k) if v not in alphabet.diffs)
    g = len(unit_gaps)
    recursion = tuple(itertools.accumulate([g] * n, lambda lam, _: (2 * g + 1) * lam + g))
    missing = tuple(_absent(range(k**n), _sumset_row(alphabet, n)))
    return GapCount(alphabet, n, g, unit_gaps, recursion, len(missing), missing)


class CoverageChecks(NamedTuple):
    """Exhaustive verdicts for the three coverage claims about D(n)'.

    * ``half_alphabet_ok`` — A-A contains all of ``[0, ceil(k/2)]`` and every
      value in ``[0, k-1]`` with the parity of ``k - 1``;
    * ``half_range_ok`` — D(n)' contains all of ``[0, ceil(k/2) * k^(n-1)]``;
    * ``parity_ok`` — D(n)' contains every value in ``[0, k^n - 1]`` with the
      parity of ``k - 1``.

    The first two hold only when some digit pair differs by exactly 1; with
    no such pair they are reported as ``None`` (not applicable) rather than
    failures, since e.g. an all-even alphabet generates only even values.
    """

    alphabet: DigitAlphabet
    n: int
    has_unit_diff: bool
    half_alphabet_ok: bool | None
    half_range_ok: bool | None
    parity_ok: bool
    failures: tuple[tuple[str, int], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def coverage_checks(alphabet: DigitAlphabet, n: int) -> CoverageChecks:
    if not is_plain_int(n) or n < 1:
        raise ParamOutOfRange(f"digit count must be an integer >= 1, got {n!r}")
    k = alphabet.k
    half = -(-k // 2)
    parity = (k - 1) % 2
    unit = alphabet.has_unit_diff
    failures: list[tuple[str, int]] = []

    half_alphabet_ok: bool | None = None
    half_range_ok: bool | None = None
    row = _sumset_row(alphabet, n)
    if unit:
        wanted = set(range(half + 1)) | {v for v in range(k) if v % 2 == parity}
        miss = sorted(wanted - alphabet.diffs)
        half_alphabet_ok = not miss
        failures += [("half-alphabet", v) for v in miss]
        miss = _absent(range(half * k ** (n - 1) + 1), row, 8)
        half_range_ok = not miss
        failures += [("half-range", v) for v in miss]

    parity_miss = _absent(range(parity, k**n, 2), row, 8)
    failures += [("parity-range", v) for v in parity_miss]

    return CoverageChecks(
        alphabet,
        n,
        unit,
        half_alphabet_ok,
        half_range_ok,
        not parity_miss,
        tuple(failures),
    )


# ---------------------------------------------------------------------------
# gamma search


class GammaWitness(NamedTuple):
    """A shift ``gamma`` keeping powers of ``k`` representable after scaling.

    Certifies ``k^m - gamma in D(m)'`` and ``k^n - gamma*beta in D(n)'`` for
    every requested multiplier ``beta``, with the digit representations
    recorded (least-significant first).
    """

    alphabet: DigitAlphabet
    n: int
    m: int
    gamma: int
    zero_digits: tuple[int, ...]
    beta_digits: tuple[tuple[int, tuple[int, ...]], ...]

    def digits_for(self, beta: int) -> tuple[int, ...]:
        for b, digits in self.beta_digits:
            if b == beta:
                return digits
        raise ParamOutOfRange(f"multiplier {beta} was not part of the search")


def gamma_search(
    alphabet: DigitAlphabet, multipliers: Iterable[int], horizon: int = 8
) -> GammaWitness:
    """Least ``(n, m, gamma)`` (lexicographically) covering all multipliers.

    Searches ``1 <= n, m <= horizon`` and for each pair all feasible
    ``gamma >= 1`` (beyond the feasible range one side falls outside the
    sumset's span, so the scan is complete).
    """
    betas = sorted(set(multipliers))
    if not betas or any(not is_plain_int(b) or b < 1 for b in betas):
        raise ParamOutOfRange(f"multipliers must be positive integers, got {betas}")
    if alphabet.k < 3:
        raise ParamOutOfRange("gamma search needs base k >= 3")
    if not alphabet.has_unit_diff:
        raise PreconditionViolated("gamma search needs two digits at distance 1")
    if not is_plain_int(horizon) or horizon < 1:
        raise ParamOutOfRange(f"horizon must be an integer >= 1, got {horizon!r}")
    k = alphabet.k
    for n in range(1, horizon + 1):
        for m in range(1, horizon + 1):
            gamma_cap = min(2 * k**m - 1, (2 * k**n - 1) // max(betas))
            for gamma in range(1, gamma_cap + 1):
                zero_digits = sumset_membership(alphabet, m, k**m - gamma)
                if zero_digits is None:
                    continue
                per_beta = []
                for b in betas:
                    digits = sumset_membership(alphabet, n, k**n - gamma * b)
                    if digits is None:
                        break
                    per_beta.append((b, digits))
                else:
                    return GammaWitness(
                        alphabet, n, m, gamma, zero_digits, tuple(per_beta)
                    )
    raise HorizonExceeded(
        f"no gamma witness with n, m <= {horizon} for multipliers {betas}"
    )
