"""Exact arithmetic on the Farey graph.

Vertices are reduced fractions extended by a single point at infinity
(stored as 1/0).  Everything here is arbitrary-precision integer
arithmetic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class InvariantError(AssertionError):
    """One of the paper's internal cross-checks failed: a fault in the engine."""


def audit(cond: bool, msg: str) -> None:
    """Raise InvariantError unless cond holds; unlike assert, kept under -O."""
    if not cond:
        raise InvariantError(msg)


@dataclass(frozen=True, slots=True)
class Slope:
    """A Farey vertex: reduced num/den with den >= 0, or infinity = 1/0."""

    num: int
    den: int

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("infinity has no fractional value")
        return Fraction(self.num, self.den)

    def ceil(self) -> int:
        return -((-self.num) // self.den)

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Slope({self})"


INFINITY = Slope(1, 0)


def make_slope(num: int, den: int) -> Slope:
    """Reduced canonical slope; (k, 0) maps to infinity for any k != 0."""
    if num == 0 and den == 0:
        raise ValueError("0/0 is not a slope")
    if den == 0:
        return INFINITY
    if den < 0:
        num, den = -num, -den
    g = gcd(abs(num), den)
    return Slope(num // g, den // g)


def dot(a: Slope, b: Slope) -> int:
    """The pairing a/b . c/d = ad - bc (minimal intersection number up to sign)."""
    return a.num * b.den - a.den * b.num


def farey_sum(a: Slope, b: Slope) -> Slope:
    return make_slope(a.num + b.num, a.den + b.den)


def raw_diff(a: Slope, b: Slope) -> tuple[int, int]:
    """Componentwise a - b, NOT canonicalized (sign convention matters for
    rotation-number sums)."""
    return (a.num - b.num, a.den - b.den)


def is_edge(a: Slope, b: Slope) -> bool:
    """True iff a and b span an edge of the Farey graph."""
    if a == b:
        raise ValueError("is_edge needs distinct slopes")
    return abs(dot(a, b)) == 1


def cw_ordered(a: Slope, b: Slope, c: Slope) -> bool:
    """True iff (a, b, c) occur in clockwise circular order on the Farey disk.

    Clockwise runs through increasing finite values, with +/-infinity glued:
    0 -> 1 -> inf -> -1 -> 0.
    """
    if a == b or b == c or a == c:
        raise ValueError("cw_ordered needs distinct slopes")
    return dot(a, b) * dot(b, c) * dot(c, a) > 0


NEGATIVE = "negative"
POSITIVE = "positive"


@dataclass(frozen=True, slots=True)
class CFExpansion:
    """Continued fraction digits [a1,...,an] for a1 - 1/(a2 - 1/(...)).

    negative regime (value < -1): every digit <= -2.
    positive regime (value > 1): a1 = floor(value) >= 1, later digits <= -2.
    """

    digits: tuple[int, ...]
    regime: str


def negative_cf(value: Fraction) -> list[int]:
    """Digits of the (all <= -2) continued fraction of a rational < -1."""
    if value >= -1:
        raise ValueError(f"negative_cf needs a value < -1, got {value}")
    num, den = value.numerator, value.denominator
    digits: list[int] = []
    while True:
        a = num // den
        digits.append(a)
        rem_num, rem_den = num - a * den, den  # value - a in [0, 1)
        if rem_num == 0:
            break
        # next value = -1/(value - a) = -rem_den/rem_num, again < -1
        num, den = -rem_den, rem_num
    audit(all(d <= -2 for d in digits), "negative_cf produced a digit above -2")
    return digits


def cf_expand(r: Slope) -> CFExpansion:
    """Continued fraction expansion of r in its regime; requires |r| > 1."""
    if r.is_infinite:
        raise ValueError("infinity has no continued fraction expansion")
    v = r.as_fraction()
    if v < -1:
        return CFExpansion(tuple(negative_cf(v)), NEGATIVE)
    if v > 1:
        a1 = v.numerator // v.denominator
        rem = v - a1
        if rem == 0:
            return CFExpansion((a1,), POSITIVE)
        return CFExpansion((a1, *negative_cf(-1 / rem)), POSITIVE)
    raise ValueError(f"cf_expand needs |r| > 1, got {r}")


def cf_value(expansion: CFExpansion | tuple[int, ...] | list[int]) -> Slope:
    """Value of a digit string a1 - 1/(a2 - 1/(...)), as a slope."""
    digits = expansion.digits if isinstance(expansion, CFExpansion) else tuple(expansion)
    if not digits:
        return INFINITY
    num, den = digits[-1], 1
    for a in reversed(digits[:-1]):
        # a - 1/(num/den) = (a*num - den)/num
        num, den = a * num - den, num
    return make_slope(num, den)


def cf_step_increment(digits: tuple[int, ...]) -> tuple[int, ...]:
    """[c1..cj] -> [c1..cj+1], absorbing trailing -1 digits."""
    out = list(digits)
    out[-1] += 1
    while len(out) > 1 and out[-1] == -1:
        out.pop()
        out[-1] += 1
    return tuple(out)


def clockwise_neighbor(r: Slope) -> Slope:
    """(r)^c: the farthest-clockwise Farey neighbor of r on the clockwise side.

    For r > 1 this is the largest q'/p' with p q' - p' q = 1.
    """
    exp = cf_expand(r)
    if len(exp.digits) == 1:
        if exp.regime == NEGATIVE:
            return make_slope(exp.digits[0] + 1, 1)
        return INFINITY
    return cf_value(cf_step_increment(exp.digits))


def anticlockwise_neighbor(r: Slope) -> Slope:
    """(r)^a: the farthest-anticlockwise Farey neighbor on the other side.

    For a length-1 expansion the path leaves the chart; by convention the
    terminal vertex is returned (infinity in the negative regime, floor(r) - 1
    never arises for the pairs built here).
    """
    exp = cf_expand(r)
    if len(exp.digits) == 1:
        return INFINITY
    return cf_value(exp.digits[:-1])
