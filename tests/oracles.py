"""Reference implementations the engine no longer runs, kept for the tests.

`classify` climbs each compatibility orbit up from its 2-inconsistent root
(`decorations._climb`); the downward walk here is the independent way
round.  The solid-torus counts restate the digit products of
`decorations.class_counts` one factor at a time, and `parse_slope` and
`farey_diff` are the small Farey helpers the golden tests write slopes with.
"""

from __future__ import annotations

from math import prod

from nonloose.decorations import DecoratedPathPair, _climb, _lower_digits, _upper_digits
from nonloose.farey import INFINITY, Slope, audit, make_slope

# ---------------------------------------------------------------------------
# compatibility orbits, walked down


def shuffle_down(d: DecoratedPathPair) -> DecoratedPathPair | None:
    """The compatible (i-1)-inconsistent class of an i-inconsistent one (i >= 3).

    Returns None when no such shuffle exists (2-inconsistent input, tight
    input, or the inconsistency sits in the pq < 0 integer-run suffix).
    That block b extends across block b - 1 is audited by decompose_blocks.
    """
    if d.tight:
        return None
    b = d.breaking
    if b is None:
        # pq > 0 totally consistent: handled by shuffle_down_from_consistent.
        return shuffle_down_from_consistent(d) if d.q > 0 else None
    if b < 3 or b > len(d.knot.truncated):
        return None
    sigma = d.block_signs[0]
    audit(sigma != 0, "an i-inconsistent class, i >= 3, starts with a uniform block")
    sizes = d.knot.sizes
    new = list(d.plus_counts)
    for j in range(b - 2):
        new[j] = 0 if sigma > 0 else sizes[j]
    new[b - 2] = 1 if sigma > 0 else sizes[b - 2] - 1
    new[b - 1] += 1 if sigma > 0 else -1
    audit(0 <= new[b - 1] <= sizes[b - 1], "shuffle overflows block b")
    out = DecoratedPathPair(d.p, d.q, tuple(new))
    audit(out.breaking == b - 1, "shuffle_down must lower the breaking index by 1")
    return out


def shuffle_down_from_consistent(d: DecoratedPathPair) -> DecoratedPathPair:
    """pq > 0 only: the maximally inconsistent re-signing of the all-one-sign
    class (split the final solid-torus prong off P2's last edge)."""
    if d.q < 0 or d.breaking is not None:
        raise ValueError("needs the pq > 0 totally consistent class")
    audit(d.knot.blocks[-1].side == "P2", "last block should sit on P2 for pq > 0")
    sigma = d.block_signs[0]
    sizes = d.knot.sizes
    new = [0 if sigma > 0 else sz for sz in sizes]
    new[-1] = 1 if sigma > 0 else sizes[-1] - 1
    out = DecoratedPathPair(d.p, d.q, tuple(new))
    audit(out.breaking == len(sizes), "the re-signing must break at the last block")
    return out


def compatibility_orbit(d: DecoratedPathPair) -> list[DecoratedPathPair]:
    """All classes compatible with d: one k-inconsistent member per k, ordered
    by k, with the pq > 0 totally consistent top (when present) last.  A
    tight class is its own orbit."""
    below = []
    cur = d
    while (cur := shuffle_down(cur)) is not None:
        below.append(cur)
    return below[::-1] + _climb(d)


# ---------------------------------------------------------------------------
# tight structures on the two solid tori


def _tight_count(digits: list[int]) -> int:
    return abs(prod(x + 1 for x in digits[:-1]) * digits[-1])


def tight_count_solid_torus_upper(r: Slope) -> int:
    """|Tight(S^0; r)|: solid torus with upper meridian 0, dividing slope r."""
    if r.is_infinite or abs(r.as_fraction()) <= 1:
        raise ValueError("dividing slope must be finite with |r| > 1")
    return _tight_count(_upper_digits(r.as_fraction()))


def tight_count_solid_torus_lower(r: Slope) -> int:
    """|Tight(S_inf; r)|: solid torus with lower meridian infinity."""
    if r.is_infinite:
        raise ValueError("dividing slope must be finite")
    if r.is_integer:
        return 1
    return _tight_count(_lower_digits(r.as_fraction()))


# ---------------------------------------------------------------------------
# Farey helpers


def parse_slope(text: str) -> Slope:
    text = text.strip()
    if text in ("inf", "-inf", "oo"):
        return INFINITY
    if "/" in text:
        a, b = text.split("/")
        return make_slope(int(a), int(b))
    return make_slope(int(text), 1)


def farey_diff(a: Slope, b: Slope) -> Slope:
    num, den = a.num - b.num, a.den - b.den
    if num == 0 and den == 0:
        raise ValueError(f"farey_diff({a}, {b}) is indeterminate")
    return make_slope(num, den)
