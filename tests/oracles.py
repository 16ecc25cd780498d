"""Reference implementations the engine no longer runs, kept for the tests.

`classify` climbs each compatibility orbit up from its 2-inconsistent root
on plus-count tuples (`decorations.orbit_climbs`); the record climb here
(`negate`, `_shuffle_up`, `_climb`, `orbit_pairs`, `mirror_string`) is what
it is checked against, and the downward walk is the independent way round.
The solid-torus counts restate the digit products of `decorations.class_counts`
one factor at a time, and `parse_slope` and `farey_diff` are the small
Farey helpers the golden tests write slopes with.
"""

from __future__ import annotations

import itertools
from math import prod

from nonloose.decorations import (
    DecoratedPathPair,
    _lower_digits,
    _upper_digits,
    decoration_string,
)
from nonloose.farey import INFINITY, Slope, audit, make_slope
from nonloose.paths import knot

# ---------------------------------------------------------------------------
# compatibility orbits, climbed on class records


def negate(d: DecoratedPathPair) -> DecoratedPathPair:
    """The mirror class: every sign flipped, x -> -x, plus counts e_b - c_b."""
    return DecoratedPathPair(d.p, d.q, tuple(e - c for c, e in zip(d.plus_counts, d.knot.sizes)))


def _shuffle_up(d: DecoratedPathPair) -> DecoratedPathPair | None:
    """One step up d's compatibility orbit: the class whose shuffle down is
    d, or the totally consistent top when d is the maximally inconsistent
    pq > 0 re-signing; None at the orbit top.  Shuffling needs each
    truncated block b >= 3 to extend across block b - 1, a fact about the
    knot that decompose_blocks audits once."""
    if d.tight:
        return None
    b = d.breaking
    if b is None:
        return None
    blocks, sizes = d.knot.blocks, d.knot.sizes
    tau = d.block_signs[0]
    if tau == 0:
        return None
    # block b must carry exactly one edge signed opposite to tau
    plus_b = d.plus_counts[b - 1]
    one_opposite = (sizes[b - 1] - plus_b == 1) if tau > 0 else (plus_b == 1)
    if not one_opposite:
        return None
    if b == len(blocks):
        if d.q < 0 or blocks[-1].side != "P2":
            return None
        return DecoratedPathPair(d.p, d.q, tuple(0 if tau > 0 else sz for sz in sizes))
    if not blocks[b].in_truncation:
        return None
    # the parent has blocks 1..b uniformly -tau and one fewer (-tau)-edge in
    # block b+1; shuffling it down gives d back
    new = list(d.plus_counts)
    for j in range(b):
        new[j] = 0 if tau > 0 else sizes[j]
    new[b] = d.plus_counts[b] + (1 if tau > 0 else -1)
    if not 0 <= new[b] <= sizes[b]:
        return None
    parent = DecoratedPathPair(d.p, d.q, tuple(new))
    audit(parent.breaking == b + 1, "shuffle_up must raise the breaking index by 1")
    return parent


def _climb(d: DecoratedPathPair) -> list[DecoratedPathPair]:
    """d followed by every class above it in its compatibility orbit."""
    chain = [d]
    while (up := _shuffle_up(chain[-1])) is not None:
        chain.append(up)
    return chain


def orbit_pairs(p: int, q: int) -> list[tuple[list[DecoratedPathPair], bool]]:
    """The compatibility orbits of the non-tight classes, paired with their
    mirrors: n(p,q) pairs, each given as (orbit, mirror_first).

    Every orbit starts at a non-tight 2-inconsistent class (block 1 uniform,
    block 2 not uniform of the same sign), and negate maps these roots to
    roots, so one pair grows from each root with block 1 all - and a + in
    block 2.  `orbit` is that root's climb; climbing commutes with negate,
    so the mirror orbit is [negate(m) for m in orbit].  Member t (from 0) is
    (t+2)-inconsistent; the last member is the pq > 0 totally consistent
    top when it has no breaking index.  Within a pair the orbit with the
    lexicographically lower member comes first (`mirror_first` when that is
    the mirror), and pairs are ordered by that member: the order in which a
    walk over enumerate_decorations meets them.
    """
    # blocks 1 and 2 start P1 and P2 and lie in the truncation, so no root is tight
    sizes = knot(p, q).sizes
    pairs = []
    for rest in itertools.product(range(1, sizes[1] + 1), *(range(e + 1) for e in sizes[2:])):
        orbit = _climb(DecoratedPathPair(p, q, (0, *rest)))
        lowest = min(m.plus_counts for m in orbit)
        mirror_lowest = min(negate(m).plus_counts for m in orbit)
        pairs.append((min(lowest, mirror_lowest), orbit, mirror_lowest < lowest))
    pairs.sort(key=lambda pair: pair[0])
    return [(orbit, mirror_first) for _, orbit, mirror_first in pairs]


def mirror_string(d: DecoratedPathPair) -> str:
    """The decoration string of the mirror class."""
    return decoration_string(negate(d))


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
