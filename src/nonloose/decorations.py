"""Sign decorations on path pairs and their combinatorics.

A decoration class is determined by the number of + signs in each
continued fraction block (shuffling signs inside a block preserves the
contact structure), so classes are stored as one plus-count c_b per block,
in block-index order.  Canonical edge signs put the + signs first.  Every
invariant of a class (consistency, tightness, rotation numbers, d3) reads
only its signed block counts x_b = 2 c_b - e_b, e_b the block's edge count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, prod

from .farey import negative_cf
from .paths import Knot, knot


@dataclass(frozen=True, slots=True)
class DecoratedPathPair:
    """One decoration class of (p,q): a plus count c_b in [0, e_b] per block.
    Built once with it: `knot`, the record of (p,q); `signed_counts`, x_b
    (+ signs minus - signs); `block_signs`, +1 / -1 per uniform block and 0
    per mixed one; `breaking`, the breaking index: the smallest i such that
    blocks 1..i are not uniformly one sign, None if there is none; `tight`,
    whether it describes the standard tight structure: pq < 0 and the
    truncated part uniformly one sign, whatever the integer-run suffix does."""

    p: int
    q: int
    plus_counts: tuple[int, ...]
    knot: Knot = field(init=False, compare=False, repr=False)
    signed_counts: tuple[int, ...] = field(init=False, compare=False, repr=False)
    block_signs: tuple[int, ...] = field(init=False, compare=False, repr=False)
    breaking: int | None = field(init=False, compare=False, repr=False)
    tight: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        k = knot(self.p, self.q)
        counts = tuple(self.plus_counts)  # a list would leave the record unhashable
        if len(counts) != len(k.sizes):
            raise ValueError(f"({self.p},{self.q}) has {len(k.sizes)} blocks, "
                             f"got {len(counts)} plus counts")
        x, signs, breaking = [], [], None
        for i, (c, e) in enumerate(zip(counts, k.sizes)):
            if not 0 <= c <= e:
                raise ValueError(f"({self.p},{self.q}) block {i + 1}: plus count {c} outside [0, {e}]")
            s = 1 if c == e else -1 if c == 0 else 0
            if breaking is None and (s == 0 or i and s != signs[0]):
                breaking = i + 1
            x.append(2 * c - e)
            signs.append(s)
        # pq < 0 and the truncated blocks, which come first, uniformly one sign
        tight = self.q < 0 and (breaking is None or breaking > len(k.truncated))
        # the record is frozen, so its derived fields are written past __setattr__
        for name, value in (("plus_counts", counts), ("knot", k), ("signed_counts", tuple(x)),
                            ("block_signs", tuple(signs)), ("breaking", breaking),
                            ("tight", tight)):
            object.__setattr__(self, name, value)

    @property
    def totally2(self) -> bool:
        """Totally 2-inconsistent: block 1 uniform, block 2 uniform of the
        opposite sign."""
        return self.block_signs[0] != 0 and self.block_signs[1] == -self.block_signs[0]

    def __str__(self) -> str:
        return decoration_string(self)


def sign_strings(d: DecoratedPathPair) -> tuple[str, str]:
    """The edge signs along P1 and P2 (both from q/p outward), canonical order."""
    sides = {"P1": "", "P2": ""}
    for c, e, b in zip(d.plus_counts, d.knot.sizes, d.knot.blocks):
        sides[b.side] += "+" * c + "-" * (e - c)
    return sides["P1"], sides["P2"]


def decoration_string(d: DecoratedPathPair) -> str:
    return "P1:{}|P2:{}".format(*sign_strings(d))


def parse_decoration(p: int, q: int, text: str) -> DecoratedPathPair:
    """Parse "P1:<signs>|P2:<signs>" (P1 in forward path order); the class is
    canonicalized, so only per-block plus counts are retained."""
    chunks = [chunk.split(":", 1) for chunk in text.replace(" ", "").split("|") if chunk]
    # exactly one chunk per side: a repeated side is refused, not overwritten
    if any(len(c) < 2 for c in chunks) or sorted(c[0] for c in chunks) != ["P1", "P2"]:
        raise ValueError(f"decoration must look like 'P1:+-|P2:++-', got {text!r}")
    parts = dict(chunks)
    blocks = knot(p, q).blocks
    counts = [0] * len(blocks)
    for side in ("P1", "P2"):
        signs = parts[side]
        if any(ch not in "+-" for ch in signs):
            raise ValueError(f"bad sign characters in {signs!r}")
        offset = 0
        side_blocks = [b for b in blocks if b.side == side]
        if len(signs) != (need := sum(b.edge_count for b in side_blocks)):
            raise ValueError(f"{side} needs {need} signs, got {len(signs)}")
        for b in side_blocks:
            chunk = signs[offset : offset + b.edge_count]
            counts[b.index - 1] = chunk.count("+")
            offset += b.edge_count
    return DecoratedPathPair(p, q, tuple(counts))


def enumerate_decorations(p: int, q: int) -> list[DecoratedPathPair]:
    """All decoration classes, lexicographic over (block index, plus count)."""
    return [
        DecoratedPathPair(p, q, counts)
        for counts in itertools.product(*(range(e + 1) for e in knot(p, q).sizes))
    ]


# ---------------------------------------------------------------------------
# compatibility orbits


def orbit_climbs(p: int, q: int) -> list[tuple[list[tuple[int, ...]], bool]]:
    """The compatibility orbits of the non-tight classes, paired with their
    mirrors: n(p,q) pairs (members, mirror_first), each member a plus-count
    tuple; no class record is built.

    Every orbit starts at a non-tight 2-inconsistent class (block 1 uniform,
    block 2 not uniform of the same sign), and the mirror c -> e - c maps
    roots to roots, so one pair grows from each root with block 1 all - and
    a + in block 2: `members` is its climb, the mirror orbit every member
    mirrored.  Member t (from 0) breaks at block t + 2, blocks 1..t+1 of
    sign tau = -1 for even t, +1 for odd t.  While block b = t + 2 holds
    exactly one -tau edge and b <= `Knot.climb_last` the climb steps up:
    blocks 1..b turn -tau and block b + 1 gains a tau edge; past the last
    block that is the pq > 0 step to the totally consistent top (all -tau),
    so an orbit reaches the top exactly when it has one member per block.
    Within a pair the orbit with the lexicographically lower member comes
    first (`mirror_first` when that is the mirror), and pairs are ordered by
    that member: the order in which a walk over enumerate_decorations meets
    them."""
    k = knot(p, q)
    sizes, n = k.sizes, len(k.sizes)
    zeros = (0,) * n
    pairs = []
    # blocks 1 and 2 start P1 and P2 and lie in the truncation, so no root is tight
    for rest in itertools.product(range(1, sizes[1] + 1), *(range(e + 1) for e in sizes[2:])):
        c = (0, *rest)
        members = [c]
        b, tau = 2, -1
        while b <= k.climb_last and (sizes[b - 1] - c[b - 1] if tau > 0 else c[b - 1]) == 1:
            head = (zeros if tau > 0 else sizes)[:b]
            if b < n:  # block b + 1 gains a tau edge
                nxt = c[b] + tau
                if not 0 <= nxt <= sizes[b]:
                    break
                head += (nxt,)
            c = head + c[b + 1 :]
            members.append(c)
            b, tau = b + 1, -tau
        # the mirror's lowest member is the mirror of the highest one
        lowest = min(members)
        mirror_lowest = tuple(e - c for e, c in zip(sizes, max(members)))
        pairs.append((min(lowest, mirror_lowest), members, mirror_lowest < lowest))
    pairs.sort(key=lambda pair: pair[0])
    return [(members, mirror_first) for _, members, mirror_first in pairs]


# ---------------------------------------------------------------------------
# counting formulas


def _upper_digits(v: Fraction) -> list[int]:
    """Digits of the solid torus with upper meridian 0 and dividing slope v, |v| > 1."""
    return negative_cf(v if v < 0 else 1 / (1 / v - 1))


def _lower_digits(v: Fraction) -> list[int]:
    """Digits of the solid torus with lower meridian infinity and dividing
    slope v, v not an integer."""
    return negative_cf(1 / (v - ceil(v)))


@lru_cache(maxsize=1024)
def class_counts(p: int, q: int) -> tuple[int, int, int]:
    """(m, n, totally2) of (p,q) from one pass over its two digit strings."""
    v = Fraction(q, p)
    a, b = _upper_digits(v), _lower_digits(v)
    lead = abs(prod(x + 1 for x in a[:-1]) * prod(x + 1 for x in b[:-1]))
    return (lead * abs(a[-1] * b[-1]), lead * abs((a[-1] + 1) * (b[-1] + 1)), 2 * lead)


def count_m(p: int, q: int) -> int:
    """Number of decoration classes: |Tight(S^0; q/p)| x |Tight(S_inf; q/p)|."""
    return class_counts(p, q)[0]


def count_n(p: int, q: int) -> int:
    """Number of tight structures on L(p,-q) # L(q,-p)."""
    return class_counts(p, q)[1]


def count_totally_2_inconsistent(p: int, q: int) -> int:
    return class_counts(p, q)[2]


def tight_count_lens(p: int, q: int) -> int:
    """Number of tight contact structures on the lens space L(p, q)."""
    if p < 0:
        p, q = -p, -q
    if p < 2:
        return 1
    if gcd(p, abs(q)) != 1:
        raise ValueError("lens space needs coprime parameters")
    q_star = q % p
    if q_star == 0:
        raise ValueError("q must be nonzero mod p")
    digits = negative_cf(Fraction(-p, q_star))
    return abs(prod(x + 1 for x in digits))
