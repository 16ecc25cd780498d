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
from math import ceil, gcd, prod

from .farey import Slope, audit, make_slope, negative_cf, raw_diff
from .paths import Knot, knot


@dataclass(frozen=True)
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
        if len(self.plus_counts) != len(k.sizes):
            raise ValueError(f"({self.p},{self.q}) has {len(k.sizes)} blocks, "
                             f"got {len(self.plus_counts)} plus counts")
        x, signs, breaking = [], [], None
        for i, (c, e) in enumerate(zip(self.plus_counts, k.sizes)):
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
        vars(self).update(knot=k, signed_counts=tuple(x), block_signs=tuple(signs),
                          breaking=breaking, tight=tight)

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
    if any(len(c) < 2 for c in chunks) or {c[0] for c in chunks} != {"P1", "P2"}:
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


def negate(d: DecoratedPathPair) -> DecoratedPathPair:
    """The mirror class: every sign flipped, x -> -x (c_b - x_b = e_b - c_b)."""
    return DecoratedPathPair(
        d.p, d.q, tuple(c - x for c, x in zip(d.plus_counts, d.signed_counts))
    )


def enumerate_decorations(p: int, q: int) -> list[DecoratedPathPair]:
    """All decoration classes, lexicographic over (block index, plus count)."""
    return [
        DecoratedPathPair(p, q, counts)
        for counts in itertools.product(*(range(e + 1) for e in knot(p, q).sizes))
    ]


# ---------------------------------------------------------------------------
# consistency


@dataclass(frozen=True)
class ConsistencyClass:
    kind: str  # "totally_consistent" | "inconsistent"
    i: int | None  # inconsistency index (>= 2) when kind == "inconsistent"
    totally_2_inconsistent: bool


def classify_consistency(d: DecoratedPathPair) -> ConsistencyClass:
    signs = d.block_signs
    t2i = len(signs) >= 2 and signs[0] != 0 and signs[1] == -signs[0]
    if d.breaking is None:
        return ConsistencyClass("totally_consistent", None, False)
    return ConsistencyClass("inconsistent", d.breaking, t2i)


# ---------------------------------------------------------------------------
# compatibility shuffles


def _extension_ok(d: DecoratedPathPair, b: int) -> bool:
    # The edge from the second-to-last vertex of block b-1 to the first
    # vertex of block b must extend block b's continued fraction block.
    blocks = d.knot.blocks
    prev, cur = blocks[b - 2], blocks[b - 1]
    v_first = cur.vertices[0]
    v_second_last = prev.vertices[-2]
    return make_slope(*raw_diff(v_first, v_second_last)) == cur.pivot


def shuffle_down(d: DecoratedPathPair) -> DecoratedPathPair | None:
    """The compatible (i-1)-inconsistent class of an i-inconsistent one (i >= 3).

    Returns None when no such shuffle exists (2-inconsistent input, tight
    input, or the inconsistency sits in the pq < 0 integer-run suffix).
    """
    if d.tight:
        return None
    b = d.breaking
    if b is None:
        # pq > 0 totally consistent: handled by shuffle_down_from_consistent.
        return shuffle_down_from_consistent(d) if d.q > 0 else None
    if b < 3 or b > len(d.knot.truncated):
        return None
    audit(_extension_ok(d, b), "shuffle invalidated by block geometry")
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


def _shuffle_up(d: DecoratedPathPair) -> DecoratedPathPair | None:
    """Inverse of shuffle_down, or the totally consistent top when the input
    is the maximally inconsistent pq > 0 re-signing; None at the orbit top."""
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
    # block b+1; shuffle_down maps it back to d
    new = list(d.plus_counts)
    for j in range(b):
        new[j] = 0 if tau > 0 else sizes[j]
    new[b] = d.plus_counts[b] + (1 if tau > 0 else -1)
    if not 0 <= new[b] <= sizes[b]:
        return None
    parent = DecoratedPathPair(d.p, d.q, tuple(new))
    audit(_extension_ok(parent, b + 1), "shuffle invalidated by block geometry")
    audit(parent.breaking == b + 1, "shuffle_up must raise the breaking index by 1")
    return parent


def _climb(d: DecoratedPathPair) -> list[DecoratedPathPair]:
    """d followed by every class above it in its compatibility orbit."""
    chain = [d]
    while (up := _shuffle_up(chain[-1])) is not None:
        chain.append(up)
    return chain


def compatibility_orbit(d: DecoratedPathPair) -> list[DecoratedPathPair]:
    """All classes compatible with d: one k-inconsistent member per k, ordered
    by k, with the pq > 0 totally consistent top (when present) last.  A
    tight class is its own orbit."""
    below = []
    cur = d
    while (cur := shuffle_down(cur)) is not None:
        below.append(cur)
    return below[::-1] + _climb(d)


def _lowest(orbit: list[DecoratedPathPair]) -> tuple[int, ...]:
    return min(m.plus_counts for m in orbit)


def orbit_pairs(p: int, q: int) -> list[tuple[list[DecoratedPathPair], list[DecoratedPathPair]]]:
    """The compatibility orbits of the non-tight classes, paired with their
    mirrors: n(p,q) pairs.

    Every orbit starts at a non-tight 2-inconsistent class (block 1 uniform,
    block 2 not uniform of the same sign), and negate maps these roots to
    roots, so one pair grows from each root with block 1 all - and a + in
    block 2.  Climbing commutes with negate, so the root's orbit is climbed
    once and its mirror is the negated climb.  Member t (from 0) is
    (t+2)-inconsistent; the last member is the pq > 0 totally consistent
    top when it has no breaking index.  Within a pair the orbit with the
    lexicographically lower member comes first, and pairs are ordered by
    that member: the order in which a walk over enumerate_decorations meets
    them.
    """
    # blocks 1 and 2 start P1 and P2 and lie in the truncation, so no root is tight
    sizes = knot(p, q).sizes
    pairs = []
    for rest in itertools.product(range(1, sizes[1] + 1), *(range(e + 1) for e in sizes[2:])):
        root = DecoratedPathPair(p, q, (0, *rest))
        orbit = _climb(root)
        pairs.append(tuple(sorted((orbit, [negate(m) for m in orbit]), key=_lowest)))
    pairs.sort(key=lambda pair: _lowest(pair[0]))
    return pairs


# ---------------------------------------------------------------------------
# counting formulas


def _upper_digits(v: Fraction) -> list[int]:
    """Digits of the solid torus with upper meridian 0 and dividing slope v, |v| > 1."""
    return negative_cf(v if v < 0 else 1 / (1 / v - 1))


def _lower_digits(v: Fraction) -> list[int]:
    """Digits of the solid torus with lower meridian infinity and dividing
    slope v, v not an integer."""
    return negative_cf(1 / (v - ceil(v)))


def _tight_count(digits: list[int]) -> int:
    return abs(prod(x + 1 for x in digits[:-1]) * digits[-1])


def _ab_digits(p: int, q: int) -> tuple[list[int], list[int]]:
    v = Fraction(q, p)
    return _upper_digits(v), _lower_digits(v)


def count_m(p: int, q: int) -> int:
    """Number of decoration classes: |Tight(S^0; q/p)| x |Tight(S_inf; q/p)|."""
    a, b = _ab_digits(p, q)
    return _tight_count(a) * _tight_count(b)


def count_n(p: int, q: int) -> int:
    """Number of tight structures on L(p,-q) # L(q,-p)."""
    a, b = _ab_digits(p, q)
    return abs(prod(x + 1 for x in a)) * abs(prod(x + 1 for x in b))


def count_totally_2_inconsistent(p: int, q: int) -> int:
    a, b = _ab_digits(p, q)
    return 2 * abs(prod(x + 1 for x in a[:-1])) * abs(prod(x + 1 for x in b[:-1]))


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
