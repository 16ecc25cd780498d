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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, gcd, prod

from .farey import Slope, audit, make_slope, negative_cf, raw_diff
from .paths import Block, build_pair, decompose_blocks


@lru_cache(maxsize=None)
def _blocks_of(p: int, q: int) -> tuple[Block, ...]:
    return decompose_blocks(build_pair(p, q)).blocks


@dataclass(frozen=True)
class DecoratedPathPair:
    p: int
    q: int
    plus_counts: tuple[int, ...]

    @property
    def pair(self):
        return build_pair(self.p, self.q)

    @property
    def blocks(self) -> tuple[Block, ...]:
        return _blocks_of(self.p, self.q)

    @cached_property
    def signed_counts(self) -> tuple[int, ...]:
        """x_b = 2 c_b - e_b per block: + signs minus - signs."""
        return tuple(2 * c - b.edge_count for c, b in zip(self.plus_counts, self.blocks))

    @cached_property
    def block_signs(self) -> tuple[int, ...]:
        """+1 / -1 per uniformly signed block, 0 per mixed one."""
        return tuple(
            1 if c == b.edge_count else -1 if c == 0 else 0
            for c, b in zip(self.plus_counts, self.blocks)
        )

    def __str__(self) -> str:
        return decoration_string(self)


def sign_strings(d: DecoratedPathPair) -> tuple[str, str]:
    """The edge signs along P1 and P2 (both from q/p outward), canonical order."""
    sides = {"P1": "", "P2": ""}
    for c, b in zip(d.plus_counts, d.blocks):
        sides[b.side] += "+" * c + "-" * (b.edge_count - c)
    return sides["P1"], sides["P2"]


def decoration_string(d: DecoratedPathPair) -> str:
    return "P1:{}|P2:{}".format(*sign_strings(d))


def parse_decoration(p: int, q: int, text: str) -> DecoratedPathPair:
    """Parse "P1:<signs>|P2:<signs>" (P1 in forward path order); the class is
    canonicalized, so only per-block plus counts are retained."""
    parts = dict(
        chunk.split(":", 1) for chunk in text.replace(" ", "").split("|") if chunk
    )
    if set(parts) != {"P1", "P2"}:
        raise ValueError(f"decoration must look like 'P1:+-|P2:++-', got {text!r}")
    blocks = decompose_blocks(build_pair(p, q)).blocks
    counts = [0] * len(blocks)
    for side in ("P1", "P2"):
        signs = parts[side]
        if any(ch not in "+-" for ch in signs):
            raise ValueError(f"bad sign characters in {signs!r}")
        offset = 0
        side_blocks = [b for b in blocks if b.side == side]
        if len(signs) != sum(b.edge_count for b in side_blocks):
            raise ValueError(
                f"{side} needs {sum(b.edge_count for b in side_blocks)} signs, got {len(signs)}"
            )
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
    blocks = decompose_blocks(build_pair(p, q)).blocks
    sizes = [b.edge_count for b in blocks]
    return [
        DecoratedPathPair(p, q, counts)
        for counts in itertools.product(*(range(e + 1) for e in sizes))
    ]


# ---------------------------------------------------------------------------
# consistency


@dataclass(frozen=True)
class ConsistencyClass:
    kind: str  # "totally_consistent" | "inconsistent"
    i: int | None  # inconsistency index (>= 2) when kind == "inconsistent"
    totally_2_inconsistent: bool


def breaking_index(d: DecoratedPathPair) -> int | None:
    """Smallest i such that blocks 1..i are not uniformly one sign."""
    signs = d.block_signs
    for i, s in enumerate(signs):
        if s == 0 or s != signs[0]:
            return i + 1
    return None


def classify_consistency(d: DecoratedPathPair) -> ConsistencyClass:
    signs = d.block_signs
    t2i = len(signs) >= 2 and signs[0] != 0 and signs[1] == -signs[0]
    b = breaking_index(d)
    if b is None:
        return ConsistencyClass("totally_consistent", None, False)
    return ConsistencyClass("inconsistent", b, t2i)


def describes_tight(d: DecoratedPathPair) -> bool:
    """pq < 0 decorations whose truncated part is uniformly one sign describe
    the standard tight structure, whatever the integer-run suffix does."""
    if d.q > 0:
        return False
    signs = [s for s, b in zip(d.block_signs, d.blocks) if b.in_truncation]
    return signs[0] != 0 and signs.count(signs[0]) == len(signs)


# ---------------------------------------------------------------------------
# compatibility shuffles


def _extension_ok(d: DecoratedPathPair, b: int) -> bool:
    # The edge from the second-to-last vertex of block b-1 to the first
    # vertex of block b must extend block b's continued fraction block.
    blocks = d.blocks
    prev, cur = blocks[b - 2], blocks[b - 1]
    v_first = cur.vertices[0]
    v_second_last = prev.vertices[-2]
    return make_slope(*raw_diff(v_first, v_second_last)) == cur.pivot


def shuffle_down(d: DecoratedPathPair) -> DecoratedPathPair | None:
    """The compatible (i-1)-inconsistent class of an i-inconsistent one (i >= 3).

    Returns None when no such shuffle exists (2-inconsistent input, tight
    input, or the inconsistency sits in the pq < 0 integer-run suffix).
    """
    if describes_tight(d):
        return None
    b = breaking_index(d)
    if b is None:
        # pq > 0 totally consistent: handled by shuffle_down_from_consistent.
        return shuffle_down_from_consistent(d) if d.q > 0 else None
    if b < 3 or not d.blocks[b - 1].in_truncation:
        return None
    audit(_extension_ok(d, b), "shuffle invalidated by block geometry")
    sigma = d.block_signs[0]
    audit(sigma != 0, "an i-inconsistent class, i >= 3, starts with a uniform block")
    sizes = [blk.edge_count for blk in d.blocks]
    new = list(d.plus_counts)
    for j in range(b - 2):
        new[j] = 0 if sigma > 0 else sizes[j]
    new[b - 2] = 1 if sigma > 0 else sizes[b - 2] - 1
    new[b - 1] += 1 if sigma > 0 else -1
    audit(0 <= new[b - 1] <= sizes[b - 1], "shuffle overflows block b")
    out = DecoratedPathPair(d.p, d.q, tuple(new))
    audit(breaking_index(out) == b - 1, "shuffle_down must lower the breaking index by 1")
    return out


def shuffle_down_from_consistent(d: DecoratedPathPair) -> DecoratedPathPair:
    """pq > 0 only: the maximally inconsistent re-signing of the all-one-sign
    class (split the final solid-torus prong off P2's last edge)."""
    if d.q < 0 or breaking_index(d) is not None:
        raise ValueError("needs the pq > 0 totally consistent class")
    blocks = d.blocks
    audit(blocks[-1].side == "P2", "last block should sit on P2 for pq > 0")
    sigma = d.block_signs[0]
    sizes = [blk.edge_count for blk in blocks]
    new = [0 if sigma > 0 else sz for sz in sizes]
    new[-1] = 1 if sigma > 0 else sizes[-1] - 1
    out = DecoratedPathPair(d.p, d.q, tuple(new))
    audit(breaking_index(out) == len(blocks), "the re-signing must break at the last block")
    return out


def _shuffle_up(d: DecoratedPathPair) -> DecoratedPathPair | None:
    """Inverse of shuffle_down, or the totally consistent top when the input
    is the maximally inconsistent pq > 0 re-signing; None at the orbit top."""
    if describes_tight(d):
        return None
    b = breaking_index(d)
    if b is None:
        return None
    blocks = d.blocks
    sizes = [blk.edge_count for blk in blocks]
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
    audit(breaking_index(parent) == b + 1, "shuffle_up must raise the breaking index by 1")
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
    block 2.  Member t (from 0) is (t+2)-inconsistent; the last member is
    the pq > 0 totally consistent top when it has no breaking index.  Within
    a pair the orbit with the lexicographically lower member comes first,
    and pairs are ordered by that member: the order in which a walk over
    enumerate_decorations meets them.
    """
    # blocks 1 and 2 start P1 and P2 and lie in the truncation, so no root is tight
    sizes = [b.edge_count for b in decompose_blocks(build_pair(p, q)).blocks]
    pairs = []
    for rest in itertools.product(range(1, sizes[1] + 1), *(range(e + 1) for e in sizes[2:])):
        root = DecoratedPathPair(p, q, (0, *rest))
        pairs.append(tuple(sorted((_climb(root), _climb(negate(root))), key=_lowest)))
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
