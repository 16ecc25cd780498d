"""Farey paths attached to a torus knot class.

For coprime |q| > p > 1 the slope q/p determines a canonical pair of
minimal Farey paths: P1 runs anticlockwise from q/p to floor(q/p), P2 runs
clockwise from q/p to -1 (when pq < 0) or to infinity (when pq > 0).
Both paths subdivide into continued fraction blocks, interleaved by their
distance from q/p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .farey import (
    INFINITY,
    NEGATIVE,
    Slope,
    audit,
    cf_expand,
    cf_step_increment,
    cf_value,
    dot,
    is_edge,
    make_slope,
    raw_diff,
)


@dataclass(frozen=True)
class FareyPath:
    vertices: tuple[Slope, ...]

    @property
    def edges(self) -> int:
        return len(self.vertices) - 1

    def __iter__(self):
        return iter(self.vertices)

    def validate(self) -> None:
        for a, b in zip(self.vertices, self.vertices[1:]):
            if not is_edge(a, b):
                raise ValueError(f"not a Farey path: {a} -- {b}")


@dataclass(frozen=True)
class PathPair:
    """The pair (P1, P2) representing q/p, with the knot class it came from."""

    p: int
    q: int
    p1: FareyPath
    p2: FareyPath

    @property
    def slope(self) -> Slope:
        return make_slope(self.q, self.p)

    @property
    def pq_positive(self) -> bool:
        return self.q > 0


@dataclass(frozen=True)
class Block:
    """A maximal continued fraction block of one path.

    index: 1-based position among all blocks ordered by distance from q/p.
    side: "P1" or "P2".
    pivot: the common Farey neighbor every vertex of the block shares
      (the canonicalized successive difference).
    in_truncation: False only for the pq < 0 integer run beyond ceil(q/p).
    """

    index: int
    side: str
    vertices: tuple[Slope, ...]
    pivot: Slope
    in_truncation: bool

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    @property
    def far_slope(self) -> Slope:
        return self.vertices[-1]


@dataclass(frozen=True)
class Knot:
    """Everything the decoration classes of (p,q) share: the path pair, its
    blocks in index order, their edge counts e_b (`sizes`), the truncated
    blocks, which come first, and the rotation weights w_b (`weights`, see
    decompose_blocks).  The surgery context is built on first read."""

    pair: PathPair
    blocks: tuple[Block, ...]
    sizes: tuple[int, ...]
    truncated: tuple[Block, ...]
    weights: tuple[int, ...]

    @cached_property
    def context(self):
        from .surgery import _Context

        return _Context(self)


def _validate_knot(p: int, q: int) -> None:
    from math import gcd

    if p <= 1 or abs(q) <= p or gcd(p, abs(q)) != 1:
        raise ValueError(
            f"({p},{q}) is not an admissible torus knot class: need |q| > p > 1 coprime"
        )


def build_pair(p: int, q: int) -> PathPair:
    """Construct the canonical pair of minimal paths representing q/p."""
    _validate_knot(p, q)
    slope = make_slope(q, p)
    exp = cf_expand(slope)

    p1_vertices = [cf_value(exp.digits[:k]) for k in range(len(exp.digits), 0, -1)]
    p1 = FareyPath(tuple(p1_vertices))

    p2_vertices = [slope]
    digits = exp.digits
    if exp.regime == NEGATIVE:
        while p2_vertices[-1] != make_slope(-1, 1):
            digits = cf_step_increment(digits)
            p2_vertices.append(cf_value(digits))
    else:
        ceiling = make_slope(slope.ceil(), 1)
        while p2_vertices[-1] != ceiling:
            digits = cf_step_increment(digits)
            p2_vertices.append(cf_value(digits))
        p2_vertices.append(INFINITY)
    p2 = FareyPath(tuple(p2_vertices))

    p1.validate()
    p2.validate()
    return PathPair(p, q, p1, p2)


def p2_truncated(pair: PathPair) -> FareyPath:
    """P2 up to ceil(q/p); the whole of P2 when pq > 0 or ceil(q/p) = -1."""
    if pair.pq_positive:
        return pair.p2
    ceiling = make_slope(pair.slope.ceil(), 1)
    vertices = []
    for v in pair.p2:
        vertices.append(v)
        if v == ceiling:
            break
    return FareyPath(tuple(vertices))


def _split_blocks(path: FareyPath) -> list[tuple[tuple[Slope, ...], Slope]]:
    """Split a path into maximal runs of edges with equal Farey difference."""
    out: list[tuple[tuple[Slope, ...], Slope]] = []
    verts = path.vertices
    start = 0
    pivots = [make_slope(*raw_diff(b, a)) for a, b in zip(verts, verts[1:])]
    for i in range(1, len(pivots) + 1):
        if i == len(pivots) or pivots[i] != pivots[i - 1]:
            out.append((tuple(verts[start : i + 1]), pivots[start]))
            start = i
    return out


def decompose_blocks(pair: PathPair) -> Knot:
    """Interleaved continued-fraction-block decomposition of (P1, P2), as
    the pair's Knot record; `knot(p, q)` is the cached way to get one.

    The length-1 leading block gets index 1; for the -(2n+1)/2 tie both
    leading blocks have length 1 and P2 goes first (fixed convention).
    The pq < 0 integer run beyond ceil(q/p) is indexed after everything else.
    A block's rotation weight is -dd on P1 and dn on P2, (dn, dd) the
    un-reduced Farey difference its edges share; r_m and r_n are the sums of
    w_b x_b over P1 and P2, so as |x_b| <= e_b auditing sum |w_b| e_b <= p - 1
    on P1 and <= |q| - 1 on P2 bounds them for every class at once.
    """
    trunc = p2_truncated(pair)
    raw1 = _split_blocks(pair.p1)
    raw2_full = _split_blocks(pair.p2)
    n_trunc2 = len(_split_blocks(trunc))
    raw2, suffix = raw2_full[:n_trunc2], raw2_full[n_trunc2:]
    audit(
        sum(len(v) - 1 for v, _ in raw2) == trunc.edges,
        "integer-run suffix merged into a truncated block",
    )

    len1, len2 = len(raw1[0][0]) - 1, len(raw2[0][0]) - 1
    audit(1 in (len1, len2), "neither leading block has length 1")
    if len2 == 1:
        first, second, first_side, second_side = raw2, raw1, "P2", "P1"
    else:
        first, second, first_side, second_side = raw1, raw2, "P1", "P2"
    audit(abs(len(first) - len(second)) <= 1, "truncated block counts differ by more than 1")

    blocks: list[Block] = []
    for k in range(len(first) + len(second)):
        source, side = (first, first_side) if k % 2 == 0 else (second, second_side)
        j = k // 2
        audit(j < len(source), "blocks do not interleave")
        verts, pivot = source[j]
        blocks.append(Block(k + 1, side, verts, pivot, True))
    truncated = tuple(blocks)
    for verts, pivot in suffix:
        blocks.append(Block(len(blocks) + 1, "P2", verts, pivot, False))

    sizes = tuple(len(b.vertices) - 1 for b in blocks)
    weights, reach = [], {"P1": 0, "P2": 0}
    for b, e in zip(blocks, sizes):
        dn, dd = raw_diff(b.vertices[1], b.vertices[0])
        weights.append(-dd if b.side == "P1" else dn)
        reach[b.side] += abs(weights[-1]) * e
    audit(reach["P1"] < pair.p and reach["P2"] < abs(pair.q),
          f"({pair.p},{pair.q}) rotation weights reach {reach}, beyond p - 1 or |q| - 1")
    return Knot(pair, tuple(blocks), sizes, truncated, tuple(weights))


@lru_cache(maxsize=1024)
def knot(p: int, q: int) -> Knot:
    """The cached record of (p,q); raises ValueError for an inadmissible class."""
    return decompose_blocks(build_pair(p, q))


def block_far_slopes(pair: PathPair) -> list[tuple[int, Slope, int]]:
    """(k, s_k, n_k) per truncated block: far slope and |s_k . q/p|."""
    slope = pair.slope
    out = []
    for b in knot(pair.p, pair.q).truncated:
        s = b.far_slope
        out.append((b.index, s, abs(dot(s, slope))))
    return out
