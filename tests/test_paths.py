"""Path pairs, blocks, truncation, shortening."""

import itertools
from dataclasses import FrozenInstanceError
from math import gcd

import pytest

from nonloose import atlas
from nonloose.decorations import DecoratedPathPair, class_counts
from nonloose.farey import InvariantError, dot, is_edge
from nonloose.paths import (
    PathPair,
    block_far_slopes,
    build_pair,
    decompose_blocks,
    knot,
    p2_truncated,
)
from nonloose.surgery import knot_surgery_context
from oracles import parse_slope


def verts(path):
    return [str(v) for v in path]


def test_build_pair_golden():
    pair = build_pair(5, 8)
    assert verts(pair.p1) == ["8/5", "3/2", "1"]
    assert verts(pair.p2) == ["8/5", "5/3", "2", "inf"]

    pair = build_pair(5, -8)
    assert verts(pair.p1) == ["-8/5", "-5/3", "-2"]
    assert verts(pair.p2) == ["-8/5", "-3/2", "-1"]

    for n in range(1, 6):
        pair = build_pair(2, -(2 * n + 1))
        assert verts(pair.p1) == [f"-{2*n+1}/2", str(-n - 1)]
        assert verts(pair.p2) == [f"-{2*n+1}/2"] + [str(k) for k in range(-n, 0)]


def test_build_pair_rejects_bad_input():
    for p, q in [(1, 5), (0, 3), (2, 2), (2, 4), (3, -3), (5, 3)]:
        with pytest.raises(ValueError):
            build_pair(p, q)


def test_truncate_p2():
    assert verts(p2_truncated(build_pair(8, -21))) == ["-21/8", "-13/5", "-5/2", "-2"]
    assert verts(p2_truncated(build_pair(2, -3))) == ["-3/2", "-1"]
    assert verts(p2_truncated(build_pair(5, -8))) == ["-8/5", "-3/2", "-1"]
    # the truncation is the identity for pq > 0
    assert p2_truncated(build_pair(5, 8)) == build_pair(5, 8).p2


def test_blocks_golden():
    dec = decompose_blocks(build_pair(8, -21))
    data = [(b.index, b.side, verts_of(b)) for b in dec.blocks]
    assert data == [
        (1, "P1", ["-21/8", "-8/3"]),
        (2, "P2", ["-21/8", "-13/5", "-5/2"]),
        (3, "P1", ["-8/3", "-3"]),
        (4, "P2", ["-5/2", "-2"]),
        (5, "P2", ["-2", "-1"]),
    ]
    assert [b.in_truncation for b in dec.blocks] == [True, True, True, True, False]

    dec = decompose_blocks(build_pair(5, 8))
    assert [(b.index, b.side, verts_of(b)) for b in dec.blocks] == [
        (1, "P1", ["8/5", "3/2"]),
        (2, "P2", ["8/5", "5/3", "2"]),
        (3, "P1", ["3/2", "1"]),
        (4, "P2", ["2", "inf"]),
    ]

    dec = decompose_blocks(build_pair(5, -8))
    assert [(b.index, b.side, verts_of(b)) for b in dec.blocks] == [
        (1, "P2", ["-8/5", "-3/2"]),
        (2, "P1", ["-8/5", "-5/3", "-2"]),
        (3, "P2", ["-3/2", "-1"]),
    ]


def verts_of(block):
    return [str(v) for v in block.vertices]


def test_leading_block_lengths():
    # exactly one leading block of length one, except -(2n+1)/2 with both
    for p in range(2, 10):
        for aq in range(p + 1, 31):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                blocks = decompose_blocks(build_pair(p, q)).blocks
                lead = [b.edge_count for b in blocks[:2]]
                tie = p == 2 and q < 0
                assert lead[0] == 1
                if len(lead) > 1:
                    assert (lead[1] == 1) == tie


def test_path_minimality_exhaustive():
    for p in range(2, 10):
        for aq in range(p + 1, 61):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                pair = build_pair(p, q)
                for path in (pair.p1, pair.p2):
                    vs = path.vertices
                    assert all(is_edge(a, b) for a, b in zip(vs, vs[1:]))
                    for i in range(1, len(vs) - 1):
                        assert abs(dot(vs[i - 1], vs[i + 1])) != 1


def test_block_counts_interleave():
    for p in range(2, 10):
        for aq in range(p + 1, 41):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                dec = decompose_blocks(build_pair(p, q))
                trunc = dec.truncated
                sides = [b.side for b in trunc]
                assert all(a != b for a, b in zip(sides, sides[1:]))
                counts = {"P1": sides.count("P1"), "P2": sides.count("P2")}
                assert abs(counts["P1"] - counts["P2"]) <= 1
                if q > 0:
                    # the outermost truncated block carries the edge to infinity
                    assert trunc[-1].side == "P2"


def test_far_slopes_golden():
    fars = block_far_slopes(build_pair(5, 8))
    assert [(k, str(s), n) for k, s, n in fars] == [
        (1, "3/2", 1), (2, "2", 2), (3, "1", 3), (4, "inf", 5),
    ]
    fars = block_far_slopes(build_pair(2, -5))
    assert [n for _, _, n in fars] == [1, 1]
    fars = block_far_slopes(build_pair(5, -8))
    assert [n for _, _, n in fars] == [1, 2, 3]


def test_far_slopes_increase():
    for p in range(2, 9):
        for aq in range(p + 1, 41):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                ns = [n for _, _, n in block_far_slopes(build_pair(p, q))]
                assert ns[0] == 1
                tie = p == 2 and q < 0
                rest = ns if not tie else ns[1:]
                assert all(a < b for a, b in zip(rest, rest[1:]))


# Shortening a signed Farey path to a minimal one: the direct definition of
# tightness on a path, checked here against an exhaustive search.
OVERTWISTED = "OVERTWISTED"


def shorten(vertices, signs, anchor: int = 0):
    """Shorten a signed Farey path to a minimal one, merging edge pairs.

    A vertex whose neighbors span an edge can be removed when its two edges
    carry the same sign (the merged edge keeps it).  If the only removable
    vertices have opposite-signed edges, the decorated path is not tight:
    returns OVERTWISTED.  Otherwise returns the minimal (vertices, signs).

    Removable vertices are tried in order of distance from ``anchor`` (the
    position of q/p in the concatenations this is used on, where the order
    is in fact forced).
    """
    vertices = tuple(vertices)
    signs = tuple(signs)
    if len(vertices) != len(signs) + 1:
        raise ValueError("need one sign per edge")

    def removable(verts):
        out = []
        for i in range(1, len(verts) - 1):
            if verts[i - 1] != verts[i + 1] and is_edge(verts[i - 1], verts[i + 1]):
                out.append(i)
        return out

    seen: set[tuple] = set()

    def search(verts, sgns, anch):
        candidates = removable(verts)
        if not candidates:
            return verts, sgns
        key = (verts, sgns)
        if key in seen:
            return None
        seen.add(key)
        candidates.sort(key=lambda i: (abs(i - anch), i))
        for i in candidates:
            if sgns[i - 1] != sgns[i]:
                continue
            new_verts = verts[:i] + verts[i + 1 :]
            new_sgns = sgns[: i - 1] + (sgns[i - 1],) + sgns[i + 1 :]
            got = search(new_verts, new_sgns, anch if i > anch else anch - 1)
            if got is not None:
                return got
        return None

    result = search(vertices, signs, anchor)
    return OVERTWISTED if result is None else result


def brute_force_shorten(vertices, signs):
    """Try every removal order; return the set of reachable terminal states."""
    vertices, signs = tuple(vertices), tuple(signs)
    removable = [
        i
        for i in range(1, len(vertices) - 1)
        if vertices[i - 1] != vertices[i + 1] and is_edge(vertices[i - 1], vertices[i + 1])
    ]
    if not removable:
        return {(vertices, signs)}
    out = set()
    for i in removable:
        if signs[i - 1] != signs[i]:
            continue
        nv = vertices[:i] + vertices[i + 1 :]
        ns = signs[: i - 1] + (signs[i - 1],) + signs[i + 1 :]
        out |= brute_force_shorten(nv, ns)
    return out or {OVERTWISTED}


def test_shorten_uniform_signs_gives_single_edge():
    for p, q in [(2, -3), (2, -5), (5, -8), (8, -21), (3, -7)]:
        for sign in (+1, -1):
            pair = build_pair(p, q)
            left = list(pair.p1.vertices)[::-1]
            right = list(p2_truncated(pair).vertices)
            vertices = left + right[1:]
            signs = tuple(sign for _ in range(len(vertices) - 1))
            got = shorten(vertices, signs, anchor=len(left) - 1)
            assert got != OVERTWISTED
            vs, ss = got
            floor = pair.slope.num // pair.slope.den
            ceil = pair.slope.ceil()
            assert [str(v) for v in vs] == [str(floor), str(ceil)]
            assert ss == (sign,)


def test_shorten_opposite_signs_overtwisted():
    a, b, c = parse_slope("-3"), parse_slope("-5/2"), parse_slope("-2")
    assert is_edge(a, c)
    assert shorten((a, b, c), (+1, -1)) == OVERTWISTED
    assert shorten((a, b, c), (-1, +1)) == OVERTWISTED
    assert shorten((a, b, c), (+1, +1)) == ((a, c), (+1,))


def test_shorten_minimal_is_identity():
    pair = build_pair(5, -8)
    vs = pair.p1.vertices
    got = shorten(vs, (+1, -1))
    assert got == (vs, (+1, -1))


def test_shorten_matches_brute_force():
    for p, q in [(2, -5), (3, -5), (5, -8), (2, -7)]:
        pair = build_pair(p, q)
        left = list(pair.p1.vertices)[::-1]
        right = list(p2_truncated(pair).vertices)
        vertices = tuple(left + right[1:])
        edges = len(vertices) - 1
        for signs in itertools.product((+1, -1), repeat=edges):
            got = shorten(vertices, signs, anchor=len(left) - 1)
            outcomes = brute_force_shorten(vertices, signs)
            if got == OVERTWISTED:
                assert outcomes == {OVERTWISTED}
            else:
                assert got in outcomes


def test_knot_record_cached_bounded_and_frozen():
    assert knot(5, 8) is knot(5, 8)
    assert knot(5, 8) == decompose_blocks(build_pair(5, 8))
    assert knot_surgery_context(5, 8) is knot(5, 8).context
    for cache in (knot, class_counts, atlas._classify_cached):
        assert cache.cache_info().maxsize is not None
    d = DecoratedPathPair(5, 8, (0, 1, 0, 0))
    assert d.knot is knot(5, 8)
    for record, name in ((knot(5, 8), "sizes"), (knot(5, 8), "context"),
                         (d, "plus_counts"), (d, "breaking")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)


def test_block_extension_audited_per_knot():
    # (5,8)'s P1 beside the trefoil's P2 passes the other audits of the
    # decomposition, but block 3 does not extend across block 2, so no sign
    # could shuffle between them: decompose_blocks refuses the knot, also
    # with asserts stripped
    import subprocess
    import sys

    with pytest.raises(InvariantError, match="^\\(5,8\\) block 3 does not extend across block 2$"):
        decompose_blocks(PathPair(5, 8, build_pair(5, 8).p1, build_pair(2, 3).p2))
    code = (
        "from nonloose.paths import PathPair, build_pair, decompose_blocks; "
        "decompose_blocks(PathPair(5, 8, build_pair(5, 8).p1, build_pair(2, 3).p2))"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines()[-1] == (
        "nonloose.farey.InvariantError: (5,8) block 3 does not extend across block 2"
    )
