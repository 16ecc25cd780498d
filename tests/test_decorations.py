"""Decoration classes: enumeration, consistency, orbits, counting."""

import itertools
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from nonloose.decorations import (
    DecoratedPathPair,
    _climb,
    count_m,
    count_n,
    count_totally_2_inconsistent,
    decoration_string,
    enumerate_decorations,
    negate,
    orbit_pairs,
    parse_decoration,
    tight_count_lens,
)
from nonloose.paths import build_pair, decompose_blocks
from oracles import (
    compatibility_orbit,
    parse_slope,
    shuffle_down,
    tight_count_solid_torus_lower,
    tight_count_solid_torus_upper,
)


def knot_range(pmax, qmax):
    for p in range(2, pmax + 1):
        for aq in range(p + 1, qmax + 1):
            if gcd(p, aq) == 1:
                yield p, aq
                yield p, -aq


def brute_force_class_count(p, q):
    """Independent oracle: all 2^edges sign tuples, grouped by per-block
    plus counts."""
    blocks = decompose_blocks(build_pair(p, q)).blocks
    sizes = [b.edge_count for b in blocks]
    total_edges = sum(sizes)
    classes = set()
    for signs in itertools.product((0, 1), repeat=total_edges):
        counts = []
        offset = 0
        for e in sizes:
            counts.append(sum(signs[offset : offset + e]))
            offset += e
        classes.add(tuple(counts))
    return len(classes)


def test_enumeration_count_oracle():
    for p, q in [(2, 3), (2, -3), (2, 5), (2, -5), (3, 4), (3, -4), (5, 8), (5, -8)]:
        assert len(enumerate_decorations(p, q)) == brute_force_class_count(p, q)


def test_count_m_golden():
    assert count_m(2, 3) == 6
    assert count_m(5, 8) == 24
    assert count_m(2, -3) == 4
    assert count_m(5, -8) == 12


def test_count_n_golden():
    assert count_n(2, 3) == 2
    assert count_n(5, 8) == 8
    assert count_n(5, -8) == 4


def test_totally_2_inconsistent_golden():
    assert count_totally_2_inconsistent(5, 8) == 8
    assert count_totally_2_inconsistent(2, 3) == 2
    for n in range(1, 8):
        assert count_totally_2_inconsistent(2, 2 * n + 1) == 2
        # every non-loose class of (2,-(2n+1)) is totally 2-inconsistent
        assert count_totally_2_inconsistent(2, -(2 * n + 1)) == 2 * n


def test_counts_exhaustive():
    for p, q in knot_range(7, 40):
        decs = enumerate_decorations(p, q)
        assert len(decs) == count_m(p, q)
        two_inc = [d for d in decs if not d.tight and d.breaking == 2]
        assert len(two_inc) == 2 * count_n(p, q)
        t2 = [d for d in decs if d.totally2]
        assert len(t2) == count_totally_2_inconsistent(p, q)


def test_tight_classes_count():
    # pq < 0: uniformly decorated truncations describe the tight structure
    for p, q in knot_range(7, 30):
        if q > 0:
            continue
        tight = [d for d in enumerate_decorations(p, q) if d.tight]
        assert len(tight) == 2 * abs(-((-q) // p))


def test_solid_torus_counts():
    assert tight_count_solid_torus_upper(parse_slope("-21/8")) == 12
    assert tight_count_solid_torus_lower(parse_slope("7")) == 1
    assert tight_count_solid_torus_upper(parse_slope("-3")) == 3
    assert tight_count_solid_torus_upper(parse_slope("3")) == 2
    assert tight_count_solid_torus_lower(parse_slope("-3")) == 1
    # |Tight(S_inf; q/p)| * |Tight(S^0; q/p)| counts the decoration classes
    for p, q in [(5, 8), (5, -8), (2, -5), (3, 7)]:
        s = parse_slope(f"{q}/{p}")
        assert (
            tight_count_solid_torus_lower(s) * tight_count_solid_torus_upper(s)
            == count_m(p, q)
        )


def test_lens_counts():
    for p, q in [(2, 3), (5, 8), (5, -8), (3, -7), (4, 9)]:
        assert tight_count_lens(p, -q) * tight_count_lens(q, -p) == count_n(p, q)


def test_consistency_golden_58():
    # the worked (5,8) table: consistency degree per decoration
    cases = {
        "P1:-+|P2:+--": 2,  # gives the exceptional orbit bottom
        "P1:+-|P2:++-": 3,
        "P1:--|P2:--+": 4,
        "P1:++|P2:+++": None,  # totally consistent
        "P1:-+|P2:+-+": 2,
        "P1:+-|P2:+++": 3,
        "P1:--|P2:+--": 2,
        "P1:--|P2:+-+": 2,
    }
    for text, degree in cases.items():
        assert parse_decoration(5, 8, text).breaking == degree, text


def test_totally_2_inconsistent_flag():
    flagged = {"P1:+-|P2:--+", "P1:-+|P2:++-", "P1:--|P2:++-", "P1:--|P2:+++",
               "P1:++|P2:---", "P1:++|P2:--+", "P1:-+|P2:+++", "P1:+-|P2:---"}
    got = {decoration_string(d) for d in enumerate_decorations(5, 8) if d.totally2}
    assert got == flagged


def test_orbits_58():
    # the exceptional orbit: 2-, 3-, 4-inconsistent members plus the
    # totally consistent top
    d = parse_decoration(5, 8, "P1:-+|P2:+--")
    orbit = compatibility_orbit(d)
    assert [decoration_string(m) for m in orbit] == [
        "P1:-+|P2:+--", "P1:+-|P2:++-", "P1:--|P2:--+", "P1:++|P2:+++",
    ]
    # the neighbor structure pairs a 2- and a 3-inconsistent member
    d = parse_decoration(5, 8, "P1:-+|P2:+-+")
    orbit = compatibility_orbit(d)
    assert [decoration_string(m) for m in orbit] == ["P1:-+|P2:+-+", "P1:+-|P2:+++"]
    # totally 2-inconsistent classes sit alone
    d = parse_decoration(5, 8, "P1:+-|P2:--+")
    assert compatibility_orbit(d) == [d]


def test_orbits_5m8():
    d = parse_decoration(5, -8, "P1:+-|P2:+-")
    orbit = compatibility_orbit(d)
    assert [decoration_string(m) for m in orbit] == ["P1:+-|P2:+-", "P1:--|P2:-+"]


def test_orbit_partition():
    for p, q in [(5, 8), (5, -8), (2, -7), (3, 5), (4, 7), (3, -8)]:
        decs = [d for d in enumerate_decorations(p, q) if not d.tight]
        seen: dict = {}
        for d in decs:
            orbit = compatibility_orbit(d)
            ks = []
            for m in orbit:
                ks.append(m.breaking or 0)
                key = tuple(orbit[0].plus_counts)
                prev = seen.setdefault(m.plus_counts, key)
                assert prev == key, "orbits must be disjoint"
            inc = sorted(k for k in ks if k)
            assert inc == list(range(2, 2 + len(inc))), "one member per degree"
        # negation maps orbits to orbits
        for d in decs:
            mirrored = [negate(m).plus_counts for m in compatibility_orbit(d)]
            assert set(mirrored) == {
                m.plus_counts for m in compatibility_orbit(negate(d))
            }


def grouped_orbit_pairs(p, q):
    """Oracle for orbit_pairs: walk every class, take the compatibility orbit
    of each one not yet seen, and pair each orbit with its mirror's orbit."""
    orbit_of, key_of = {}, {}
    for d in enumerate_decorations(p, q):
        if d.tight or d.plus_counts in key_of:
            continue
        orbit = compatibility_orbit(d)
        key = orbit[0].plus_counts
        for m in orbit:
            key_of[m.plus_counts] = key
        orbit_of[key] = orbit
    pairs, seen = [], set()
    for key, orbit in orbit_of.items():
        if key in seen:
            continue
        mirror_key = key_of[negate(orbit[0]).plus_counts]
        seen.update({key, mirror_key})
        pairs.append((orbit, orbit_of[mirror_key]))
    return pairs


def paired_orbits(p, q):
    """orbit_pairs as (orbit, mirror) pairs in their order, each mirror
    orbit built by negating the climbed one."""
    pairs = []
    for orbit, mirror_first in orbit_pairs(p, q):
        mirror = [negate(m) for m in orbit]
        pairs.append((mirror, orbit) if mirror_first else (orbit, mirror))
    return pairs


def test_orbit_pairs_match_grouping_on_sweep():
    # same pairs, same orientation, same member order on p <= 39, |q| <= 40
    for p, q in knot_range(39, 40):
        assert paired_orbits(p, q) == grouped_orbit_pairs(p, q), (p, q)


@st.composite
def _class_outside_sweep(draw, qmax=400):
    aq = draw(st.integers(41, qmax))
    p = draw(st.integers(2, aq - 1).filter(lambda p: gcd(p, aq) == 1))
    q = draw(st.sampled_from((aq, -aq)))
    assume(count_m(p, q) <= 2000)
    return p, q


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_class_outside_sweep())
def test_orbit_pairs_match_grouping_outside_sweep(pq):
    assert paired_orbits(*pq) == grouped_orbit_pairs(*pq)


def test_climb_steps_shuffle_back_down():
    # the round trip the climb no longer runs: every step of every orbit
    # comes back under shuffle_down (the pq > 0 top included)
    steps = 0
    for p, q in knot_range(39, 40):
        for pair in paired_orbits(p, q):
            for orbit in pair:
                for child, parent in zip(orbit, orbit[1:]):
                    assert shuffle_down(parent) == child, (p, q, child)
                    steps += 1
    assert steps == 9942


def test_mirror_strings_match_negated_members(sweep_atlases):
    # classify writes each mirror member's string from its plus counts
    # e_b - c_b; on the p <= 39, |q| <= 40 sweep every structure's orbit
    # strings equal those of the negated classes, in the old pair order
    for (p, q), atlas in sweep_atlases.items():
        expected = {
            tuple(decoration_string(m) for m in first + second)
            for first, second in paired_orbits(p, q)
        }
        assert {st.orbits for st in atlas.structures} == expected, (p, q)


def _check_climb_commutes_with_negate(p, q):
    # orbit_pairs climbs one orbit of each pair and negates it for the other
    # one; climbing the negated root itself must give the same members
    for pair in paired_orbits(p, q):
        for orbit in pair:
            assert _climb(orbit[0]) == orbit, (p, q, orbit[0])
            assert _climb(negate(orbit[0])) == [negate(m) for m in orbit], (p, q, orbit[0])


def test_climb_commutes_with_negate_on_sweep():
    for p, q in knot_range(39, 40):
        _check_climb_commutes_with_negate(p, q)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_class_outside_sweep(120))
def test_climb_commutes_with_negate_outside_sweep(pq):
    _check_climb_commutes_with_negate(*pq)


def test_block_record_matches_edge_expansion():
    # x_b, the block signs, the breaking index and tightness against the
    # per-edge signs of each block, read off the decoration string, on the
    # p <= 39, |q| <= 40 sweep
    for p, q in knot_range(39, 40):
        blocks = decompose_blocks(build_pair(p, q)).blocks
        for d in enumerate_decorations(p, q):
            sides = dict(chunk.split(":") for chunk in decoration_string(d).split("|"))
            offsets = {"P1": 0, "P2": 0}
            xs, signs = [], []
            # edge signs seen in blocks 1..b, and in the truncated blocks
            seen, truncated, breaking = set(), set(), None
            for b in blocks:
                start = offsets[b.side]
                chunk = sides[b.side][start : start + b.edge_count]
                edges = [1 if ch == "+" else -1 for ch in chunk]
                offsets[b.side] += b.edge_count
                xs.append(sum(edges))
                signs.append(edges[0] if len(set(edges)) == 1 else 0)
                seen.update(edges)
                if breaking is None and len(seen) > 1:
                    breaking = b.index
                if b.in_truncation:
                    truncated.update(edges)
            assert d.signed_counts == tuple(xs), (p, q, d)
            assert d.block_signs == tuple(signs), (p, q, d)
            assert d.breaking == breaking, (p, q, d)
            assert d.tight == (q < 0 and len(truncated) == 1), (p, q, d)


def test_malformed_class_rejected_at_construction():
    # (5,8) has four blocks with e = (1, 2, 1, 1)
    for counts in ((9,) * 6, (0,), (1, 2, 1)):
        with pytest.raises(ValueError, match="has 4 blocks"):
            DecoratedPathPair(5, 8, counts)
    for counts in ((9,) * 4, (1, 3, 1, 1), (0, -1, 0, 0)):
        with pytest.raises(ValueError, match="outside"):
            DecoratedPathPair(5, 8, counts)
    DecoratedPathPair(5, 8, (1, 2, 1, 1))


def test_list_plus_counts_give_the_tuple_class():
    d = DecoratedPathPair(5, 8, [0, 1, 0, 1])
    assert d.plus_counts == (0, 1, 0, 1)
    assert d == DecoratedPathPair(5, 8, (0, 1, 0, 1))
    assert hash(d) == hash(DecoratedPathPair(5, 8, (0, 1, 0, 1)))


def test_decoration_parse_roundtrip():
    for p, q in [(5, 8), (5, -8), (2, -5)]:
        for d in enumerate_decorations(p, q):
            assert parse_decoration(p, q, decoration_string(d)) == d
    with pytest.raises(ValueError):
        parse_decoration(5, 8, "P1:++|P2:+")
    with pytest.raises(ValueError):
        parse_decoration(5, 8, "nonsense")


def test_nonloose_decorations_2_minus_odd():
    # 2n non-loose classes, all totally 2-inconsistent
    for n in (1, 2, 3, 4):
        q = -(2 * n + 1)
        decs = [d for d in enumerate_decorations(2, q) if not d.tight]
        assert len(decs) == 2 * n
        assert all(d.totally2 for d in decs)
