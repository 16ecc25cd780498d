"""Atlas assembly: structures, families, transverse quotient, ranges."""

import copy
import json
import pickle
import subprocess
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as hst

from nonloose.atlas import (
    PointInfo,
    _lines,
    classify,
    default_window,
    mountain_range,
)
from nonloose.cli import main
from nonloose.decorations import count_m, parse_decoration
from nonloose.farey import InvariantError, cf_expand
from nonloose.invariants import half_lutz_d3, rotation_data
from nonloose.paths import Knot, knot
from nonloose.surgery import compile_diagram, knot_surgery_context
from nonloose.serialize import atlas_from_dict, atlas_to_dict
from oracles import mirror_string, negate, orbit_pairs


def structure_map(atlas):
    out = {}
    for st in atlas.structures:
        out.setdefault(st.d3, []).append(st)
    return out


def transverse_map(atlas):
    out = {}
    for entry in atlas.transverse:
        out.setdefault(entry.d3, []).append(entry)
    return out


def leg_laws(st):
    """(slope, intercept) of the base legs (threshold splits deduplicated)."""
    return sorted(
        {
            (f.rot_slope, f.rot_intercept)
            for f in st.families
            if f.kind in ("x_leg_plus", "x_leg_minus")
        }
    )


def test_structure_sets_58():
    atlas = classify(5, 8)
    assert sorted(structure_map(atlas)) == [
        -27, -19, -15, -9, -8, -7, -4, -3, -2, -1, 0, 1,
    ]
    assert atlas.counts == {"m": 24, "n": 8, "totally2": 8}


def test_structure_sets_5m8():
    atlas = classify(5, -8)
    assert sorted(structure_map(atlas)) == [1, 2, 7, 8, 14, 28]


def test_xi1_58():
    (xi1,) = classify(5, 8).structures_at(1)
    assert xi1.exceptional
    vertex = [f for f in xi1.families if f.kind == "v_vertex"]
    assert len(vertex) == 1 and (vertex[0].rot_at_tbmax, vertex[0].tb_max) == (0, 29)
    peaks = sorted(
        f.rot_at_tbmax for f in xi1.families if f.kind == "diamond_peak"
    )
    assert peaks == [-9, -7, -3, 3, 7, 9]
    assert all(
        f.tb_max == 40 for f in xi1.families if f.kind == "diamond_peak"
    )
    # merge offsets: 11 -> 9 -> 7 -> 3
    assert [w[3] for w in xi1.wing_data] == [2, 2, 4]


def test_xi_minus1_58():
    (st,) = classify(5, 8).structures_at(-1)
    # X legs rot = -/+(i - 19); wing peaks -/+19 at tb = 40 descending as
    # -/+(i - 21), one minus-stabilization from the X legs
    assert leg_laws(st) == [(-1, 19), (1, -19)]
    wings = [f for f in st.families if f.kind == "wing_peak"]
    assert sorted(f.rot_at_tbmax for f in wings) == [-19, 19]
    assert {f.rot_intercept * f.rot_slope for f in wings} == {-21}
    assert st.wing_data == ((3, 19, 2, 2),)


def test_torsion_structures_58():
    atlas = classify(5, 8, max_torsion2=4)
    for d3v, crossing in ((-9, -1), (-15, -11), (-19, -17), (-27, -27)):
        (st,) = atlas.structures_at(d3v)
        assert leg_laws(st) == [(-1, crossing), (1, -crossing)]
        levels = sorted({f.torsion2 for f in st.families})
        if d3v == -27:
            assert levels == [0, 1, 2, 3, 4, 5]
        else:
            assert levels == [0, 2, 4]
    # half Lutz twists land at the self-linking shifted d3
    for d3v, crossing in ((-8, 1), (-4, 11), (-2, 17), (0, 27)):
        (st,) = atlas.structures_at(d3v)
        assert st.half_integer_torsion
        assert leg_laws(st) == [(-1, crossing), (1, -crossing)]


def test_special_class_thresholds_58():
    # the d3 = -27 structure (P1 one sign, P2 the other) jumps torsion by a
    # half at and below tb = pq - p - q = 27
    (st,) = classify(5, 8, max_torsion2=2).structures_at(-27)
    lo = [f for f in st.families if f.tb_max == 27]
    hi = [f for f in st.families if f.tb_min == 28]
    assert lo and hi
    assert {f.torsion2 for f in lo} == {1, 3}
    assert {f.torsion2 for f in hi} == {0, 2}
    (st0,) = classify(5, 8, max_torsion2=2).structures_at(0)
    assert {f.torsion2 for f in st0.families if f.tb_max == 27} == {2}
    assert {f.torsion2 for f in st0.families if f.tb_min == 28} == {1}


def test_exceptional_5m8():
    (st,) = classify(5, -8).structures_at(28)
    assert st.exceptional
    les = [f for f in st.families if f.kind == "extra_Le"]
    assert len(les) == 1 and (les[0].rot_at_tbmax, les[0].tb_max) == (0, 27)
    assert leg_laws(st) == [(-1, 27), (1, -27)]
    assert les[0].stab_plus == "becomes:x+" and les[0].stab_minus == "becomes:x-"


def test_wings_5m8():
    (st,) = classify(5, -8).structures_at(2)
    assert leg_laws(st) == [(-1, -25), (1, 25)]
    wings = [f for f in st.families if f.kind == "wing_peak"]
    assert {f.rot_intercept for f in wings if f.rot_slope == -1} == {-23}
    assert st.wing_data == ((3, 17, 2, 2),)
    assert all(f.tb_max == -40 for f in wings)


def test_2n_plus_1_family():
    for n in range(1, 6):
        q = 2 * n + 1
        atlas = classify(2, q)
        assert sorted(structure_map(atlas)) == sorted([1, 0, 1 - 2 * n])
        (xi1,) = atlas.structures_at(1)
        vertex = [f for f in xi1.families if f.kind == "v_vertex"][0]
        assert (vertex.rot_at_tbmax, vertex.tb_max) == (0, q)
        peaks = sorted(f.rot_at_tbmax for f in xi1.families if f.kind == "diamond_peak")
        assert peaks == [-(2 * n - 1), 2 * n - 1]
        (low,) = atlas.structures_at(1 - 2 * n)
        assert leg_laws(low) == [(-1, -(2 * n - 1)), (1, 2 * n - 1)]
        (zero,) = atlas.structures_at(0)
        assert zero.half_integer_torsion
        assert leg_laws(zero) == [(-1, 2 * n - 1), (1, -(2 * n - 1))]


def test_2n_minus_1_family():
    for n in range(1, 6):
        q = -(2 * n + 1)
        atlas = classify(2, q)
        expected = sorted(
            {n + l + 1 for l in range(-n + 1, n, 2)}
            | {n - l for l in range(-n + 1, n, 2)}
        )
        assert sorted(structure_map(atlas)) == expected
        (exc,) = atlas.structures_at(2 * n)
        assert exc.exceptional
        le = [f for f in exc.families if f.kind == "extra_Le"][0]
        assert (le.rot_at_tbmax, le.tb_max) == (0, 2 * n - 1)
        for l in range(-n + 1, n, 2):
            (st,) = [
                s for s in atlas.structures_at(n + l + 1) if not s.half_integer_torsion
            ]
            assert leg_laws(st) == [(-1, 2 * l + 1), (1, -(2 * l + 1))]
            (half,) = [
                s for s in atlas.structures_at(n - l) if s.half_integer_torsion
            ]
            assert leg_laws(half) == [(-1, -(2 * l + 1)), (1, 2 * l + 1)]


def test_transverse_58():
    trans = transverse_map(classify(5, 8, max_torsion2=2))
    assert sorted(trans) == [-27, -19, -15, -9, -8, -7, -4, -3, -2, -1, 0]
    ((xi_m1,),) = (trans[-1],)
    assert [(c.sl, c.torsion2, c.next) for c in xi_m1.classes] == [
        (21, 0, 1), (19, 0, None),
    ]
    ((xi_m3,),) = (trans[-3],)
    assert [(c.sl, c.torsion2) for c in xi_m3.classes] == [(13, 0)]
    ((xi_m9,),) = (trans[-9],)
    assert [(c.sl, c.torsion2) for c in xi_m9.classes] == [(-1, 0), (-1, 2)]
    ((xi_m27,),) = (trans[-27],)
    assert [(c.sl, c.torsion2) for c in xi_m27.classes] == [(-27, 1)]
    ((xi_0,),) = (trans[0],)
    assert [(c.sl, c.torsion2) for c in xi_0.classes] == [(27, 2)]
    assert 1 not in trans  # no non-loose transverse representatives in xi_1


def test_transverse_5m8():
    trans = transverse_map(classify(5, -8, max_torsion2=2))
    assert sorted(trans) == [1, 2, 7, 8, 14, 28]
    ((xi2,),) = (trans[2],)
    assert [(c.sl, c.next) for c in xi2.classes] == [(-23, 1), (-25, None)]
    ((xi8,),) = (trans[8],)
    assert [(c.sl, c.torsion2) for c in xi8.classes] == [(-5, 0)]
    ((xi28,),) = (trans[28],)
    assert [(c.sl, c.torsion2) for c in xi28.classes] == [(27, 0), (27, 2)]
    ((xi1,),) = (trans[1],)
    assert [(c.sl, c.torsion2) for c in xi1.classes] == [(-27, 1)]


def test_trefoil_spot_checks():
    rht = classify(2, 3)
    assert sorted(structure_map(rht)) == [-1, 0, 1]
    # four tor = 0 knots at tb = 7: rot -/+4 in xi_1 and -/+8 in xi_-1
    (xi1,) = rht.structures_at(1)
    legs = [f for f in xi1.families if f.kind in ("v_leg_plus", "v_leg_minus")]
    assert sorted(f.rot_at(7) for f in legs) == [-4, 4]
    (xim1,) = rht.structures_at(-1)
    base = [
        f for f in xim1.families
        if f.kind in ("x_leg_plus", "x_leg_minus") and f.covers(7)
    ]
    assert sorted(f.rot_at(7) for f in base) == [-8, 8]
    lht = classify(2, -3)
    tor0 = [
        st.d3
        for st in lht.structures
        if any(f.torsion2 == 0 for f in st.families)
    ]
    assert tor0 == [2]


def test_mountain_range_trefoil():
    atlas = classify(2, -3, max_torsion2=2)
    mr = mountain_range(atlas, 2, (-2, 3))
    info = mr.points[(0, 1)]
    assert info.count == 3 and info.extra and info.tower
    assert mr.points[(1, 2)].count == 1
    assert (0, 2) not in mr.points
    with pytest.raises(ValueError):
        mountain_range(atlas, 5)


def test_mountain_range_58_xi1():
    atlas = classify(5, 8)
    mr = mountain_range(atlas, 1, (27, 42))
    assert sorted(r for (r, t) in mr.points if t == 40) == [
        -11, -9, -7, -3, 3, 7, 9, 11,
    ]
    assert sorted(r for (r, t) in mr.points if t == 29) == [0]
    assert sorted(r for (r, t) in mr.points if t == 39) == [
        -10, -8, -6, -4, -2, 2, 4, 6, 8, 10,
    ]
    assert all(info.count == 1 for info in mr.points.values())
    assert sorted(r for (r, t) in mr.points if t == 41) == [-12, 12]


def test_mountain_range_58_xi_minus1():
    atlas = classify(5, 8)
    mr = mountain_range(atlas, -1, (15, 42))
    assert sorted(r for (r, t) in mr.points if t == 40) == [-21, -19, 19, 21]
    doubles = sorted(k for k, v in mr.points.items() if v.count == 2)
    assert doubles == [(-1, 20), (0, 19), (0, 21), (1, 20)]


def test_default_window_contains_anchors():
    atlas = classify(5, -8)
    lo, hi = default_window(atlas, 28)
    assert lo <= -40 and hi >= 27 + 5
    lo, hi = default_window(classify(5, 8), 1)
    assert lo <= 29 and hi >= 40


def test_parity_and_counts_sweep():
    for p in range(2, 6):
        for aq in range(p + 1, 14):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                atlas = classify(p, q, max_torsion2=2)
                expected = atlas.counts["n"] + atlas.counts["totally2"] // 2
                assert len(atlas.structures) == expected
                excs = [s for s in atlas.structures if s.exceptional]
                assert len(excs) == (1 if q < 0 else 1)


ONE_D3 = """
from dataclasses import replace

import nonloose.atlas as atlas

x_structure, integer_d3 = atlas._x_structure, []


def one_d3(*args):
    # the second integer-torsion structure reports the first one's d3, which
    # keeps the d3 parity law
    st, tr = x_structure(*args)
    if not st.half_integer_torsion:
        integer_d3.append(st.d3)
        if len(integer_d3) == 2:
            st, tr = replace(st, d3=integer_d3[0]), replace(tr, d3=integer_d3[0])
    return st, tr
"""

ONE_D3_UNDER_OPTIMIZE = ONE_D3 + """
from nonloose.farey import InvariantError

atlas._x_structure = one_d3
try:
    atlas._classify_cached.__wrapped__(5, 8, 2)
except InvariantError as exc:
    print(exc)
"""


def test_two_structures_with_one_d3_refused(monkeypatch):
    # an overtwisted structure on S^3 is determined by its d3 (Eliashberg),
    # so an assembly that reports two mountain ranges with one d3 is an
    # engine fault, refused also under python -O
    import nonloose.atlas as atlas

    scope = {}
    exec(ONE_D3, scope)
    monkeypatch.setattr(atlas, "_x_structure", scope["one_d3"])
    with pytest.raises(InvariantError, match="^each d3 carries one structure$"):
        atlas._classify_cached.__wrapped__(5, 8, 2)
    proc = subprocess.run([sys.executable, "-O", "-c", ONE_D3_UNDER_OPTIMIZE],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "each d3 carries one structure\n"


def test_cached_counts_read_only():
    # classify hands out its cached atlas: a caller's write must not reach
    # later calls
    atlas = classify(5, 8)
    with pytest.raises(TypeError):
        atlas.counts["n"] = -1
    assert classify(5, 8).counts["n"] == 8
    with pytest.raises(TypeError):
        atlas_from_dict(atlas_to_dict(atlas)).counts["n"] = -1


def test_classify_cache_holds_the_repeat_traffic():
    # the cache keeps 128 atlases: verify's 72 default classes, which
    # check_structural and then check_atlas walk at t = 2, are the same
    # objects on the second walk; a walk over 144 distinct classes fills it
    # to its bound and no further
    from nonloose.atlas import _classify_cached
    from nonloose.checks import knot_classes

    assert _classify_cached.cache_info().maxsize == 128
    default = list(knot_classes(7, 14))
    first = [classify(p, q, 2) for p, q in default]
    assert len(default) == 72
    assert all(classify(p, q, 2) is atlas for (p, q), atlas in zip(default, first))
    for t in (0, 1):
        for p, q in default:
            classify(p, q, t)
    assert _classify_cached.cache_info().currsize == 128


@pytest.mark.parametrize("proto", [*range(pickle.HIGHEST_PROTOCOL + 1), "deepcopy"])
def test_atlas_pickles_and_deep_copies(proto):
    # an atlas can cross a process boundary; its copy's counts stay read-only
    for p, q in ((5, 8), (5, -8), (2, -3)):
        atlas = classify(p, q)
        if proto == "deepcopy":
            twin = copy.deepcopy(atlas)
        else:
            twin = pickle.loads(pickle.dumps(atlas, proto))
        assert twin == atlas and twin is not atlas
        assert atlas_to_dict(twin) == atlas_to_dict(atlas)
        with pytest.raises(TypeError):
            twin.counts["n"] = -1
        assert twin.counts == atlas.counts


def _records(obj, out):
    """Every dataclass record reachable from obj through fields, tuples and
    mappings, by id."""
    if is_dataclass(obj) and not isinstance(obj, type):
        if id(obj) not in out:
            out[id(obj)] = obj
            for f in fields(obj):
                _records(getattr(obj, f.name), out)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _records(item, out)
    elif isinstance(obj, Mapping):
        for item in obj.values():
            _records(item, out)


def test_cached_records_are_slotted():
    # the records classify builds and the caches keep carry no per-instance
    # dict, stay frozen, and still replace and print as plain dataclasses
    atlas = classify(5, 8)
    orbit, _ = orbit_pairs(5, 8)[0]
    d = orbit[0]
    roots = (
        atlas, knot(5, 8), orbit, compile_diagram(d),
        rotation_data(d), cf_expand(knot(5, 8).pair.slope),
        mountain_range(atlas, 1).points,
    )
    found = {}
    _records(roots, found)
    records = [r for r in found.values() if not isinstance(r, Knot)]
    assert {type(r).__name__ for r in records} == {
        "Atlas", "Structure", "KnotFamilyRecord", "TransverseEntry", "TransverseClass",
        "PointInfo", "PathPair", "FareyPath", "Block", "Slope", "CFExpansion",
        "DecoratedPathPair", "SurgeryDiagram", "Component",
        "RotationData",
    }
    for r in records:
        assert not hasattr(r, "__dict__"), type(r)
        with pytest.raises(FrozenInstanceError):
            setattr(r, fields(r)[0].name, None)
    fam = atlas.structures[0].families[0]
    assert repr(fam) == (
        "KnotFamilyRecord(id='vx', kind='v_vertex', tb_max=29, tb_min=29, "
        "rot_at_tbmax=0, rot_slope=0, rot_intercept=0, torsion2=0, "
        "stab_plus='loose', stab_minus='loose', merge_offsets=())"
    )
    assert replace(fam, tb_max=30).tb_max == 30 and fam.tb_max == 29
    # replace reruns __post_init__, which writes the derived fields
    flipped = replace(d, plus_counts=orbit[-1].plus_counts)
    assert flipped == orbit[-1] and flipped.signed_counts == orbit[-1].signed_counts


def test_max_torsion2_edge_values():
    for mt in (0, 1, 2):
        atlas = classify(5, 8, mt)
        assert len(atlas.structures) == 12
        for st in atlas.structures:
            if st.half_integer_torsion:
                assert any(f.torsion2 == 1 for f in st.families)
        assert all(t.classes for t in atlas.transverse)
    with pytest.raises(ValueError):
        classify(5, 8, -1)


def test_xi1_point_set_twist_knots():
    # the exceptional structure of (2,2n+1) realizes exactly: the V (vertex
    # (0,2n+1), legs |rot| = tb-(2n+1)), the inner diamond legs
    # rot = -/+(tb-(2n+3)) for 2n+4 <= tb <= 4n+2, and their rot=0 merge
    # point (0, 2n+3); nothing else
    for n in range(1, 6):
        q, pq = 2 * n + 1, 2 * (2 * n + 1)
        vertex = q
        atlas = classify(2, q)
        window = (vertex, pq + 3)
        mr = mountain_range(atlas, 1, window)
        expected = {(0, vertex), (0, vertex + 2)}
        for tb in range(vertex, pq + 4):
            if tb > vertex:
                expected |= {(tb - vertex, tb), (-(tb - vertex), tb)}
        for tb in range(2 * n + 4, 4 * n + 3):
            expected |= {(tb - (2 * n + 3), tb), (-(tb - (2 * n + 3)), tb)}
        assert set(mr.points) == expected, (n, set(mr.points) ^ expected)
        assert all(info.count == 1 for info in mr.points.values())


def test_negative_wings_stay_disjoint():
    # for pq < 0 the two mirror stabilization families never share
    # invariants except at the X crossing (multiplicity 2 there only)
    atlas = classify(5, -8)
    mr = mountain_range(atlas, 2, (-80, -20))
    doubles = sorted(k for k, v in mr.points.items() if v.count >= 2)
    assert doubles == [(0, -25)]


# ---------------------------------------------------------------------------
# the eager cell fill, kept as the oracle for the closed-form extent and the
# O(points) fill: it walks every (rot, tb) cell of the V box and collects the
# extent from the points it built


def eager_mountain(atlas, d3_value, tb_window):
    """(rot_range, points) of one d3 in a tb window, filled cell by cell."""
    structs = atlas.structures_at(d3_value)
    tb_lo, tb_hi = tb_window
    cells = {}

    def add(rot, tb, fid, tower=False, extra=False):
        if not (tb_lo <= tb <= tb_hi):
            return
        cell = cells.setdefault((rot, tb), {"families": set(), "tower": False, "extra": False})
        cell["families"].add(fid)
        cell["tower"] = cell["tower"] or tower
        cell["extra"] = cell["extra"] or extra

    for st in structs:
        if st.exceptional and atlas.p * atlas.q > 0:
            _eager_exceptional_positive(atlas, st, add, tb_lo, tb_hi)
        else:
            _eager_leg_structure(atlas, st, add, tb_lo, tb_hi)

    points = {
        key: PointInfo(
            len(cell["families"]), tuple(sorted(cell["families"])),
            cell["tower"], cell["extra"],
        )
        for key, cell in cells.items()
    }
    if points:
        rots = [r for r, _ in points]
        rot_range = (min(rots), max(rots))
    else:
        rot_range = (0, 0)
    return rot_range, points


def _eager_leg_structure(atlas, st, add, tb_lo, tb_hi):
    pq = atlas.p * atlas.q
    tower = any(f.torsion2 > 0 for f in st.families)
    min_t2 = min(f.torsion2 for f in st.families)
    drawable = [f for f in st.families if f.torsion2 <= min_t2 + 1]
    for f in drawable:
        if f.kind == "extra_Le":
            add(f.rot_at_tbmax, f.tb_max, f.id, extra=True)
            continue
        if f.rot_slope == 0:
            continue
        lo = tb_lo if f.tb_min is None else max(tb_lo, f.tb_min)
        hi = tb_hi if f.tb_max is None else min(tb_hi, f.tb_max)
        for tb in range(lo, hi + 1):
            add(f.rot_at(tb), tb, f.id, tower=tower)
    plus = sorted({f.rot_intercept for f in drawable if f.rot_slope == -1})
    if len(plus) > 1:
        for c in range(plus[0] + 2, plus[-1], 2):
            if c in plus:
                continue
            for tb in range(tb_lo, min(tb_hi, pq) + 1):
                add(c - tb, tb, "wing_region+", tower=tower)
                add(tb - c, tb, "wing_region-", tower=tower)


def _eager_exceptional_positive(atlas, st, add, tb_lo, tb_hi):
    p, q = atlas.p, atlas.q
    pq = p * q
    vertex = pq - p - q + 2
    peaks = [f.rot_at_tbmax for f in st.families if f.kind == "diamond_peak"]
    for tb in range(max(tb_lo, vertex), tb_hi + 1):
        top = tb - vertex
        for rot in range(-top, top + 1):
            if (rot + tb) % 2 == 0:
                continue
            on_v = abs(rot) == top
            in_cone = tb <= pq and any(abs(rot - r0) <= pq - tb for r0 in peaks)
            if on_v:
                add(rot, tb, "v")
            elif in_cone:
                add(rot, tb, "diamond")


MOUNTAIN_POOL = [
    (p, q)
    for p in range(2, 13)
    for q in list(range(-20, -p)) + list(range(p + 1, 21))
    if gcd(p, abs(q)) == 1
]


def edge_windows(atlas, d3_value):
    """Windows entirely above and below every family, the bottom row of the
    default window, and the single row tb = pq."""
    pq = atlas.p * atlas.q
    lo, hi = default_window(atlas, d3_value)
    return [(hi + 1, hi + 3), (lo - 3, lo - 1), (lo, lo), (pq, pq)]


def test_mountain_range_matches_eager_fill():
    # every d3 of the pool on the edge windows; the default, a clipped and
    # the (-150, 150) window, where the eager fill costs most, on every
    # sixteenth class (the whole pool on all windows takes about 12 s)
    assert len(MOUNTAIN_POOL) == 176
    sampled = set(MOUNTAIN_POOL[::16])
    for p, q in MOUNTAIN_POOL:
        atlas = classify(p, q, max_torsion2=2)
        for d3_value in sorted({s.d3 for s in atlas.structures}):
            windows = edge_windows(atlas, d3_value)
            if (p, q) in sampled:
                lo, hi = default_window(atlas, d3_value)
                windows += [None, (lo + 3, hi - 4), (-150, 150)]
            for window in windows:
                mr = mountain_range(atlas, d3_value, window)
                tb_window = window or default_window(atlas, d3_value)
                assert mr.tb_range == tb_window
                expected = eager_mountain(atlas, d3_value, tb_window)
                assert (mr.rot_range, mr.points) == expected, (p, q, d3_value, window)


def test_cli_mountain_json_matches_eager_fill(capsys):
    # a 601-row window on the exceptional structure of (5,8): the JSON
    # format has no cell guard and its size guard admits the window, so
    # every point is emitted
    assert main(["mountain", "5", "8", "--d3", "1", "--format", "json",
                 "--tb-min", "-300", "--tb-max", "300"]) == 0
    data = json.loads(capsys.readouterr().out)
    rot_range, points = eager_mountain(classify(5, 8), 1, (-300, 300))
    assert data["tb_range"] == [-300, 300] and data["rot_range"] == list(rot_range)
    assert data["points"] == [
        {"rot": rot, "tb": tb, "count": info.count, "tower": info.tower,
         "extra": info.extra, "families": list(info.families)}
        for (rot, tb), info in sorted(points.items(), key=lambda kv: (-kv[0][1], kv[0][0]))
    ]


@hst.composite
def _class_outside_sweep(draw, qmax=400):
    aq = draw(hst.integers(41, qmax))
    p = draw(hst.integers(2, aq - 1).filter(lambda p: gcd(p, aq) == 1))
    q = draw(hst.sampled_from((aq, -aq)))
    assume(count_m(p, q) <= 2000)
    return p, q


def _check_members_against_orbit(atlas):
    # classify reads d3 and rot_L once per orbit, at the root, and gets the
    # |R| of later members from the per-knot climb steps; every member of
    # every orbit, parsed back from its string, must carry that d3 and |R|,
    # and the second half of the strings must mirror the first
    p, q = atlas.p, atlas.q
    ctx = knot_surgery_context(p, q)
    for st in atlas.structures:
        half = len(st.orbits) // 2
        first, second = st.orbits[:half], st.orbits[half:]
        members = [parse_decoration(p, q, s) for s in first]
        assert list(second) == [mirror_string(m) for m in members], (p, q, st.d3)
        if st.half_integer_torsion:
            assert [half_lutz_d3(m) for m in members] == [st.d3], (p, q, st.d3)
            continue
        abs_r = [st.abs_r, *(r for _, r, _, _ in st.wing_data)]
        assert len(abs_r) == half
        for m in members + [negate(m) for m in members]:
            x = m.signed_counts
            assert ctx.d3(x) == st.d3, (p, q, str(m))
        for m, r in zip(members, abs_r):
            assert abs(ctx.rot_l(m.signed_counts)) == r, (p, q, str(m))


def test_members_carry_orbit_d3_and_rot_on_sweep(sweep_atlases):
    for atlas in sweep_atlases.values():
        _check_members_against_orbit(atlas)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_class_outside_sweep())
def test_members_carry_orbit_d3_and_rot_outside_sweep(pq):
    _check_members_against_orbit(classify(*pq, max_torsion2=2))


def _check_transverse_is_leg_limit(atlas):
    # the transverse quotient is the negative-stabilization limit of the
    # Legendrian legs: per structure (the pq > 0 V aside), sl = tb - rot of
    # every L_- leg unbounded below (the X leg, the wing peaks, their tower
    # and lo copies) and of every free wing crossing at the least leg
    # torsion, clipped to torsion2 <= max_torsion2, or the lowest pair when
    # the clip leaves none; the sets match the d3's entries one to one
    p, q, t = atlas.p, atlas.q, atlas.max_torsion2
    pq = p * q
    window = (-abs(pq) - 1, pq)  # below every crossing, up to tb = pq
    entries = transverse_map(atlas)
    for d3, structs in structure_map(atlas).items():
        want = Counter()
        for st in structs:
            if st.exceptional and pq > 0:
                continue
            legs = {(-f.rot_intercept, f.torsion2) for f in st.families
                    if f.rot_slope == +1 and f.tb_min is None}
            low = min(t2 for _, t2 in legs)
            for fid, _, cs, _, _, _, _ in _lines(st, p, q, *window):
                if fid == "wing_region-":
                    legs |= {(-c, low) for c in cs}
            kept = frozenset(pair for pair in legs if pair[1] <= t)
            want[kept or frozenset([min(legs)])] += 1
        got = Counter(frozenset((c.sl, c.torsion2) for c in entry.classes)
                      for entry in entries.get(d3, []))
        assert got == want, (p, q, t, d3)


def test_transverse_is_leg_limit_on_sweep(sweep_atlases):
    for atlas in sweep_atlases.values():
        _check_transverse_is_leg_limit(atlas)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_class_outside_sweep(), hst.integers(0, 4))
def test_transverse_is_leg_limit_outside_sweep(pq, t):
    _check_transverse_is_leg_limit(classify(*pq, max_torsion2=t))
