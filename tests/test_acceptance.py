"""Acceptance criteria: the nine golden/property gates, one test each.

Every comparison is exact integer equality (zero tolerance); each test
prints its own PASS line on success.  The full (p,q) sweeps run over all
coprime 1 < p < |q| <= 40, both signs of q.
"""

from nonloose.atlas import classify, mountain_range
from nonloose.checks import (
    _family_bound_excess,
    check_counts,
    check_rotations,
    check_structural,
)
from nonloose.invariants import parity_ok
from nonloose.surgery import knot_surgery_context

PMAX, QMAX = 39, 40


def _ok(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def legs_of(st, torsion2=None):
    out = {}
    for f in st.families:
        if f.kind in ("x_leg_plus", "x_leg_minus", "v_leg_plus", "v_leg_minus"):
            if torsion2 is None or f.torsion2 == torsion2:
                out.setdefault((f.rot_slope, f.rot_intercept), []).append(f)
    return out


def base_leg_laws(st):
    return sorted(
        {
            (f.rot_slope, f.rot_intercept)
            for f in st.families
            if f.kind in ("x_leg_plus", "x_leg_minus")
        }
    )


def test_criterion_1_positive_twist_knots():
    for n in range(1, 11):
        q = 2 * n + 1
        atlas = classify(2, q, max_torsion2=4)
        assert sorted({s.d3 for s in atlas.structures}) == sorted({1, 0, 1 - 2 * n})

        (xi1,) = atlas.structures_at(1)
        assert xi1.exceptional
        vx = next(f for f in xi1.families if f.kind == "v_vertex")
        assert (vx.rot_at_tbmax, vx.tb_max) == (0, 2 * n + 1)
        vlegs = [f for f in xi1.families if f.kind.startswith("v_leg")]
        assert {(f.rot_slope, f.rot_intercept) for f in vlegs} == {
            (-1, 2 * n + 1), (1, -(2 * n + 1)),
        }
        assert all(f.tb_min == 2 * n + 2 for f in vlegs)
        for f in vlegs:
            own, other = (
                (f.stab_plus, f.stab_minus) if f.kind == "v_leg_plus"
                else (f.stab_minus, f.stab_plus)
            )
            assert (own, other) == ("stays", "loose")
        peaks = {f.rot_at_tbmax for f in xi1.families if f.kind == "diamond_peak"}
        assert peaks == {2 * n - 1, -(2 * n - 1)}
        assert all(f.torsion2 == 0 for f in xi1.families)

        (low,) = atlas.structures_at(1 - 2 * n)
        assert not low.half_integer_torsion
        assert base_leg_laws(low) == [(-1, -(2 * n - 1)), (1, 2 * n - 1)]
        hi_levels = {f.torsion2 for f in low.families if f.tb_min == 2 * n}
        lo_levels = {f.torsion2 for f in low.families if f.tb_max == 2 * n - 1}
        assert hi_levels == {0, 2, 4} and lo_levels == {1, 3, 5}

        (zero,) = atlas.structures_at(0)
        assert zero.half_integer_torsion
        assert base_leg_laws(zero) == [(-1, 2 * n - 1), (1, -(2 * n - 1))]
        hi_levels = {f.torsion2 for f in zero.families if f.tb_min == 2 * n}
        lo_levels = {f.torsion2 for f in zero.families if f.tb_max == 2 * n - 1}
        assert hi_levels == {1, 3} and lo_levels == {2, 4}
    _ok(1, "(2,2n+1) golden families")


def test_criterion_2_negative_twist_knots():
    for n in range(1, 11):
        q = -(2 * n + 1)
        atlas = classify(2, q, max_torsion2=4)
        ls = list(range(-n + 1, n, 2))
        expected = sorted({n + l + 1 for l in ls} | {n - l for l in ls})
        assert sorted({s.d3 for s in atlas.structures}) == expected

        for l in ls:
            (st,) = [
                s for s in atlas.structures_at(n + l + 1)
                if not s.half_integer_torsion
            ]
            assert st.abs_r == 4 * n + 2 * l + 3
            assert base_leg_laws(st) == [(-1, 2 * l + 1), (1, -(2 * l + 1))]
            for f in st.families:
                if f.kind == "x_leg_plus":
                    assert (f.stab_plus, f.stab_minus) == ("stays", "loose")
                if f.kind == "x_leg_minus":
                    assert (f.stab_plus, f.stab_minus) == ("loose", "stays")
            assert {f.torsion2 for f in st.families if f.rot_slope} == {0, 2, 4}
            (half,) = [
                s for s in atlas.structures_at(n - l) if s.half_integer_torsion
            ]
            assert base_leg_laws(half) == [(-1, -(2 * l + 1)), (1, 2 * l + 1)]
            assert {f.torsion2 for f in half.families if f.rot_slope} == {1, 3}

        (exc,) = atlas.structures_at(2 * n)
        assert exc.exceptional
        le = next(f for f in exc.families if f.kind == "extra_Le")
        assert (le.rot_at_tbmax, le.tb_max) == (0, 2 * n - 1)
        assert le.stab_plus == "becomes:x+" and le.stab_minus == "becomes:x-"
        crossing = mountain_range(atlas, 2 * n, (2 * n - 1, 2 * n - 1)).points[
            (0, 2 * n - 1)
        ]
        assert crossing.count == 3 and crossing.extra
    _ok(2, "(2,-(2n+1)) golden families")


def test_criterion_3_five_eight():
    atlas = classify(5, 8, max_torsion2=4)
    assert sorted({s.d3 for s in atlas.structures}) == sorted(
        [1, 0, -1, -2, -3, -4, -7, -8, -9, -15, -19, -27]
    )
    non_exceptional_r = set()
    for st in atlas.structures:
        if st.exceptional or st.half_integer_torsion:
            continue
        non_exceptional_r.add(st.abs_r)
        non_exceptional_r.update(w[1] for w in st.wing_data)
    assert non_exceptional_r == {19, 21, 27, 37, 41, 51, 57, 67}

    (xi1,) = atlas.structures_at(1)
    vx = next(f for f in xi1.families if f.kind == "v_vertex")
    assert (vx.rot_at_tbmax, vx.tb_max) == (0, 29)
    peaks = sorted(f.rot_at_tbmax for f in xi1.families if f.kind == "diamond_peak")
    assert peaks == [-9, -7, -3, 3, 7, 9]
    assert all(
        f.tb_max == 40 for f in xi1.families if f.kind == "diamond_peak"
    )

    ctx = knot_surgery_context(5, 8)
    assert ctx.matrix == (
        (-4, -2, -1, -1, -1, -1),
        (-2, -3, -1, -1, -1, -1),
        (-1, -1, -5, -3, -1, -1),
        (-1, -1, -3, -4, -1, -1),
        (-1, -1, -1, -1, 0, -1),
        (-1, -1, -1, -1, -1, 0),
    )
    assert (ctx.sigma, ctx.chi) == (-4, 7)

    atlas = classify(5, -8, max_torsion2=4)
    assert sorted({s.d3 for s in atlas.structures}) == [1, 2, 7, 8, 14, 28]
    r_values = set()
    for st in atlas.structures:
        if st.exceptional or st.half_integer_torsion:
            continue
        r_values.add(st.abs_r)
        r_values.update(w[1] for w in st.wing_data)
    assert r_values == {15, 17, 35, 47}
    (exc,) = atlas.structures_at(28)
    le = next(f for f in exc.families if f.kind == "extra_Le")
    assert (le.rot_at_tbmax, le.tb_max) == (0, 27)

    ctx = knot_surgery_context(5, -8)
    assert ctx.matrix == (
        (-4, -3, -1, -1, -1, -1, -1),
        (-3, -4, -1, -1, -1, -1, -1),
        (-1, -1, -4, -3, -2, -1, -1),
        (-1, -1, -3, -4, -2, -1, -1),
        (-1, -1, -2, -2, -3, -1, -1),
        (-1, -1, -1, -1, -1, 0, -1),
        (-1, -1, -1, -1, -1, -1, 0),
    )
    assert (ctx.sigma, ctx.chi) == (-3, 8)
    _ok(3, "(5,+-8) golden structures, matrices, wings")


def test_criterion_4_trefoils():
    rht = classify(2, 3)
    knots_tb7 = []
    for st in rht.structures:
        for f in st.families:
            if f.rot_slope and f.covers(7) and f.torsion2 == 0:
                knots_tb7.append((st.d3, f.rot_at(7)))
    assert sorted(knots_tb7) == [(-1, -8), (-1, 8), (1, -4), (1, 4)]

    lht = classify(2, -3)
    with_tor0 = sorted(
        st.d3 for st in lht.structures
        if any(f.torsion2 == 0 for f in st.families)
    )
    assert with_tor0 == [2]
    _ok(4, "trefoil spot checks")


def test_criterion_5_dual_rotation():
    name, ok, detail = check_rotations(PMAX, QMAX)
    assert ok, detail
    _ok(5, "dual rotation + injectivity over |q| <= 40")


def test_criterion_6_counting():
    name, ok, detail = check_counts(PMAX, QMAX)
    assert ok, detail
    _ok(6, "counting formulas over |q| <= 40")


def test_criterion_7_structural_identities(sweep_atlases):
    name, ok, detail = check_structural(sweep_atlases.values(), PMAX, QMAX)
    assert ok, detail
    for (p, q), atlas in sweep_atlases.items():
        for st in atlas.structures:
            assert parity_ok(p * q > 0, st.half_integer_torsion, st.d3)
    _ok(7, "structural d3 identities and parity law")


def test_criterion_8_bennequin_bound(sweep_atlases):
    for (p, q), atlas in sweep_atlases.items():
        bound = abs(p * q) - p - abs(q)
        for st in atlas.structures:
            for f in st.families:
                assert _family_bound_excess(f, p * q) <= bound, (p, q, st.d3, f.id)
    for p, q in [(2, 3), (2, -3), (5, 8), (5, -8), (3, -10)]:
        atlas = classify(p, q, max_torsion2=2)
        bound = abs(p * q) - p - abs(q)
        for st in atlas.structures:
            mr = mountain_range(atlas, st.d3)
            for rot, tb in mr.points:
                assert abs(rot) - abs(tb) <= bound
    _ok(8, "Bennequin-type bound on all emitted points")


def test_criterion_9_transverse():
    # (2,2n+1): one family per structure, sl = 2n-1 in the Lutz-twisted
    # structure and -(2n-1) in the torsion structure; no classes in xi_1
    for n in range(1, 11):
        atlas = classify(2, 2 * n + 1, max_torsion2=4)
        entries = {t.d3: t for t in atlas.transverse}
        assert sorted(entries) == sorted([0, 1 - 2 * n])
        zero = entries[0]
        assert {(c.sl, c.torsion2) for c in zero.classes} == {
            (2 * n - 1, 2), (2 * n - 1, 4),
        }
        low = entries[1 - 2 * n]
        assert {(c.sl, c.torsion2) for c in low.classes} == {
            (-(2 * n - 1), 1), (-(2 * n - 1), 3),
        }

    # (2,-(2n+1)): sl = 2l+1 with integer torsion, -(2l+1) with half torsion
    for n in range(1, 11):
        atlas = classify(2, -(2 * n + 1), max_torsion2=4)
        entries = {t.d3: t for t in atlas.transverse}
        for l in range(-n + 1, n, 2):
            assert {(c.sl, c.torsion2) for c in entries[n + l + 1].classes} == {
                (2 * l + 1, 0), (2 * l + 1, 2), (2 * l + 1, 4),
            }
            assert {(c.sl, c.torsion2) for c in entries[n - l].classes} == {
                (-(2 * l + 1), 1), (-(2 * l + 1), 3),
            }

    # (5,8): structure list and |sl| values; signs follow sl = tb - rot of
    # the negative-stabilization-closed legs (the documented convention)
    atlas = classify(5, 8, max_torsion2=2)
    entries = {t.d3: t for t in atlas.transverse}
    assert sorted(entries) == [-27, -19, -15, -9, -8, -7, -4, -3, -2, -1, 0]
    expected_sl = {
        -1: [21, 19], -3: [13], -7: [3],
        -9: [-1], -15: [-11], -19: [-17], -27: [-27],
        -8: [1], -4: [11], -2: [17], 0: [27],
    }
    for d3v, sls in expected_sl.items():
        got = sorted({c.sl for c in entries[d3v].classes}, reverse=True)
        assert got == sls, (d3v, got)
    # stabilization chain in xi_-1; |sl| in {19, 21}, signs per the
    # documented sl = tb - rot convention
    chain = entries[-1].classes
    assert chain[0].next == 1 and chain[1].next is None
    assert {abs(c.sl) for c in chain} == {19, 21}

    # (5,-8): same discipline; the printed table's xi_2/xi_8 values conflict
    # with its own Legendrian laws, so the engine asserts the derived ones
    atlas = classify(5, -8, max_torsion2=2)
    entries = {t.d3: t for t in atlas.transverse}
    assert sorted(entries) == [1, 2, 7, 8, 14, 28]
    expected_sl = {2: [-23, -25], 8: [-5], 14: [7], 28: [27], 1: [-27], 7: [-7]}
    for d3v, sls in expected_sl.items():
        got = sorted({c.sl for c in entries[d3v].classes}, reverse=True)
        assert got == sls, (d3v, got)
    assert {c.sl for c in entries[2].classes} != {27, 25}  # the flagged literals
    chain = entries[2].classes
    assert chain[0].sl == -23 and chain[0].next == 1
    assert chain[1].sl == -25 and chain[1].next is None
    # torsion tower forms
    assert {c.torsion2 for c in entries[28].classes} == {0, 2}
    assert {c.torsion2 for c in entries[1].classes} == {1}
    _ok(9, "transverse golden tables")
