"""Property and golden-value verification sweeps.

Each check returns (name, ok, detail).  The CLI `verify` verb and the
acceptance test suite both run these; the ranges default to the full desk
scale used in the write-ups.
"""

from __future__ import annotations

from math import gcd

from .atlas import classify, mountain_range
from .decorations import (
    count_m,
    count_n,
    count_totally_2_inconsistent,
    enumerate_decorations,
    parse_decoration,
    sign_strings,
    tight_count_lens,
)
from .farey import (
    anticlockwise_neighbor,
    cf_expand,
    cf_value,
    clockwise_neighbor,
    cw_ordered,
    dot,
    farey_sum,
    is_edge,
    make_slope,
)
from .invariants import half_lutz_d3, parity_ok, rotation_data
from .paths import block_far_slopes, knot
from .surgery import knot_surgery_context


def knot_classes(pmax: int, qmax: int):
    for p in range(2, pmax + 1):
        for aq in range(p + 1, qmax + 1):
            if gcd(p, aq) != 1:
                continue
            yield p, aq
            yield p, -aq


def check_farey_roundtrip(nmax: int = 200):
    bad = 0
    for den in range(1, nmax + 1):
        for num in range(-nmax, nmax + 1):
            if gcd(abs(num), den) != 1 or abs(num) <= den:
                continue
            r = make_slope(num, den)
            if cf_value(cf_expand(r)) != r:
                bad += 1
    return ("farey cf roundtrip", bad == 0, f"|num|,den <= {nmax}, {bad} failures")


def check_farey_neighbors(nmax: int = 60):
    # integers are excluded: their anticlockwise neighbor degenerates to the
    # terminal vertex by convention
    bad = []
    for den in range(2, nmax + 1):
        for num in range(-nmax, nmax + 1):
            if gcd(abs(num), den) != 1 or abs(num) <= den:
                continue
            r = make_slope(num, den)
            c, a = clockwise_neighbor(r), anticlockwise_neighbor(r)
            if not (is_edge(r, c) and is_edge(r, a) and is_edge(c, a)):
                bad.append(str(r))
            m = farey_sum(a, c)
            if m != r:
                # mediant of the two neighbors must return r itself
                bad.append(f"{r} mediant {m}")
            e = dot(a, c)
            between = cw_ordered(a, r, c) if e == -1 else cw_ordered(c, r, a)
            if not between:
                bad.append(f"{r} not between its neighbors")
    return ("farey neighbor edges", not bad, f"nmax={nmax}, failures: {bad[:3]}")


def check_paths(pmax: int = 9, qmax: int = 60):
    bad = []
    for p, q in knot_classes(pmax, qmax):
        k = knot(p, q)
        pair = k.pair
        for path in (pair.p1, pair.p2):
            verts = path.vertices
            for x, y in zip(verts, verts[1:]):
                if not is_edge(x, y):
                    bad.append(f"({p},{q}) edge {x},{y}")
            for i in range(1, len(verts) - 1):
                if abs(dot(verts[i - 1], verts[i + 1])) == 1:
                    bad.append(f"({p},{q}) not minimal at {verts[i]}")
        lead = k.sizes[:2]
        both_one = lead[0] == 1 and len(lead) > 1 and lead[1] == 1
        is_tie = q < 0 and p == 2 and abs(q) % 2 == 1
        if lead[0] != 1:
            bad.append(f"({p},{q}) leading block length {lead[0]}")
        if both_one != is_tie:
            bad.append(f"({p},{q}) double-length-1 leading blocks vs -(2n+1)/2 rule")
        fars = [n for _, _, n in block_far_slopes(pair)]
        if fars[0] != 1:
            bad.append(f"({p},{q}) n_1 != 1")
        tail_increasing = all(a < b for a, b in zip(fars[1:], fars[2:]))
        if is_tie:
            head_ok = len(fars) > 1 and fars[0] == fars[1] == 1
        else:
            head_ok = len(fars) == 1 or fars[0] < fars[1]
        if not (tail_increasing and head_ok):
            bad.append(f"({p},{q}) n_k not increasing: {fars}")
    return ("path construction and blocks", not bad, f"pmax={pmax} qmax={qmax}; {bad[:3]}")


def check_counts(pmax: int = 9, qmax: int = 40):
    bad = []
    for p, q in knot_classes(pmax, qmax):
        decs = enumerate_decorations(p, q)
        if len(decs) != count_m(p, q):
            bad.append(f"({p},{q}) m mismatch")
        two_inc = [d for d in decs if not d.tight and d.breaking == 2]
        if len(two_inc) != 2 * count_n(p, q):
            bad.append(f"({p},{q}) 2-inconsistent count {len(two_inc)} != 2n")
        t2 = [d for d in decs if d.totally2]
        if len(t2) != count_totally_2_inconsistent(p, q):
            bad.append(f"({p},{q}) totally-2-inconsistent count")
        if q < 0:
            tight = [d for d in decs if d.tight]
            ceil_abs = abs(-((-q) // p))
            if len(tight) != 2 * ceil_abs:
                bad.append(f"({p},{q}) tight class count {len(tight)}")
        if tight_count_lens(p, -q) * tight_count_lens(q, -p) != count_n(p, q):
            bad.append(f"({p},{q}) lens product != n")
    return ("counting formulas", not bad, f"pmax={pmax} qmax={qmax}; {bad[:3]}")


def check_rotations(pmax: int = 9, qmax: int = 40):
    """R from the per-block weights against R summed edge by edge over the
    class's sign strings (r_m: -dd along P1, r_n: dn along P2), and
    injectivity per knot class."""
    bad = []
    for p, q in knot_classes(pmax, qmax):
        pair = knot(p, q).pair
        # -dd on each P1 edge and dn on each P2 edge, (dn, dd) its Farey difference
        along_p1 = [a.den - b.den for a, b in zip(pair.p1.vertices, pair.p1.vertices[1:])]
        along_p2 = [b.num - a.num for a, b in zip(pair.p2.vertices, pair.p2.vertices[1:])]
        seen = set()
        for d in enumerate_decorations(p, q):
            big_r = rotation_data(d).R
            signs1, signs2 = sign_strings(d)
            r_m = sum(w if s == "+" else -w for w, s in zip(along_p1, signs1, strict=True))
            r_n = sum(w if s == "+" else -w for w, s in zip(along_p2, signs2, strict=True))
            if big_r != p * r_n + q * r_m:
                bad.append(f"({p},{q}) {d} R = {big_r}, edge sums give {p * r_n + q * r_m}")
            if big_r in seen:
                bad.append(f"({p},{q}) rot collision {big_r}")
            seen.add(big_r)
    return ("dual rotation computation", not bad, f"pmax={pmax} qmax={qmax}; {bad[:3]}")


def check_structural(pmax: int = 9, qmax: int = 40):
    """d3 of the all-same-sign and split classes, and, for every orbit of
    every structure classify reports, d3 evaluated at each member (the
    half-Lutz d3 on the half-integer structures) against the structure's
    d3, which classify reads once, at the orbit root."""
    bad = []
    for p, q in knot_classes(pmax, qmax):
        pq = p * q
        ctx = knot_surgery_context(p, q)
        k = knot(p, q)
        # signed counts x = +-e_b: all +, all -, and + on P1 with - on P2
        if {ctx.d3(k.sizes), ctx.d3([-e for e in k.sizes])} != {1 if pq > 0 else 0}:
            bad.append(f"({p},{q}) all-same-signs d3")
        split = [e if b.side == "P1" else -e for e, b in zip(k.sizes, k.blocks)]
        if ctx.d3(split) != (-pq + p + q if pq > 0 else abs(pq) - p - abs(q) + 1):
            bad.append(f"({p},{q}) P1+/P2- d3")
        # d3 and the orbits do not depend on the torsion truncation
        for st in classify(p, q, 2).structures:
            members = [parse_decoration(p, q, text) for text in st.orbits]
            if st.half_integer_torsion:
                values = {half_lutz_d3(m) for m in members}
            else:
                values = {ctx.d3(m.signed_counts) for m in members}
            if values != {st.d3}:
                bad.append(f"({p},{q}) orbit of the d3 = {st.d3} structure: member d3 {sorted(values)}")
    return ("structural d3 identities", not bad, f"pmax={pmax} qmax={qmax}; {bad[:3]}")


def _family_bound_excess(f, pq: int) -> int:
    """max of |rot| - |tb| over the family's tb range (piecewise linear with
    breaks at tb = 0 and at the rot = 0 crossing)."""
    if f.rot_slope == 0:
        return abs(f.rot_at_tbmax) - abs(f.tb_max)
    crossing = -f.rot_intercept * f.rot_slope
    span = 3 * (abs(pq) + abs(crossing)) + 3  # far enough to see the asymptotics
    lo = f.tb_min if f.tb_min is not None else -span
    hi = f.tb_max if f.tb_max is not None else span
    candidates = {lo, hi}
    for t in (0, crossing):
        if lo <= t <= hi:
            candidates.add(t)
    return max(abs(f.rot_at(t)) - abs(t) for t in candidates)


def check_atlas(pmax: int = 7, qmax: int = 16, max_torsion2: int = 2):
    """Parity law, Bennequin bound and count identities on assembled atlases."""
    bad = []
    for p, q in knot_classes(pmax, qmax):
        pq = p * q
        bound = abs(pq) - p - abs(q)
        atlas = classify(p, q, max_torsion2)
        if len(atlas.structures) != atlas.counts["n"] + atlas.counts["totally2"] // 2:
            bad.append(f"({p},{q}) structure count")
        tb_pq_knots = 0
        for st in atlas.structures:
            if not parity_ok(pq > 0, st.half_integer_torsion, st.d3):
                bad.append(f"({p},{q}) parity at d3={st.d3}")
            for f in st.families:
                if _family_bound_excess(f, pq) > bound:
                    bad.append(f"({p},{q}) d3={st.d3} family {f.id} violates the bound")
            if not st.half_integer_torsion:
                base = [f for f in st.families if f.torsion2 == 0 and f.rot_slope != 0]
                peaks = {
                    f.rot_at(pq)
                    for f in base
                    if f.covers(pq) and f.kind in (
                        "x_leg_plus", "x_leg_minus", "wing_peak",
                        "v_leg_plus", "v_leg_minus",
                    )
                }
                peaks |= {
                    f.rot_at_tbmax
                    for f in st.families
                    if f.kind == "diamond_peak" and f.torsion2 == 0
                }
                tb_pq_knots += len(peaks)
        expect = count_m(p, q)
        if pq < 0:
            expect -= 2 * abs(-((-q) // p))
        if tb_pq_knots != expect:
            bad.append(f"({p},{q}) tb=pq knots {tb_pq_knots} != {expect}")
        # above tb = pq there are exactly 2n(p,q) torsion-free knots per
        # level, plus the extra one at its crossing for pq < 0
        for t in (pq + 1, pq + 2, bound if pq < 0 else pq + 3):
            knots = 0
            for st in atlas.structures:
                for f in st.families:
                    if f.torsion2 == 0 and f.covers(t):
                        if f.rot_slope != 0 or f.kind == "extra_Le":
                            knots += 1
            expect_high = 2 * atlas.counts["n"] + (1 if pq < 0 and t == bound else 0)
            if knots != expect_high:
                bad.append(f"({p},{q}) tb={t} knots {knots} != {expect_high}")
        mr = mountain_range(atlas, atlas.structures[0].d3)
        for (rot, tb) in mr.points:
            if abs(rot) - abs(tb) > bound:
                bad.append(f"({p},{q}) emitted point ({rot},{tb}) out of bound")
                break
    return ("atlas invariants", not bad, f"pmax={pmax} qmax={qmax}; {bad[:3]}")


ALL_CHECKS = (
    check_farey_roundtrip,
    check_farey_neighbors,
    check_paths,
    check_counts,
    check_rotations,
    check_structural,
    check_atlas,
)


def run_all(pmax: int | None = None, qmax: int | None = None):
    results = []
    for fn in ALL_CHECKS:
        kwargs = {}
        if pmax is not None and "pmax" in fn.__code__.co_varnames:
            kwargs["pmax"] = pmax
        if qmax is not None and "qmax" in fn.__code__.co_varnames:
            kwargs["qmax"] = qmax
        results.append(fn(**kwargs))
    return results
