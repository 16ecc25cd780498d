"""Assembly of the full classification atlas.

For each overtwisted structure supporting non-loose representatives of the
(p,q)-torus knot this produces the mountain-range data: infinite X legs,
wing peaks with merge offsets, the exceptional V-with-diamonds (pq > 0) or
X-with-extra-Legendrian (pq < 0), Giroux-torsion towers on the totally
2-inconsistent families, and the transverse quotient.

Torsion is stored doubled everywhere (torsion2 = 2*tor), so half-integer
convex torsion stays integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import repeat
from sys import intern
from types import MappingProxyType
from typing import NamedTuple

from .decorations import (
    DecoratedPathPair,
    class_counts,
    decoration_string,
    mirror_string,
    orbit_pairs,
)
from .farey import Slope, audit, dot, farey_sum
from .invariants import half_lutz_d3, parity_ok
from .paths import block_far_slopes, knot
from .surgery import knot_surgery_context

UNBOUNDED = None


@dataclass(frozen=True, slots=True)
class KnotFamilyRecord:
    id: str
    kind: str
    tb_max: int | None  # None = unbounded above
    tb_min: int | None  # None = unbounded below
    rot_at_tbmax: int | None
    rot_slope: int
    rot_intercept: int
    torsion2: int
    stab_plus: str
    stab_minus: str
    merge_offsets: tuple[tuple[int, int], ...] = ()

    def rot_at(self, tb: int) -> int:
        return self.rot_slope * tb + self.rot_intercept

    def covers(self, tb: int) -> bool:
        if self.tb_max is not None and tb > self.tb_max:
            return False
        if self.tb_min is not None and tb < self.tb_min:
            return False
        return True


@dataclass(frozen=True, slots=True)
class TransverseClass:
    sl: int
    torsion2: int
    next: int | None  # index of the stabilization in the class list, None = loose
    origin: str


@dataclass(frozen=True, slots=True)
class TransverseEntry:
    d3: int
    classes: tuple[TransverseClass, ...]
    notes: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Structure:
    d3: int
    exceptional: bool
    half_integer_torsion: bool
    orbits: tuple[str, ...]
    families: tuple[KnotFamilyRecord, ...]
    notes: tuple[str, ...]
    abs_r: int | None
    wing_data: tuple[tuple[int, int, int, int], ...]  # (member k, |R_k|, extent, merge)


@dataclass(frozen=True, slots=True)
class Atlas:
    p: int
    q: int
    max_torsion2: int
    counts: MappingProxyType  # read-only: classify hands out cached atlases
    structures: tuple[Structure, ...]
    transverse: tuple[TransverseEntry, ...]

    def structures_at(self, d3_value: int) -> tuple[Structure, ...]:
        return tuple(s for s in self.structures if s.d3 == d3_value)

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied: send counts as a
        # plain dict and wrap it again on the way back
        return _read_only_atlas, (self.p, self.q, self.max_torsion2, dict(self.counts),
                                  self.structures, self.transverse)


def _read_only_atlas(p, q, max_torsion2, counts, structures, transverse) -> Atlas:
    return Atlas(p, q, max_torsion2, MappingProxyType(counts), structures, transverse)


def _leg(fid, kind, sign, crossing, torsion2, tb_max=UNBOUNDED, tb_min=UNBOUNDED,
         stab=None, merge=()):
    # sign +1 is the L_+ family: rot = crossing - tb; the mirror negates.
    slope = -1 if sign > 0 else +1
    intercept = crossing if sign > 0 else -crossing
    stab_plus, stab_minus = stab or (
        ("stays", "loose") if sign > 0 else ("loose", "stays")
    )
    rot_top = None if tb_max is None else slope * tb_max + intercept
    return KnotFamilyRecord(
        fid, kind, tb_max, tb_min, rot_top, slope, intercept, torsion2,
        stab_plus, stab_minus, tuple(merge),
    )


def _x_legs(fams, crossing, torsion2, base, threshold):
    """Append the two X legs at doubled torsion torsion2.  The base legs keep
    the x_leg kinds and tower copies are torsion_member; with a pq > 0
    threshold each leg gains half a unit of torsion at and below it."""
    suffix = "" if base else f"~{torsion2}"
    for sign, tag in ((+1, "+"), (-1, "-")):
        kind = ("x_leg_plus" if sign > 0 else "x_leg_minus") if base else "torsion_member"
        fid = intern(f"x{tag}{suffix}")
        if threshold is None:
            fams.append(_leg(fid, kind, sign, crossing, torsion2))
        else:
            fams.append(_leg(fid, kind, sign, crossing, torsion2, tb_min=threshold + 1))
            fams.append(_leg(intern(f"{fid}lo"), kind, sign, crossing, torsion2 + 1, tb_max=threshold))


def _point(fid, kind, rot, tb, torsion2, stab_plus, stab_minus, merge=()):
    return KnotFamilyRecord(
        fid, kind, tb, tb, rot, 0, rot, torsion2, stab_plus, stab_minus, tuple(merge)
    )


class _Ladder(NamedTuple):
    """The truncated block ladder of one class: q/p, and s_k, n_k by block k."""

    slope: Slope
    s: dict[int, Slope]
    n: dict[int, int]


def _ladder(pair) -> _Ladder:
    fars = block_far_slopes(pair)
    return _Ladder(pair.slope, {k: s for k, s, _ in fars}, {k: n for k, _, n in fars})


def _merge_offset(ladder: _Ladder, j: int) -> int:
    """2*n'_j with n'_j = |(s_j (+) s_{j-1}) . q/p|: the rot distance between
    the peaks of members j+1 and j of one compatibility chain."""
    s_new = farey_sum(ladder.s[j], ladder.s[j - 1])
    return 2 * abs(dot(s_new, ladder.slope))


def _uniform_side_signs(d: DecoratedPathPair):
    """(sign of P1, sign of P2) when every block is uniform and each side
    carries a single sign (suffix included); None otherwise."""
    sides = {}
    for b, s in zip(d.knot.blocks, d.block_signs):
        if s == 0 or sides.setdefault(b.side, s) != s:
            return None
    return sides["P1"], sides["P2"]


def classify(p: int, q: int, max_torsion2: int = 4) -> Atlas:
    """The full atlas of non-loose Legendrian/transverse (p,q)-torus knots.

    Torsion towers are truncated at max_torsion2 but flagged unbounded.
    """
    if max_torsion2 < 0:
        raise ValueError("max_torsion2 must be non-negative")
    knot(p, q)  # validates the knot class
    return _classify_cached(p, q, max_torsion2)


@lru_cache(maxsize=1024)
def _classify_cached(p: int, q: int, max_torsion2: int) -> Atlas:
    pair = knot(p, q).pair
    pq = p * q
    sgn = 1 if pq > 0 else -1
    bound = abs(pq) - p - abs(q)
    ctx = knot_surgery_context(p, q)
    ladder = _ladder(pair)
    pairs = orbit_pairs(p, q)

    structures: list[Structure] = []
    transverse: list[TransverseEntry] = []

    for orbit, mirror_first in pairs:
        # everything read below is the same on the mirror orbit, x -> -x:
        # consistency, d3 (a Gram form), |rot_L| and the split-sign test
        key = orbit[0]
        audit(key.breaking == 2, "orbits start 2-inconsistent")
        d3_value = ctx.d3(key.signed_counts)
        for m in orbit[1:]:
            audit(ctx.d3(m.signed_counts) == d3_value, "orbit d3 drift")
        strings = [decoration_string(m) for m in orbit]
        mirrors = [mirror_string(m) for m in orbit]
        orbit_strings = tuple(mirrors + strings if mirror_first else strings + mirrors)
        # member t (from 0) of the climb is (t+2)-inconsistent, at key t + 2;
        # a last member without a breaking index is the pq > 0 totally consistent top
        abs_r = {j: abs(ctx.rot_l(m.signed_counts)) for j, m in enumerate(orbit, start=2)}
        totally2 = key.totally2

        if orbit[-1].breaking is None:
            audit(pq > 0, "only pq > 0 orbits have a totally consistent top")
            structures.append(_exceptional_positive(pair, ladder, d3_value, orbit_strings, abs_r))
            continue

        uniform = _uniform_side_signs(key)
        exceptional_neg = pq < 0 and uniform is not None and uniform[0] == -uniform[1]
        special_pos = pq > 0 and uniform is not None and uniform[0] == -uniform[1]
        if exceptional_neg:
            audit(d3_value == bound + 1, "exceptional pq < 0 d3 must be |pq| - p - |q| + 1")
        if special_pos:
            audit(d3_value == -pq + p + q, "special pq > 0 d3 must be -pq + p + q")
        if exceptional_neg or special_pos:
            audit(totally2 and len(orbit) == 1, "split-sign orbits: one totally-2 member")

        crossing = pq - sgn * abs_r[2]
        audit(abs(crossing) <= bound, "Bennequin bound violated by X crossing")
        if exceptional_neg:
            audit(crossing == bound, "the exceptional X crosses at the Bennequin bound")

        st, tr = _generic_structure(
            pair, ladder, d3_value, orbit_strings, abs_r, crossing,
            totally2, exceptional_neg, special_pos, max_torsion2,
        )
        structures.append(st)
        transverse.append(tr)

        if totally2:
            st2, tr2 = _half_lutz_structure(
                pair, key, d3_value, orbit_strings, abs_r[2], special_pos, max_torsion2
            )
            structures.append(st2)
            transverse.append(tr2)

    for st in structures:
        audit(parity_ok(pq > 0, st.half_integer_torsion, st.d3), "d3 parity law violated")

    structures.sort(key=lambda s: (-s.d3, s.half_integer_torsion, s.orbits))
    transverse.sort(key=lambda t: (-t.d3, [ (c.sl, c.torsion2) for c in t.classes ]))

    by_d3: dict[int, int] = {}
    for st in structures:
        by_d3[st.d3] = by_d3.get(st.d3, 0) + 1
    final = []
    for st in structures:
        if by_d3[st.d3] > 1:
            note = (
                "another mountain range shares this d3; the ranges are reported "
                "separately and are conjecturally distinct structures"
            )
            st = replace(st, notes=st.notes + (note,))
        final.append(st)

    m_count, n_count, t2_count = class_counts(p, q)
    audit(len(pairs) == n_count, "orbit pairs must number n(p,q)")
    audit(len(final) == n_count + t2_count // 2, "structures must number n + totally2/2")
    counts = MappingProxyType({"m": m_count, "n": n_count, "totally2": t2_count})
    return Atlas(p, q, max_torsion2, counts, tuple(final), tuple(transverse))


def _exceptional_positive(pair, ladder, d3_value, orbit_strings, abs_r) -> Structure:
    p, q, pq = pair.p, pair.q, pair.p * pair.q
    audit(d3_value == 1, "the all-consistent pq>0 orbit must land in d3 = 1")
    vertex = pq - p - q + 2
    fams = [
        _point("vx", "v_vertex", 0, vertex, 0, "loose", "loose"),
        _leg("v+", "v_leg_plus", +1, vertex, 0, tb_min=vertex + 1),
        _leg("v-", "v_leg_minus", -1, vertex, 0, tb_min=vertex + 1),
    ]
    abs_r2 = abs_r[2]
    audit(abs_r2 == p + q - 2, "V corners sit at rot = -/+(p+q-2)")
    wing_data = []
    prev_abs = abs_r2
    # the top, at the last key, follows the member that breaks at the last block
    top = max(abs_r)
    for j in range(3, top + 1):
        r = abs_r[j]
        offset = _merge_offset(ladder, j - 1)
        audit(prev_abs - r == offset, "diamond peaks must be merge-offset apart")
        merge = ((j - 1, offset),)
        for sign, tag in ((+1, "+"), (-1, "-")):
            fams.append(
                _point(intern(f"d{j}{tag}"), "diamond_peak", -sign * r, pq, 0,
                       "stays_above_V", "stays_above_V", merge)
            )
        # the all-consistent diamond allows p - 1 doomed stabs: (p+q-|R|)/2 = n_last = p
        extent = ladder.n[j - 1] if j < top else (p + q - r) // 2
        wing_data.append((j, r, extent, offset))
        prev_abs = r
    notes = (
        "peak stabilizations stay non-loose exactly on or above the V; "
        "equal invariants there mean equal knots",
    )
    return Structure(
        d3_value, True, False, orbit_strings, tuple(fams), notes, abs_r2,
        tuple(wing_data),
    )


def _generic_structure(
    pair, ladder, d3_value, orbit_strings, abs_r, crossing,
    totally2, exceptional_neg, special_pos, max_torsion2,
):
    p, q, pq = pair.p, pair.q, pair.p * pair.q
    sgn = 1 if pq > 0 else -1
    bound = abs(pq) - p - abs(q)
    threshold = pq - p - q if special_pos else None
    fams: list[KnotFamilyRecord] = []
    notes: list[str] = []

    _x_legs(fams, crossing, 0, True, threshold)

    wing_data = []
    prev_abs = abs_r[2]
    for j in range(3, len(abs_r) + 2):
        r = abs_r[j]
        offset = _merge_offset(ladder, j - 1)
        audit(abs(r - prev_abs) == offset, "wing peaks must be merge-offset apart")
        merge = ((j - 1, offset),)
        inner_plus = "x+" if j == 3 else f"w{j-1}+"
        inner_minus = "x-" if j == 3 else f"w{j-1}-"
        fams.append(
            _leg(intern(f"w{j}+"), "wing_peak", +1, pq - sgn * r, 0, tb_max=pq,
                 stab=("stays", intern(f"becomes:{inner_plus}")), merge=merge)
        )
        fams.append(
            _leg(intern(f"w{j}-"), "wing_peak", -1, pq - sgn * r, 0, tb_max=pq,
                 stab=(intern(f"becomes:{inner_minus}"), "stays"), merge=merge)
        )
        wing_data.append((j, r, ladder.n[j - 1], offset))
        prev_abs = r

    if wing_data:
        # audit note: the closed-form peak rotation -/+(|R| - 2(n_k - 1))
        # does not always reproduce the merge-consistent direct values
        for j, r, _, _ in wing_data:
            shortcut = abs(abs_r[2] - 2 * (ladder.n[j - 1] - 1))
            if shortcut != r:
                notes.append(
                    f"wing {j}: direct rotation magnitude {r}; the closed-form "
                    f"shortcut |R|-2(n_k-1) would give {shortcut}"
                )

    if exceptional_neg:
        fams.append(_point("le", "extra_Le", 0, bound, 0, "becomes:x+", "becomes:x-"))
        notes.append(
            "the crossing carries three distinct knots: both legs and the extra one"
        )

    if totally2:
        audit(not wing_data, "torsion towers only occur on wingless chains")
        for level in range(2, max_torsion2 + 1, 2):
            _x_legs(fams, crossing, level, False, threshold)
        notes.append(_tower_note(max_torsion2))
    if special_pos:
        notes.append("torsion jumps by 1/2 at and below tb = pq - p - q on every level")

    st = Structure(
        d3_value, exceptional_neg, False, orbit_strings, tuple(fams), tuple(notes),
        abs_r[2], tuple(wing_data),
    )

    if totally2:
        classes = []
        for torsion2 in _transverse_levels(special_pos, False, max_torsion2):
            classes.append(TransverseClass(crossing, torsion2, None, "x_leg_minus"))
        tr = TransverseEntry(
            d3_value, tuple(classes),
            ("infinite family indexed by torsion; truncated in this report",),
        )
    else:
        top_abs = abs_r[max(abs_r)]
        hi, lo = sorted((pq - sgn * top_abs, crossing))[::-1]
        chain = list(range(hi, lo - 1, -2))
        classes = []
        for i, sl in enumerate(chain):
            nxt = i + 1 if i + 1 < len(chain) else None
            origin = "x_leg_minus" if sl == crossing else "wing"
            classes.append(TransverseClass(sl, 0, nxt, origin))
        tr = TransverseEntry(d3_value, tuple(classes), ())
    return st, tr


def _tower_note(max_torsion2: int) -> str:
    return intern(f"torsion towers continue unbounded; truncated at torsion2 = {max_torsion2}")


def _transverse_levels(special_pos: bool, half_side: bool, max_torsion2: int):
    """Doubled torsion levels of the infinite transverse family: the
    negative-stabilization limit picks up the below-threshold torsion of the
    pq > 0 special class."""
    if half_side:
        start = 2 if special_pos else 1
    else:
        start = 1 if special_pos else 0
    levels = list(range(start, max_torsion2 + 1, 2))
    return levels or [start]


def _half_lutz_structure(
    pair, key, d3_value, orbit_strings, abs_r2, special_pos, max_torsion2
):
    p, q, pq = pair.p, pair.q, pair.p * pair.q
    lutz_d3 = half_lutz_d3(key)
    crossing = abs_r2 - pq if pq > 0 else -pq - abs_r2
    threshold = pq - p - q if special_pos else None
    fams: list[KnotFamilyRecord] = []
    notes = [
        intern(f"obtained from the d3 = {d3_value} structure by a half Lutz twist "
               "along its non-loose transverse representative")
    ]
    for level in range(1, max_torsion2 + 1, 2) or [1]:
        _x_legs(fams, crossing, level, level == 1, threshold)
    notes.append(_tower_note(max_torsion2))
    if special_pos:
        notes.append("torsion jumps by 1/2 at and below tb = pq - p - q on every level")
    st = Structure(
        lutz_d3, False, True, orbit_strings, tuple(fams), tuple(notes), abs_r2, ()
    )
    classes = [
        TransverseClass(crossing, torsion2, None, "x_leg_minus")
        for torsion2 in _transverse_levels(special_pos, True, max_torsion2)
    ]
    tr = TransverseEntry(
        lutz_d3, tuple(classes),
        ("infinite family indexed by torsion; truncated in this report",),
    )
    return st, tr


# ---------------------------------------------------------------------------
# mountain ranges


@dataclass(frozen=True, slots=True)
class PointInfo:
    count: int
    families: tuple[str, ...]
    tower: bool
    extra: bool


@dataclass(frozen=True)
class MountainRange:
    """The mountain range of one d3 in a tb window.  The extent is known at
    construction; `points` is filled on first read, so a caller that refuses
    the window by its size never builds a cell."""

    p: int
    q: int
    d3: int
    tb_range: tuple[int, int]
    rot_range: tuple[int, int]
    structures: tuple[Structure, ...]

    @cached_property
    def points(self) -> dict:
        """(rot, tb) -> PointInfo; O(points)."""
        p, q = self.p, self.q
        tb_lo, tb_hi = self.tb_range
        cells: dict[tuple[int, int], tuple] = {}  # -> (families, tower, extra)

        def put(keys, cell):
            new = dict.fromkeys(keys, cell)
            for key in new.keys() & cells.keys():
                old = cells[key]
                new[key] = (tuple(sorted({*old[0], *cell[0]})), old[1] or cell[1], old[2] or cell[2])
            cells.update(new)

        for st in self.structures:
            for fid, slope, cs, lo, hi, tower, extra in _lines(st, p, q, tb_lo, tb_hi):
                for c in cs:
                    rots = range(slope * lo + c, slope * hi + c + slope, slope) if slope else repeat(c)
                    put(zip(rots, range(lo, hi + 1)), ((fid,), tower, extra))
            if st.exceptional and p * q > 0:
                for row in _diamond_rows(st, p, q, tb_lo, tb_hi):
                    put(row, (("diamond",), False, False))
        # one PointInfo per distinct cell; they are immutable, so points share them
        info = {cell: PointInfo(len(cell[0]), *cell) for cell in set(cells.values())}
        return dict(zip(cells, map(info.__getitem__, cells.values())))


def default_window(atlas: Atlas, d3_value: int) -> tuple[int, int]:
    """tb window covering all peaks, crossings, vertices and L_e, plus margin."""
    pq = atlas.p * atlas.q
    anchors = [pq]
    for st in atlas.structures_at(d3_value):
        for f in st.families:
            if f.tb_max is not None:
                anchors.append(f.tb_max)
            if f.rot_slope != 0:
                # the rot = 0 crossing of the leg line
                anchors.append(-f.rot_intercept * f.rot_slope)
    return (pq - (atlas.p + abs(atlas.q)), max(anchors) + 5)


def mountain_range(atlas: Atlas, d3_value: int, tb_window=None) -> MountainRange:
    """The realized (rot, tb) lattice points of one d3, with multiplicities.

    The cost does not depend on the window: every line drawn has slope 0 or
    +-1, so the rot extent sits at the clipped tb ends of its outermost
    lines, and the diamonds lie inside the V.  The points are filled on
    first read."""
    structs = atlas.structures_at(d3_value)
    if not structs:
        raise ValueError(f"no structure with d3 = {d3_value} in this atlas")
    if tb_window is None:
        tb_window = default_window(atlas, d3_value)
    tb_lo, tb_hi = tb_window
    if tb_lo > tb_hi:
        raise ValueError(f"empty tb window: tb min {tb_lo} > tb max {tb_hi}")
    rots = [
        slope * tb + c
        for st in structs
        for _, slope, cs, lo, hi, _, _ in _lines(st, atlas.p, atlas.q, tb_lo, tb_hi)
        for c in (cs[0], cs[-1])
        for tb in (lo, hi)
    ]
    rot_range = (min(rots), max(rots)) if rots else (0, 0)
    return MountainRange(atlas.p, atlas.q, d3_value, (tb_lo, tb_hi), rot_range, structs)


def _lines(st, p, q, tb_lo, tb_hi):
    """The lines one structure draws in the window, each a tuple
    (fid, slope, intercepts, lo, hi, tower, extra): the points
    rot = slope*tb + c for every c in the ascending intercepts and
    lo <= tb <= hi.  Lines that miss the window are left out."""
    pq = p * q
    if st.exceptional and pq > 0:
        # the V; its vertex pq - p - q + 2 is odd (p, q coprime), so every
        # V point has rot + tb odd
        vertex = pq - p - q + 2
        lo = max(tb_lo, vertex)
        if lo <= tb_hi:
            yield "v", +1, (-vertex,), lo, tb_hi, False, False
            yield "v", -1, (vertex,), lo, tb_hi, False, False
        return
    tower = any(f.torsion2 > 0 for f in st.families)
    min_t2 = min(f.torsion2 for f in st.families)
    drawable = [f for f in st.families if f.torsion2 <= min_t2 + 1]
    for f in drawable:
        if f.kind == "extra_Le":
            if tb_lo <= f.tb_max <= tb_hi:
                yield f.id, 0, (f.rot_at_tbmax,), f.tb_max, f.tb_max, False, True
            continue
        if f.rot_slope == 0:
            continue
        lo = tb_lo if f.tb_min is None else max(tb_lo, f.tb_min)
        hi = tb_hi if f.tb_max is None else min(tb_hi, f.tb_max)
        if lo <= hi:
            yield f.id, f.rot_slope, (f.rot_intercept,), lo, hi, tower, False
    # the wing strips: every free crossing strictly between the outermost
    # L_+ legs, drawn for tb <= pq
    plus = {f.rot_intercept for f in drawable if f.rot_slope == -1}
    hi = min(tb_hi, pq)
    if len(plus) > 1 and tb_lo <= hi:
        free = [c for c in range(min(plus) + 2, max(plus), 2) if c not in plus]
        if free:
            yield "wing_region+", -1, free, tb_lo, hi, tower, False
            yield "wing_region-", +1, [-c for c in reversed(free)], tb_lo, hi, tower, False


def _diamond_rows(st, p, q, tb_lo, tb_hi):
    """The diamond points strictly inside the V, as runs of (rot, tb): row
    tb <= pq holds the union of |rot - r0| <= pq - tb over the peaks r0,
    with rot + tb odd."""
    pq = p * q
    vertex = pq - p - q + 2
    peaks = sorted(f.rot_at_tbmax for f in st.families if f.kind == "diamond_peak")
    for tb in range(max(tb_lo, vertex), min(tb_hi, pq) + 1):
        top, radius = tb - vertex, pq - tb
        nxt = 2 - top  # the lowest interior rot not yet emitted, up to parity
        for r0 in peaks:
            lo = max(nxt, r0 - radius)
            lo += (lo + top) % 2
            hi = min(top - 2, r0 + radius)
            if lo <= hi:
                yield zip(range(lo, hi + 1, 2), repeat(tb))
                nxt = hi + 1
