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

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from sys import intern
from types import MappingProxyType

from .decorations import class_counts, orbit_climbs
from .farey import audit, dot, farey_sum
from .invariants import half_lutz_shift, parity_ok
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


def _x_legs(fams, crossing, levels, threshold):
    """Append the two X legs at each doubled torsion level.  A level below 2
    is the base level, whose legs keep the x_leg kinds; tower copies are
    torsion_member.  With a pq > 0 threshold each leg gains half a unit of
    torsion at and below it."""
    for torsion2 in levels:
        tower = torsion2 >= 2
        suffix = f"~{torsion2}" if tower else ""
        for sign, tag in ((+1, "+"), (-1, "-")):
            kind = "torsion_member" if tower else ("x_leg_plus" if sign > 0 else "x_leg_minus")
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


def _peak_ladder(pair) -> dict[int, tuple[int, int]]:
    """The per-knot peak ladder: by member key j >= 3, (merge offset, n_{j-1}).
    The merge offset 2*|(s_{j-1} (+) s_{j-2}) . q/p| is the rot distance
    between the peaks of members j and j-1 of one compatibility chain, and
    n_k = |s_k . q/p| for the far slope s_k of truncated block k."""
    fars = block_far_slopes(pair)
    return {
        k + 1: (2 * abs(dot(farey_sum(s, s_prev), pair.slope)), n)
        for (_, s_prev, _), (k, s, n) in zip(fars, fars[1:])
    }


def _labels(k):
    """(label, mirror_label): the decoration string of the class with a
    given plus-count tuple, and of its mirror (plus counts e_b - c_b), joined
    from one per-knot table of "+"*c + "-"*(e_b - c) per block."""
    rows = [tuple("+" * c + "-" * (e - c) for c in range(e + 1)) for e in k.sizes]
    p1, p2 = ([(i, rows[i]) for i, b in enumerate(k.blocks) if b.side == side] for side in ("P1", "P2"))

    def label(c):
        return "".join(["P1:", *[row[c[i]] for i, row in p1], "|P2:", *[row[c[i]] for i, row in p2]])

    def mirror_label(c):  # row[~c] = row[e - c]
        return "".join(["P1:", *[row[~c[i]] for i, row in p1], "|P2:", *[row[~c[i]] for i, row in p2]])

    return label, mirror_label


MAX_ATLAS_BYTES = 64_000_000


def refuse_above(size: int, name: str, default: int, what: str, advice: str) -> None:
    """Raise ValueError "{what}, above the limit of {limit}; {advice}raise {name}" if size is
    above the integer in environment variable name, or default if it is unset or empty."""
    value = os.environ.get(name)
    try:
        limit = int(value) if value else default
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if size > limit:
        raise ValueError(f"{what}, above the limit of {limit}; {advice}raise {name}")


def _atlas_bytes(k, m: int, t2: int, max_torsion2: int) -> int:
    """A closed-form estimate, O(k), of the atlas-v1 JSON size in bytes, on
    the high side: every non-tight class is one orbit string of sum(e_b) + 16
    bytes (the totally 2-inconsistent ones a second time, in their half-Lutz
    structure), and every class and every torsion level of every totally
    2-inconsistent class carries at most about 1 KB of family records."""
    return (m + t2) * (sum(k.sizes) + 16) + 1024 * (m + t2 * (max_torsion2 + 2))


def classify(p: int, q: int, max_torsion2: int = 4) -> Atlas:
    """The full atlas of non-loose Legendrian/transverse (p,q)-torus knots.

    Torsion towers are truncated at max_torsion2 but flagged unbounded.  An
    atlas above ATLAS_MAX_BYTES is refused on every call, cached or not.
    """
    if max_torsion2 < 0:
        raise ValueError("max_torsion2 must be non-negative")
    k = knot(p, q)  # validates the knot class
    m_count, _, t2_count = class_counts(p, q)
    # refuse an oversize atlas before any orbit is climbed
    size = _atlas_bytes(k, m_count, t2_count, max_torsion2)
    refuse_above(size, "ATLAS_MAX_BYTES", MAX_ATLAS_BYTES,
                 f"({p},{q}) at max_torsion2 = {max_torsion2} makes about {size} bytes of atlas-v1 JSON",
                 "lower --max-torsion2 or ")
    return _classify_cached(p, q, max_torsion2)


# repeat traffic: 24 hot mountain classes, verify's 72 walked twice, 1 per CLI run; sweeps never repeat
@lru_cache(maxsize=128)
def _classify_cached(p: int, q: int, max_torsion2: int) -> Atlas:
    k = knot(p, q)
    m_count, n_count, t2_count = class_counts(p, q)
    pair = k.pair
    pq = p * q
    sgn = 1 if pq > 0 else -1
    bound = abs(pq) - p - abs(q)
    ctx = knot_surgery_context(p, q)
    peaks = _peak_ladder(pair)
    label, mirror_label = _labels(k)
    # the one root with uniform blocks and opposite signs on the two sides:
    # block 1's side all -, the other all +
    split = tuple(0 if blk.side == k.blocks[0].side else e for blk, e in zip(k.blocks, k.sizes))
    pairs = orbit_climbs(p, q)

    structures: list[Structure] = []
    transverse: list[TransverseEntry] = []

    for orbit, mirror_first in pairs:
        # everything read below is the same on the mirror orbit, x -> -x:
        # consistency, d3 (a Gram form), |rot_L| and the split-sign test.
        # d3 and rot_L are read at the root; the per-knot step audits make
        # d3 constant along the climb, and rot_L is offset by ctx.climb_rot
        key = orbit[0]
        x = tuple(2 * c - e for c, e in zip(key, k.sizes))
        d3_value = ctx.d3(x)
        rot_key = ctx.rot_l(x)
        strings = [label(m) for m in orbit]
        mirrors = [mirror_label(m) for m in orbit]
        orbit_strings = tuple(mirrors + strings if mirror_first else strings + mirrors)
        # member t (from 0) of the climb is (t+2)-inconsistent, at key t + 2;
        # an orbit with one member per block ends at the pq > 0 totally consistent top
        abs_r = {t + 2: abs(rot_key + ctx.climb_rot[t]) for t in range(len(orbit))}
        totally2 = key[1] == k.sizes[1]

        if len(orbit) == len(k.sizes):
            audit(pq > 0, "only pq > 0 orbits have a totally consistent top")
            structures.append(_exceptional_positive(pair, peaks, d3_value, orbit_strings, abs_r))
            continue

        exceptional_neg = pq < 0 and key == split
        special_pos = pq > 0 and key == split
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

        st, tr = _x_structure(pair, peaks, orbit_strings, abs_r, totally2, special_pos,
                              max_torsion2, 0, d3_value, crossing, exceptional_neg, [])
        structures.append(st)
        transverse.append(tr)
        if totally2:
            # the half-Lutz structure: the same X range, its torsion shifted up by a half
            note = intern(f"obtained from the d3 = {d3_value} structure by a half Lutz twist "
                          "along its non-loose transverse representative")
            st, tr = _x_structure(pair, peaks, orbit_strings, abs_r, True, special_pos, max_torsion2,
                                  1, half_lutz_shift(pq, d3_value, abs_r[2]), sgn * abs_r[2] - pq,
                                  False, [note])
            structures.append(st)
            transverse.append(tr)

    for st in structures:
        audit(parity_ok(pq > 0, st.half_integer_torsion, st.d3), "d3 parity law violated")
    # an overtwisted structure is determined up to isotopy by the homotopy
    # class of its plane field (Eliashberg 1989), and on S^3 that class is
    # d3: two mountain ranges with one d3 would be one structure counted twice
    audit(len({st.d3 for st in structures}) == len(structures), "each d3 carries one structure")
    structures.sort(key=lambda s: -s.d3)
    transverse.sort(key=lambda t: -t.d3)

    audit(len(pairs) == n_count, "orbit pairs must number n(p,q)")
    audit(len(structures) == n_count + t2_count // 2, "structures must number n + totally2/2")
    counts = MappingProxyType({"m": m_count, "n": n_count, "totally2": t2_count})
    return Atlas(p, q, max_torsion2, counts, tuple(structures), tuple(transverse))


def _exceptional_positive(pair, peaks, d3_value, orbit_strings, abs_r) -> Structure:
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
    # the top, at the last key, follows the member that breaks at the last block
    top = max(abs_r)
    for j in range(3, top + 1):
        r = abs_r[j]
        offset, n = peaks[j]
        audit(abs_r[j - 1] - r == offset, "diamond peaks must be merge-offset apart")
        merge = ((j - 1, offset),)
        for sign, tag in ((+1, "+"), (-1, "-")):
            fams.append(
                _point(intern(f"d{j}{tag}"), "diamond_peak", -sign * r, pq, 0,
                       "stays_above_V", "stays_above_V", merge)
            )
        # the all-consistent diamond allows p - 1 doomed stabs: (p+q-|R|)/2 = n_last = p
        extent = n if j < top else (p + q - r) // 2
        wing_data.append((j, r, extent, offset))
    notes = (
        "peak stabilizations stay non-loose exactly on or above the V; "
        "equal invariants there mean equal knots",
    )
    return Structure(
        d3_value, True, False, orbit_strings, tuple(fams), notes, abs_r2,
        tuple(wing_data),
    )


def _x_structure(pair, peaks, orbit_strings, abs_r, totally2, special_pos, max_torsion2,
                 base, d3_value, crossing, exceptional, notes):
    """One X-shaped mountain range and its transverse entry: the X legs at
    the base doubled torsion (0 for an orbit's own structure, 1 after a half
    Lutz twist), the wing peaks, the extra L_e of the exceptional pq < 0 X
    and, on a totally 2-inconsistent orbit, the torsion tower above base."""
    p, q, pq = pair.p, pair.q, pair.p * pair.q
    sgn = 1 if pq > 0 else -1
    threshold = pq - p - q if special_pos else None
    fams: list[KnotFamilyRecord] = []
    _x_legs(fams, crossing, [base], threshold)

    wing_data = []
    for j in range(3, len(abs_r) + 2):
        r = abs_r[j]
        offset, n = peaks[j]
        audit(abs(r - abs_r[j - 1]) == offset, "wing peaks must be merge-offset apart")
        merge = ((j - 1, offset),)
        inner = "x" if j == 3 else f"w{j - 1}"
        for sign, tag in ((+1, "+"), (-1, "-")):
            becomes = intern(f"becomes:{inner}{tag}")
            stab = ("stays", becomes) if sign > 0 else (becomes, "stays")
            fams.append(_leg(intern(f"w{j}{tag}"), "wing_peak", sign, pq - sgn * r, 0, tb_max=pq,
                             stab=stab, merge=merge))
        wing_data.append((j, r, n, offset))
        # audit note: the closed-form peak rotation -/+(|R| - 2(n_k - 1))
        # does not always reproduce the merge-consistent direct values
        shortcut = abs(abs_r[2] - 2 * (n - 1))
        if shortcut != r:
            notes.append(
                f"wing {j}: direct rotation magnitude {r}; the closed-form "
                f"shortcut |R|-2(n_k-1) would give {shortcut}"
            )

    if exceptional:
        # audited: the exceptional X crosses at the Bennequin bound
        fams.append(_point("le", "extra_Le", 0, crossing, 0, "becomes:x+", "becomes:x-"))
        notes.append(
            "the crossing carries three distinct knots: both legs and the extra one"
        )

    if totally2:
        audit(not wing_data, "torsion towers only occur on wingless chains")
        _x_legs(fams, crossing, range(base + 2, max_torsion2 + 1, 2), threshold)
        notes.append(intern(f"torsion towers continue unbounded; truncated at torsion2 = {max_torsion2}"))
        # the negative-stabilization limit picks up the below-threshold
        # torsion of the pq > 0 special class, whose legs there sit one
        # torsion2 level up.  The tower is clipped to max_torsion2 = t and the
        # legs are not: at even t >= 2 the own structure's entry drops the
        # legs' top level t + 1 (classify(2, 3, 2): [1] against legs [1, 3]),
        # at odd t >= 3 the half-Lutz entry does.  When start > t (t = 0 for
        # the own structure, t <= 1 for the half-Lutz one) the entry is
        # [start] alone, above t.  perfbench/reference.json pins these bytes.
        start = base + special_pos
        classes = [
            TransverseClass(crossing, torsion2, None, "x_leg_minus")
            for torsion2 in range(start, max_torsion2 + 1, 2) or [start]
        ]
        tr_notes = ("infinite family indexed by torsion; truncated in this report",)
    else:
        top = pq - sgn * abs_r[len(abs_r) + 1]
        chain = range(max(top, crossing), min(top, crossing) - 1, -2)
        classes = [
            TransverseClass(sl, 0, i + 1 if i + 1 < len(chain) else None,
                            "x_leg_minus" if sl == crossing else "wing")
            for i, sl in enumerate(chain)
        ]
        tr_notes = ()
    if special_pos:
        notes.append("torsion jumps by 1/2 at and below tb = pq - p - q on every level")

    st = Structure(
        d3_value, exceptional, base == 1, orbit_strings, tuple(fams), tuple(notes),
        abs_r[2], tuple(wing_data),
    )
    return st, TransverseEntry(d3_value, tuple(classes), tr_notes)


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

    def point_bound(self) -> int:
        """At least len(points), without filling them: each point of every line the window
        clips (a point on k lines counts k times), and (p + q)^2 / 2 for the diamonds
        inside the V, at most top - 1 in row top = tb - vertex < p + q - 1."""
        p, q = self.p, self.q
        return sum(
            len(cs) * (hi - lo + 1)
            for st in self.structures
            for _, _, cs, lo, hi, _, _ in _lines(st, p, q, *self.tb_range)
        ) + sum((p + q) ** 2 // 2 for st in self.structures if st.exceptional and p * q > 0)


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
