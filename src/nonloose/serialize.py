"""Stable JSON forms (schema "atlas-v1") with exact round-tripping."""

from __future__ import annotations

from types import MappingProxyType

from .atlas import (
    MAX_ATLAS_BYTES,
    Atlas,
    KnotFamilyRecord,
    MountainRange,
    Structure,
    TransverseClass,
    TransverseEntry,
    refuse_above,
)
from .paths import PathPair, decompose_blocks, p2_truncated
from .surgery import SurgeryDiagram

SCHEMA = "atlas-v1"


def _untb(value):
    return None if value in ("inf", "-inf") else value


def family_to_dict(f: KnotFamilyRecord) -> dict:
    return {
        "id": f.id,
        "kind": f.kind,
        "tb_max": "inf" if f.tb_max is None else f.tb_max,
        "tb_min": "-inf" if f.tb_min is None else f.tb_min,
        "rot_at_tbmax": f.rot_at_tbmax,
        "rot_slope": f.rot_slope,
        "rot_intercept": f.rot_intercept,
        "torsion2": f.torsion2,
        "stab_plus": f.stab_plus,
        "stab_minus": f.stab_minus,
        "merge_offsets": [list(x) for x in f.merge_offsets],
    }


def family_from_dict(d: dict) -> KnotFamilyRecord:
    return KnotFamilyRecord(
        d["id"], d["kind"], _untb(d["tb_max"]), _untb(d["tb_min"]),
        d["rot_at_tbmax"], d["rot_slope"], d["rot_intercept"], d["torsion2"],
        d["stab_plus"], d["stab_minus"],
        tuple(tuple(x) for x in d["merge_offsets"]),
    )


def atlas_to_dict(atlas: Atlas) -> dict:
    return {
        "schema": SCHEMA,
        "knot": {"p": atlas.p, "q": atlas.q},
        "counts": dict(atlas.counts),
        "max_torsion2": atlas.max_torsion2,
        "structures": [
            {
                "d3": s.d3,
                "exceptional": s.exceptional,
                "half_integer_torsion": s.half_integer_torsion,
                "abs_R": s.abs_r,
                "orbits": list(s.orbits),
                "wing_data": [list(w) for w in s.wing_data],
                "families": [family_to_dict(f) for f in s.families],
                "notes": list(s.notes),
            }
            for s in atlas.structures
        ],
        "transverse": [
            {
                "d3": t.d3,
                "classes": [
                    {"sl": c.sl, "torsion2": c.torsion2, "next": c.next, "origin": c.origin}
                    for c in t.classes
                ],
                "notes": list(t.notes),
            }
            for t in atlas.transverse
        ],
    }


def atlas_from_dict(data: dict) -> Atlas:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {data.get('schema')!r}")
    structures = tuple(
        Structure(
            s["d3"], s["exceptional"], s["half_integer_torsion"],
            tuple(s["orbits"]),
            tuple(family_from_dict(f) for f in s["families"]),
            tuple(s["notes"]), s["abs_R"],
            tuple(tuple(w) for w in s["wing_data"]),
        )
        for s in data["structures"]
    )
    transverse = tuple(
        TransverseEntry(
            t["d3"],
            tuple(
                TransverseClass(c["sl"], c["torsion2"], c["next"], c["origin"])
                for c in t["classes"]
            ),
            tuple(t["notes"]),
        )
        for t in data["transverse"]
    )
    return Atlas(
        data["knot"]["p"], data["knot"]["q"], data["max_torsion2"],
        MappingProxyType(dict(data["counts"])), structures, transverse,
    )


def paths_to_dict(pair: PathPair) -> dict:
    dec = decompose_blocks(pair)
    return {
        "knot": {"p": pair.p, "q": pair.q},
        "P1": [str(v) for v in pair.p1],
        "P2": [str(v) for v in pair.p2],
        "P2_truncated": [str(v) for v in p2_truncated(pair)],
        "blocks": [
            {
                "index": b.index,
                "side": b.side,
                "vertices": [str(v) for v in b.vertices],
                "in_truncation": b.in_truncation,
            }
            for b in dec.blocks
        ],
    }


def diagram_to_dict(diagram: SurgeryDiagram) -> dict:
    return {
        "knot": {"p": diagram.p, "q": diagram.q},
        "rational_coefficients": [str(c) for c in diagram.rational_coefficients],
        "components": [
            {
                "contact_coefficient": str(c.contact_coefficient),
                "smooth_coefficient": str(c.smooth_coefficient),
                "rotation": c.rotation,
                "is_plus_one": c.is_plus_one,
                "stabilizations": c.stabilizations,
            }
            for c in diagram.components
        ],
        "linking_matrix": [list(row) for row in diagram.linking_matrix],
        "plus_one_count": diagram.plus_one_count,
        "sigma": diagram.sigma,
        "chi": diagram.chi,
        "d3": diagram.d3,
        "rot_surgered": diagram.rot_l,
    }


def mountain_to_dict(mr: MountainRange) -> dict:
    """The points payload of `mountain --format json`: tb descending, then
    rot ascending.  A payload above ATLAS_MAX_BYTES is refused before any
    point is built."""
    size = 200 * mr.point_bound()  # about 160 bytes are printed per point
    refuse_above(size, "ATLAS_MAX_BYTES", MAX_ATLAS_BYTES, f"mountain JSON of about {size} bytes",
                 "narrow the tb window or ")
    return {
        "knot": {"p": mr.p, "q": mr.q},
        "d3": mr.d3,
        "tb_range": list(mr.tb_range),
        "rot_range": list(mr.rot_range),
        "points": [
            {
                "rot": rot,
                "tb": tb,
                "count": info.count,
                "tower": info.tower,
                "extra": info.extra,
                "families": list(info.families),
            }
            for (rot, tb), info in sorted(mr.points.items(), key=lambda kv: (-kv[0][1], kv[0][0]))
        ],
    }
