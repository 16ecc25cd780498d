"""The operations the benchmark times and the checks it makes on their
results.  Imported inside worker processes and by make_reference.py, so the
reference digests come from exactly the bytes a timed operation produces."""

from __future__ import annotations

import json

from nonloose import atlas as _atlas
from nonloose import render as _render
from nonloose import serialize as _serialize
from nonloose.decorations import count_m, count_n, count_totally_2_inconsistent
from nonloose.invariants import parity_ok

from workloads import MAX_TORSION2, REFUSED


def points_json(mr) -> str:
    """The points payload of a mountain range, as `mountain --format json`
    prints it."""
    payload = {
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
            for (rot, tb), info in sorted(
                mr.points.items(), key=lambda kv: (-kv[0][1], kv[0][0])
            )
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _plain(name, fn):
    return fn


class Engine:
    """The engine entry points one operation calls.  `wrap(name, fn)` lets
    a tracer put a span around each call from the benchmark's side."""

    def __init__(self, wrap=_plain):
        self.classify = wrap("atlas.classify", _atlas.classify)
        self.mountain_range = wrap("atlas.mountain_range", _atlas.mountain_range)
        self.render = {
            "ascii": wrap("render.render_ascii", _render.render_ascii),
            "svg": wrap("render.render_svg", _render.render_svg),
            "json": wrap("serialize.points_json", points_json),
        }
        self.atlas_to_dict = wrap("serialize.atlas_to_dict", _serialize.atlas_to_dict)
        self.dumps = wrap("serialize.json_dumps", json.dumps)

    def atlas_json(self, p: int, q: int) -> str:
        """One sweep / long-chain operation."""
        return self.dumps(self.atlas_to_dict(self.classify(p, q, MAX_TORSION2)))

    def mountain(self, p, q, d3, fmt, tb_lo, tb_hi) -> str:
        """One mountain operation; REFUSED when the render guard refuses."""
        atlas = self.classify(p, q, MAX_TORSION2)
        window = None if tb_lo is None else (tb_lo, tb_hi)
        mr = self.mountain_range(atlas, d3, window)
        try:
            return self.render[fmt](mr)
        except ValueError:
            if fmt == "json":
                raise
            return REFUSED


def cross_check(p: int, q: int) -> list[str]:
    """Checks made from outside the engine on a classified atlas."""
    atlas = _atlas.classify(p, q, MAX_TORSION2)
    n, t2 = count_n(p, q), count_totally_2_inconsistent(p, q)
    problems = []
    if dict(atlas.counts) != {"m": count_m(p, q), "n": n, "totally2": t2}:
        problems.append(f"counts {atlas.counts} disagree with the counting formulas")
    if 2 * len(atlas.structures) != 2 * n + t2:
        problems.append(f"{len(atlas.structures)} structures, expected n + totally2/2")
    for st in atlas.structures:
        if not parity_ok(p * q > 0, st.half_integer_torsion, st.d3):
            problems.append(f"parity fails at d3 = {st.d3}")
    if _serialize.atlas_from_dict(_serialize.atlas_to_dict(atlas)) != atlas:
        problems.append("atlas_from_dict(atlas_to_dict(a)) != a")
    return problems
