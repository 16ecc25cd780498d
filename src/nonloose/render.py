"""Deterministic text/SVG emitters for mountain ranges."""

from __future__ import annotations

from .atlas import MountainRange, refuse_above

MAX_CELLS = 10_000


def _grid(mrange: MountainRange):
    """The box to draw, refused before any point is built when it has more
    cells than the budget."""
    tb_lo, tb_hi = mrange.tb_range
    rot_lo, rot_hi = mrange.rot_range
    cells = (tb_hi - tb_lo + 1) * (rot_hi - rot_lo + 1)
    refuse_above(cells, "ATLAS_MAX_CELLS", MAX_CELLS, f"window of {cells} cells", "narrow the tb window or ")
    return tb_lo, tb_hi, rot_lo, rot_hi


def _style(info) -> tuple[str, str]:
    """(ASCII glyph, SVG colour) of a point: an extra Legendrian first, then
    a torsion tower, then a point two families share, then a plain one."""
    if info.extra:
        return "E", "black"
    if info.tower:
        return "*", "#7a1fa2"
    if info.count >= 2:
        return "2", "#c62828"
    return "o", "#1565c0"


def render_ascii(mrange: MountainRange) -> str:
    """Rows are tb descending, columns rot ascending; one glyph per point."""
    tb_lo, tb_hi, rot_lo, rot_hi = _grid(mrange)
    header = f"(p,q)=({mrange.p},{mrange.q})  d3={mrange.d3}  tb {tb_hi}..{tb_lo}  rot {rot_lo}..{rot_hi}"
    lines = [header]
    if not mrange.points:
        return header + "\n"
    width = max(len(str(tb_hi)), len(str(tb_lo)))
    columns = rot_hi - rot_lo + 1
    rows: dict[int, list[str]] = {}
    for (rot, tb), info in mrange.points.items():
        row = rows.get(tb)
        if row is None:
            row = rows[tb] = ["."] * columns
        row[rot - rot_lo] = _style(info)[0]
    blank = ["."] * columns
    for tb in range(tb_hi, tb_lo - 1, -1):
        lines.append(f"{tb:>{width}d} " + " ".join(rows.get(tb, blank)))
    ticks = [rot_lo, 0, rot_hi] if rot_lo < 0 < rot_hi else [rot_lo, rot_hi]
    axis = [" "] * columns
    for t in ticks:
        axis[t - rot_lo] = "^"
    lines.append(" " * (width + 1) + " ".join(axis))
    lines.append(" " * (width + 1) + "rot ticks at " + ", ".join(str(t) for t in ticks))
    return "\n".join(lines) + "\n"


def render_svg(mrange: MountainRange) -> str:
    """One marker per lattice point with hover metadata."""
    tb_lo, tb_hi, rot_lo, rot_hi = _grid(mrange)
    scale = 14
    pad = 30
    width = (rot_hi - rot_lo + 1) * scale + 2 * pad
    height = (tb_hi - tb_lo + 1) * scale + 2 * pad

    def x(rot):
        return pad + (rot - rot_lo) * scale

    def y(tb):
        return pad + (tb_hi - tb) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<title>({mrange.p},{mrange.q}) torus knot, d3={mrange.d3}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for (rot, tb), info in sorted(mrange.points.items(), key=lambda kv: (-kv[0][1], kv[0][0])):
        color = _style(info)[1]
        label = (
            f"rot={rot} tb={tb} count={info.count}"
            + (" tower" if info.tower else "")
            + (" extra" if info.extra else "")
            + " [" + ",".join(info.families) + "]"
        ).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<circle cx="{x(rot)}" cy="{y(tb)}" r="4" fill="{color}">'
            f"<title>{label}</title></circle>"
        )
    parts.append(
        f'<text x="{pad}" y="{height - 8}" font-size="10">'
        f"rot {rot_lo}..{rot_hi}, tb {tb_lo}..{tb_hi}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
