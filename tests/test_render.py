"""ASCII/SVG emitters."""

import pytest

from nonloose.atlas import MountainRange, classify, mountain_range
from nonloose.render import render_ascii, render_svg


def grid_of(text):
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if not parts or not parts[0].lstrip("-").isdigit():
            continue
        rows[int(parts[0])] = parts[1:]
    return rows


def test_58_xi1_peak_row():
    atlas = classify(5, 8)
    mr = mountain_range(atlas, 1, (38, 41))
    text = render_ascii(mr)
    rows = grid_of(text)
    rot_lo = mr.rot_range[0]
    row40 = rows[40]
    peaks = [rot_lo + i for i, g in enumerate(row40) if g != "."]
    assert set(peaks) >= {-9, -7, -3, 3, 7, 9}
    assert set(peaks) == {-11, -9, -7, -3, 3, 7, 9, 11}


def test_trefoil_crossing_and_le():
    atlas = classify(2, -3, max_torsion2=2)
    text = render_ascii(mountain_range(atlas, 2, (-1, 2)))
    rows = grid_of(text)
    assert rows[1][rows[1].index("E")] == "E"
    assert "*" in rows[2]


def test_empty_window_header_only():
    empty = MountainRange(2, 3, 1, (100, 101), (0, 0), {})
    text = render_ascii(empty)
    assert text.splitlines()[0].startswith("(p,q)=(2,3)")
    assert len(text.splitlines()) == 1


def test_cell_guard(monkeypatch):
    atlas = classify(5, 8)
    with pytest.raises(ValueError):
        render_ascii(mountain_range(atlas, 1, (-6000, 6000)))
    monkeypatch.setenv("ATLAS_MAX_CELLS", "2000000")
    render_ascii(mountain_range(atlas, 1, (-300, 300)))


def test_svg_contains_markers():
    atlas = classify(2, -3, max_torsion2=2)
    svg = render_svg(mountain_range(atlas, 2, (-1, 2)))
    assert svg.count("<circle") == len(mountain_range(atlas, 2, (-1, 2)).points)
    assert "<title>rot=0 tb=1" in svg


def test_rht_xi_minus1_crossing():
    # the X of the (2,3)-torus knot in its torsion structure crosses at
    # (0,-1); every leg point carries a torsion tower
    atlas = classify(2, 3, max_torsion2=2)
    mr = mountain_range(atlas, -1, (-2, 0))
    info = mr.points[(0, -1)]
    assert info.count == 2 and info.tower
    text = render_ascii(mr)
    rows = grid_of(text)
    assert rows[-1][rows[-1].index("*")] == "*"


def test_refused_render_builds_no_point():
    # the guard reads the closed-form extent: a refused window never fills
    atlas = classify(5, 8)
    for render in (render_ascii, render_svg):
        mr = mountain_range(atlas, 1, (-10_000, 10_000))
        assert mr.rot_range == (-(10_000 - 29), 10_000 - 29)
        with pytest.raises(ValueError, match="ATLAS_MAX_CELLS"):
            render(mr)
        assert "points" not in mr.__dict__
