"""Rotation numbers from the Farey data, cross-checks, Lutz shifts, parity."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nonloose.decorations import (
    enumerate_decorations,
    parse_decoration,
)
from nonloose.farey import raw_diff
from nonloose.invariants import (
    cross_check_rot,
    half_lutz_d3,
    parity_ok,
    rotation_data,
    self_linking,
)
from nonloose.paths import knot
from nonloose.surgery import compile_diagram, knot_surgery_context


def test_rotation_data_2_plus_family():
    # the single-signed class of (2,2n+1) has |R| = 6n+1
    for n in range(1, 11):
        d = parse_decoration(2, 2 * n + 1, "P1:+|P2:--")
        data = rotation_data(d)
        assert (data.r_m, data.r_n) == (1, 2 * n)
        assert data.R == 6 * n + 1


def test_rotation_data_2_minus_family():
    # |R| = 4n + 2l + 3 with l = 2k + 1 - n over the k-th class
    for n in range(1, 11):
        q = -(2 * n + 1)
        for k in range(n):
            signs2 = "+" + "+" * k + "-" * (n - 1 - k)
            d = parse_decoration(2, q, f"P1:-|P2:{signs2}")
            data = rotation_data(d)
            l = 2 * k + 1 - n
            assert data.r_m == -1
            assert data.r_n == 2 * k + 2
            assert data.R == 4 * n + 2 * l + 3


def test_rotation_magnitudes_58():
    got = sorted({abs(rotation_data(d).R) for d in enumerate_decorations(5, 8)})
    assert got == [3, 7, 9, 11, 19, 21, 27, 37, 41, 51, 57, 67]


def test_rotation_magnitudes_5m8():
    got = sorted({abs(rotation_data(d).R) for d in enumerate_decorations(5, -8)})
    assert got == [3, 15, 17, 35, 47, 67]


def test_rotation_bounds_and_negation():
    from nonloose.decorations import negate

    for p, q in [(5, 8), (5, -8), (3, 7), (4, -9)]:
        for d in enumerate_decorations(p, q):
            data = rotation_data(d)
            assert abs(data.r_m) <= p - 1
            assert abs(data.r_n) <= abs(q) - 1
            assert rotation_data(negate(d)).R == -data.R


def test_cross_check_rot_exhaustive():
    for p in range(2, 7):
        for aq in range(p + 1, 22):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                for d in enumerate_decorations(p, q):
                    assert cross_check_rot(d)


def _check_rotation_form(p, q):
    """The per-knot rotation weights: the first edge difference of each
    block, scaled by q on P1 and p on P2 they are the surgery rot_L
    weights, and their side sums bound |r_m| by p - 1 and |r_n| by |q| - 1."""
    k = knot(p, q)
    reach = {"P1": 0, "P2": 0}
    scaled = []
    for b, w, e in zip(k.blocks, k.weights, k.sizes):
        dn, dd = raw_diff(b.vertices[1], b.vertices[0])
        assert w == (-dd if b.side == "P1" else dn), (p, q, b.index)
        reach[b.side] += abs(w) * e
        scaled.append((q if b.side == "P1" else p) * w)
    assert tuple(scaled) == knot_surgery_context(p, q).lk_weights, (p, q)
    assert reach["P1"] <= p - 1 and reach["P2"] <= abs(q) - 1, (p, q, reach)


def test_rotation_form_on_sweep():
    for aq in range(3, 41):
        for p in range(2, aq):
            if gcd(p, aq) == 1:
                _check_rotation_form(p, aq)
                _check_rotation_form(p, -aq)


@st.composite
def _knot_outside_sweep(draw):
    aq = draw(st.integers(41, 400))
    p = draw(st.integers(2, aq - 1).filter(lambda p: gcd(p, aq) == 1))
    return p, draw(st.sampled_from((aq, -aq)))


@settings(derandomize=True, deadline=None)
@given(_knot_outside_sweep())
def test_rotation_form_outside_sweep(pq):
    _check_rotation_form(*pq)


def test_rotation_injective_per_class():
    for p, q in [(5, 8), (5, -8), (2, 21), (2, -21), (7, 16)]:
        values = [rotation_data(d).R for d in enumerate_decorations(p, q)]
        assert len(values) == len(set(values))


def test_half_lutz_58():
    shifts = {}
    for d in enumerate_decorations(5, 8):
        if d.totally2:
            shifts[compile_diagram(d).d3] = half_lutz_d3(d)
    assert shifts == {-9: -8, -15: -4, -19: -2, -27: 0}


def test_half_lutz_5m8():
    shifts = {}
    for d in enumerate_decorations(5, -8):
        if d.totally2:
            shifts[compile_diagram(d).d3] = half_lutz_d3(d)
    assert shifts == {14: 7, 28: 1}


def test_half_lutz_2_plus():
    for n in range(1, 11):
        d = parse_decoration(2, 2 * n + 1, "P1:-|P2:++")
        assert compile_diagram(d).d3 == 1 - 2 * n
        assert half_lutz_d3(d) == 0


def test_half_lutz_rejects_other_classes():
    d = parse_decoration(5, 8, "P1:-+|P2:+--")
    with pytest.raises(ValueError):
        half_lutz_d3(d)


def test_self_linking():
    assert self_linking(7, 4) == 3
    assert self_linking(0, -(2 * 3 - 1)) == 2 * 3 - 1
    assert self_linking(5, 5) == 0


def test_parity_table():
    assert parity_ok(True, False, 1)
    assert parity_ok(False, False, 2 * 5)
    assert not parity_ok(True, False, 0)
    assert parity_ok(True, True, 0)
    assert parity_ok(False, True, 7)
    assert not parity_ok(False, False, 7)
