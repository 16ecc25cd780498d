"""Farey arithmetic: golden values and exhaustive invariants."""

from math import gcd

import pytest

from nonloose.farey import (
    INFINITY,
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
from oracles import farey_diff, parse_slope


def S(text):
    return parse_slope(text)


def test_make_slope_reduces():
    assert make_slope(6, 4) == S("3/2")
    assert make_slope(-6, 4) == S("-3/2")
    assert make_slope(6, -4) == S("-3/2")
    assert make_slope(8, 5) == S("8/5")


def test_make_slope_infinity_and_rejections():
    assert make_slope(-5, 0) == INFINITY
    assert make_slope(7, 0) == INFINITY
    with pytest.raises(ValueError):
        make_slope(0, 0)


def test_slope_strings():
    assert str(S("8/5")) == "8/5"
    assert str(S("-2")) == "-2"
    assert str(INFINITY) == "inf"


def test_dot():
    assert dot(S("8/5"), S("3/2")) == 1
    assert dot(S("-21/8"), S("-8/3")) == 1
    for text in ("8/5", "-21/8", "inf", "0"):
        assert dot(S(text), S(text)) == 0
    assert dot(S("3/2"), S("8/5")) == -dot(S("8/5"), S("3/2"))


def test_farey_sum_and_diff():
    assert farey_sum(S("1/2"), S("1/3")) == S("2/5")
    assert farey_sum(S("5/3"), S("3/2")) == S("8/5")
    assert farey_diff(S("-8/3"), S("-21/8")) == S("-13/5")
    with pytest.raises(ValueError):
        farey_diff(S("2/3"), S("2/3"))


def test_is_edge():
    assert is_edge(S("8/5"), S("5/3"))
    assert is_edge(S("0"), INFINITY)
    assert not is_edge(S("8/5"), S("2"))
    with pytest.raises(ValueError):
        is_edge(S("2"), S("2"))


def test_cf_expansions_golden():
    assert cf_expand(S("-21/8")).digits == (-3, -3, -3)
    assert cf_expand(S("-5/3")).digits == (-2, -3)
    assert cf_expand(S("-8/5")).digits == (-2, -3, -2)
    assert cf_expand(S("8/5")).digits == (1, -2, -3)
    assert cf_expand(S("5/2")).digits == (2, -2)
    assert cf_expand(S("-4")).digits == (-4,)


def test_cf_regimes():
    for text in ("-21/8", "-2", "-9/7"):
        exp = cf_expand(S(text))
        assert exp.regime == "negative"
        assert all(d <= -2 for d in exp.digits)
    for text in ("8/5", "3", "21/8"):
        exp = cf_expand(S(text))
        assert exp.regime == "positive"
        assert exp.digits[0] >= 1
        assert all(d <= -2 for d in exp.digits[1:])
    for text in ("1/2", "-1", "1", "inf"):
        with pytest.raises(ValueError):
            cf_expand(S(text))


def test_cf_roundtrip_exhaustive():
    nmax = 200
    for den in range(1, nmax + 1):
        for num in range(-nmax, nmax + 1):
            if gcd(abs(num), den) != 1 or abs(num) <= den:
                continue
            r = make_slope(num, den)
            assert cf_value(cf_expand(r)) == r


def test_neighbors_golden():
    assert clockwise_neighbor(S("8/5")) == S("5/3")
    assert clockwise_neighbor(S("-8/5")) == S("-3/2")
    assert anticlockwise_neighbor(S("-21/8")) == S("-8/3")
    assert anticlockwise_neighbor(S("8/5")) == S("3/2")


def test_neighbor_edges_exhaustive():
    nmax = 60
    for den in range(2, nmax + 1):
        for num in range(-nmax, nmax + 1):
            if gcd(abs(num), den) != 1 or abs(num) <= den:
                continue
            r = make_slope(num, den)
            c, a = clockwise_neighbor(r), anticlockwise_neighbor(r)
            assert is_edge(r, c) and is_edge(r, a) and is_edge(c, a)
            assert farey_sum(a, c) == r


def test_mediant_sits_between_edge_endpoints():
    pairs = [(S("0"), S("1")), (S("1"), INFINITY), (S("-2"), S("-3/2")),
             (S("8/5"), S("5/3")), (S("-21/8"), S("-8/3"))]
    for a, b in pairs:
        m = farey_sum(a, b)
        assert abs(dot(a, m)) == 1 and abs(dot(m, b)) == 1
        if dot(a, b) < 0:
            assert cw_ordered(a, m, b)
        else:
            assert cw_ordered(b, m, a)


def test_cw_order_convention():
    # clockwise runs through increasing values and wraps through infinity
    assert cw_ordered(S("0"), S("1"), INFINITY)
    assert cw_ordered(S("1"), INFINITY, S("-1"))
    assert not cw_ordered(S("0"), INFINITY, S("1"))
    assert cw_ordered(S("-2"), S("-3/2"), S("-1"))


def test_dot_of_mediant_identity():
    # a . (a (+) b) equals a . b on the nose; with an edge both stay unimodular
    pairs = [(S("8/5"), S("5/3")), (S("-21/8"), S("-8/3")), (S("0"), INFINITY),
             (S("3/2"), S("2")), (S("-5/2"), S("-3"))]
    for a, b in pairs:
        m = farey_sum(a, b)
        assert dot(a, m) == dot(a, b)
        assert dot(m, b) == dot(a, b)
        if abs(dot(a, b)) == 1:
            assert abs(dot(a, m)) == 1 and abs(dot(m, b)) == 1
