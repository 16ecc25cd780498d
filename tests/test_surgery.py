"""Surgery presentations: golden matrices, signatures, d3 values."""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nonloose.atlas import classify
from nonloose.decorations import (
    DecoratedPathPair,
    count_m,
    count_n,
    count_totally_2_inconsistent,
    enumerate_decorations,
    parse_decoration,
)
from nonloose.farey import InvariantError
from nonloose.paths import build_pair, decompose_blocks, knot
from nonloose.surgery import _climb_rot, _Context, compile_diagram, knot_surgery_context

GOLDEN_58 = (
    (-4, -2, -1, -1, -1, -1),
    (-2, -3, -1, -1, -1, -1),
    (-1, -1, -5, -3, -1, -1),
    (-1, -1, -3, -4, -1, -1),
    (-1, -1, -1, -1, 0, -1),
    (-1, -1, -1, -1, -1, 0),
)

GOLDEN_5M8 = (
    (-4, -3, -1, -1, -1, -1, -1),
    (-3, -4, -1, -1, -1, -1, -1),
    (-1, -1, -4, -3, -2, -1, -1),
    (-1, -1, -3, -4, -2, -1, -1),
    (-1, -1, -2, -2, -3, -1, -1),
    (-1, -1, -1, -1, -1, 0, -1),
    (-1, -1, -1, -1, -1, -1, 0),
)


def golden_2_minus(n):
    return (
        (-3, -1, -1, -1, -1),
        (-1, -n - 2, -2, -1, -1),
        (-1, -2, -3, -1, -1),
        (-1, -1, -1, 0, -1),
        (-1, -1, -1, -1, 0),
    )


def test_linking_matrix_58():
    ctx = knot_surgery_context(5, 8)
    assert ctx.matrix == GOLDEN_58
    assert (ctx.sigma, ctx.chi) == (-4, 7)
    assert ctx.chain_p.coefficient == Fraction(-5, 3)
    assert ctx.chain_q.coefficient == Fraction(-8, 3)


def test_linking_matrix_5m8():
    ctx = knot_surgery_context(5, -8)
    assert ctx.matrix == GOLDEN_5M8
    assert (ctx.sigma, ctx.chi) == (-3, 8)
    assert ctx.chain_p.coefficient == Fraction(-5, 2)
    assert ctx.chain_q.coefficient == Fraction(-8, 5)


def test_linking_matrix_2_minus_family():
    for n in range(1, 8):
        ctx = knot_surgery_context(2, -(2 * n + 1))
        assert ctx.matrix == golden_2_minus(n)
        assert (ctx.sigma, ctx.chi) == (-1, 6)
        assert ctx.chain_p.coefficient == Fraction(-2)
        assert ctx.chain_q.coefficient == Fraction(-(2 * n + 1), n + 1)


def test_rotation_vectors_58():
    # the twelve (up to mirror) golden rotation vectors of the (5,8) diagram
    golden = {
        (0, -1, 1, 0, 0, 0), (0, 1, -1, -2, 0, 0), (-2, -1, 1, 2, 0, 0),
        (2, 1, -3, -2, 0, 0), (0, -1, -1, 0, 0, 0), (0, 1, -3, -2, 0, 0),
        (-2, -1, 1, 0, 0, 0), (-2, -1, -1, 0, 0, 0), (0, -1, -1, -2, 0, 0),
        (0, -1, -3, -2, 0, 0), (-2, -1, -1, -2, 0, 0), (-2, -1, -3, -2, 0, 0),
    }
    produced = set()
    for d in enumerate_decorations(5, 8):
        vec = tuple(c.rotation for c in compile_diagram(d).components)
        produced.add(vec if vec in golden else tuple(-x for x in vec))
    assert produced == golden


def test_rotation_vectors_5m8():
    golden = {
        (0, 0, 0, 0, -1, 0, 0), (-2, -2, 0, 0, 1, 0, 0), (0, 0, -2, -2, -1, 0, 0),
        (-2, -2, 0, 0, -1, 0, 0), (-2, -2, -2, -2, -1, 0, 0),
    }
    produced = set()
    for d in enumerate_decorations(5, -8):
        vec = tuple(c.rotation for c in compile_diagram(d).components)
        norm = vec if vec in golden else tuple(-x for x in vec)
        if norm in golden:
            produced.add(norm)
    # the tight all-same-sign classes contribute the vector with every
    # stabilized component at -/+1 magnitude pattern not in the list
    assert produced == golden


def test_d3_values_58():
    got = sorted(compile_diagram(d).d3 for d in enumerate_decorations(5, 8))
    assert got == sorted(
        [1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -3, -3, -7, -7,
         -9, -9, -15, -15, -19, -19, -27, -27]
    )


def test_d3_values_5m8():
    got = sorted(compile_diagram(d).d3 for d in enumerate_decorations(5, -8))
    assert got == sorted([0, 0, 2, 2, 2, 2, 8, 8, 14, 14, 28, 28])


def test_d3_2_minus_family():
    # d3 = n + l + 1 over l in {-n+1, -n+3, ..., n-1}, each twice, plus the
    # tight classes at 0
    for n in range(1, 7):
        q = -(2 * n + 1)
        got = sorted(compile_diagram(d).d3 for d in enumerate_decorations(2, q))
        expected = sorted(
            [0] * (2 * n)
            + [n + l + 1 for l in range(-n + 1, n, 2) for _ in (0, 1)]
        )
        assert got == expected


def test_diagram_components():
    diag = compile_diagram(parse_decoration(5, 8, "P1:++|P2:+++"))
    assert diag.plus_one_count == 2
    assert sum(1 for c in diag.components if c.is_plus_one) == 2
    assert [int(c.smooth_coefficient) for c in diag.components] == [
        -4, -3, -5, -4, 0, 0
    ]
    for c in diag.components:
        assert abs(c.rotation) <= sum(
            k.stabilizations for k in diag.components
        )
        assert c.contact_coefficient in (Fraction(-1), Fraction(1))


def test_component_rotation_budgets():
    # each component's rotation is bounded by its accumulated stabilizations
    for p, q in [(5, 8), (5, -8), (3, -7), (4, 9)]:
        chains_budget = {}
        for d in enumerate_decorations(p, q):
            diag = compile_diagram(d)
            running = 0
            budgets = []
            for c in diag.components:
                budgets.append(c.stabilizations)
            # within each chain the rotation accumulates; check parity+bound
            ctx = knot_surgery_context(p, q)
            u, v = len(ctx.chain_p), len(ctx.chain_q)
            for base, size, chain in ((0, u, ctx.chain_p), (u, v, ctx.chain_q)):
                total = 0
                for i in range(size):
                    total += chain.stabs[i]
                    rot = diag.components[base + (size - 1 - i)].rotation
                    assert abs(rot) <= total and (rot - total) % 2 == 0


def leading_minors(matrix):
    """Leading principal minors by Gaussian elimination over Fraction without
    row swaps; stops at the first zero minor."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    minors, minor = [], Fraction(1)
    for k in range(n):
        minor *= a[k][k]
        minors.append(minor)
        if minor == 0:
            break
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return minors


def _diagonalize(matrix):
    """Dense oracle: exact (integer inverse, det) of a unimodular matrix with
    non-zero leading principal minors by fraction-free Bareiss-Jordan on
    [A | I], whose k-th pivot is the k-th leading minor; it ends with
    det * A^-1 on the right."""
    n = len(matrix)
    aug = [list(matrix[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    det = 1
    for k in range(n):
        piv = aug[k][k]
        assert piv != 0, "singular linking matrix"
        for i in range(n):
            if i == k:
                continue
            row_i, fik = aug[i], aug[i][k]
            row_k = aug[k]
            for j in range(2 * n):
                row_i[j] = (piv * row_i[j] - fik * row_k[j]) // det
        det = piv
    assert abs(det) == 1, f"linking matrix must be unimodular, det = {det}"
    return tuple(tuple(x // det for x in row[n:]) for row in aug), det


def test_determinants_unimodular():
    # the exact leading minors are an oracle for sigma independent of the
    # determinant formula: by Jacobi's rule the negative eigenvalues are
    # the sign changes along 1, D_1, ..., D_n
    for p in range(2, 8):
        for aq in range(p + 1, 30):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                ctx = knot_surgery_context(p, q)
                assert abs(ctx.det) == 1
                n = ctx.size
                minors = leading_minors(ctx.matrix)
                assert len(minors) == n and all(minors), (p, q)
                seq = [1] + minors
                changes = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
                assert ctx.sigma == n - 2 * changes, (p, q)
                inverse, det = _diagonalize(ctx.matrix)
                product = [
                    [sum(ctx.matrix[i][k] * inverse[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)
                ]
                assert product == [[int(i == j) for j in range(n)] for i in range(n)], (p, q)
                # the structured solve against the dense oracle
                assert ctx.det == det, (p, q)
                assert ctx.sigma == 3 - n + (-1) ** n * det, (p, q)


def test_structured_context_matches_dense():
    # d3 and rot_L from the signed block counts of every decoration on the
    # p <= 39, |q| <= 40 sweep against c^2 = rot^T M^-1 rot and
    # rot_L = -rot^T M^-1 lk (lk all -1) with the dense inverse
    for p in range(2, 40):
        for aq in range(p + 1, 41):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                ctx = knot_surgery_context(p, q)
                inverse, _ = _diagonalize(ctx.matrix)
                row_sums = [sum(row) for row in inverse]
                shift = 3 * ctx.sigma + 2 * (ctx.chi - 1)
                for d in enumerate_decorations(p, q):
                    x = d.signed_counts
                    rot = ctx.rotation_vector(x)
                    dense = sum(
                        ri * rj * inverse[i][j]
                        for i, ri in enumerate(rot) if ri
                        for j, rj in enumerate(rot) if rj
                    )
                    assert 4 * (ctx.d3(x) - 2) == dense - shift, (p, q, d)
                    assert ctx.rot_l(x) == sum(r * w for r, w in zip(rot, row_sums)), (p, q, d)


@st.composite
def _class_and_decoration(draw):
    aq = draw(st.integers(3, 400))
    p = draw(st.integers(2, aq - 1).filter(lambda p: gcd(p, aq) == 1))
    q = draw(st.sampled_from((aq, -aq)))
    blocks = decompose_blocks(build_pair(p, q)).blocks
    counts = tuple(draw(st.integers(0, b.edge_count)) for b in blocks)
    return knot_surgery_context(p, q), DecoratedPathPair(p, q, counts)


def _inverse_times(ctx, b):
    """M^-1 b = E^T M'^-1 E b through the structured solve, E sliding each
    chain component but the root over its display successor."""
    n, u = ctx.size, len(ctx.chain_p)
    slides = [t for t in range(n - 2) if t not in (u - 1, n - 3)]
    y = list(b)
    for t in slides:
        y[t] -= b[t + 1]
    z = ctx._solve(y)
    w = list(z)
    for t in slides:
        w[t + 1] -= z[t]
    return w


@settings(derandomize=True, deadline=None)
@given(_class_and_decoration())
def test_structured_context_exact_residuals(drawn):
    ctx, d = drawn
    m, n = ctx.matrix, ctx.size

    def times(x):
        return tuple(sum(a * b for a, b in zip(row, x)) for row in m)

    assert abs(ctx.det) == 1
    lk = (-1,) * n
    inverse_lk = _inverse_times(ctx, lk)
    assert times(inverse_lk) == lk
    x = d.signed_counts
    rot = ctx.rotation_vector(x)
    z = _inverse_times(ctx, rot)
    assert times(z) == rot
    c2 = sum(a * b for a, b in zip(rot, z))
    assert 4 * (ctx.d3(x) - 2) == c2 - 3 * ctx.sigma - 2 * (ctx.chi - 1)
    assert ctx.rot_l(x) == -sum(a * b for a, b in zip(rot, inverse_lk))


def test_long_chains_classify_without_dense_matrix():
    for q in (1001, 10001):
        atlas = classify(2, q)
        n, t2 = count_n(2, q), count_totally_2_inconsistent(2, q)
        assert dict(atlas.counts) == {"m": count_m(2, q), "n": n, "totally2": t2}
        assert len(atlas.structures) == n + t2 // 2
    assert "matrix" not in knot_surgery_context(2, 1001).__dict__


def test_cached_context_read_only():
    ctx = knot_surgery_context(2, -3)
    with pytest.raises(TypeError):
        ctx.lk_weights[0] += 5
    for values in (ctx.slots, ctx.slots[0], ctx.gram, ctx.gram[0]):
        with pytest.raises(TypeError):
            values[0] = 0
    with pytest.raises(TypeError):
        ctx.climb_rot[0] = 0
    for chain in (ctx.chain_p, ctx.chain_q):
        for values in (chain.digits, chain.tb, chain.stabs):
            with pytest.raises(TypeError):
                values[0] = 0
    d = parse_decoration(2, -3, "P1:+|P2:-")
    for values in (d.signed_counts, d.block_signs):
        with pytest.raises(TypeError):
            values[0] = 0
    assert compile_diagram(d).rot_l == -7
    with pytest.raises(AttributeError):
        ctx.sigma += 4
    with pytest.raises(AttributeError):
        del ctx.gram
    with pytest.raises(AttributeError):
        ctx.chain_p.tb = (0,)
    assert compile_diagram(d).d3 == 2


def test_context_refuses_perturbed_rotation_weights():
    k = knot(5, 8)
    assert _Context(k).lk_weights == knot_surgery_context(5, 8).lk_weights
    for b in range(len(k.weights)):
        weights = k.weights[:b] + (k.weights[b] + 1,) + k.weights[b + 1:]
        with pytest.raises(InvariantError):
            _Context(dataclasses.replace(k, weights=weights))
    message = _refusal_under_optimize(
        (5, 8), "_Context(dataclasses.replace(k, weights=(k.weights[0] + 1,) + k.weights[1:]))"
    )
    assert "rot_L weights differ from the Farey ones" in message


REFUSED_UNDER_OPTIMIZE = """
import dataclasses, sys
from nonloose.farey import InvariantError
from nonloose.paths import knot
from nonloose.surgery import _climb_rot, _Context

k = knot({p}, {q})
try:
    {statements}
except InvariantError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def _refusal_under_optimize(pq, statements):
    """The message of the InvariantError that one line of statements raises
    on k = knot(*pq) in a python -O child, which strips asserts."""
    code = REFUSED_UNDER_OPTIMIZE.format(p=pq[0], q=pq[1], statements=statements)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr or "accepted under -O"
    return proc.stdout.decode()


@pytest.mark.parametrize("pq", [(5, 8), (5, -8), (89, 144), (7, -100)])
def test_climb_steps_refuse_perturbed_gram(pq):
    # the per-knot climb-step identities are what keeps d3 constant along an
    # orbit; a Gram form that breaks them is refused, also under python -O
    k = knot(*pq)
    gram = [list(row) for row in k.context.gram]
    assert _climb_rot(k, gram, k.context.lk_weights) == k.context.climb_rot
    gram[-1][0] += 1
    gram[0][-1] += 1
    with pytest.raises(InvariantError, match="changes c"):
        _climb_rot(k, gram, k.context.lk_weights)
    message = _refusal_under_optimize(pq, (
        "gram = [list(row) for row in k.context.gram]; gram[-1][0] += 1; gram[0][-1] += 1; "
        "_climb_rot(k, gram, k.context.lk_weights)"
    ))
    assert "changes c^2" in message


def test_climb_steps_match_the_record_climb():
    # every step of every orbit and mirror orbit on the p <= 20, |q| <= 30
    # range: member t breaks at block t + 2, blocks before it of sign -1 for
    # even t and +1 for odd t (the mirror the opposite), and the step to
    # member t + 1 moves rot_L by the table's step (the mirror by its
    # negation) and d3 not at all
    from oracles import negate, orbit_pairs

    for p in range(2, 21):
        for aq in range(p + 1, 31):
            if gcd(p, aq) != 1:
                continue
            for q in (aq, -aq):
                ctx = knot_surgery_context(p, q)
                steps = [b - a for a, b in zip(ctx.climb_rot, ctx.climb_rot[1:])]
                for climbed, _ in orbit_pairs(p, q):
                    for sign, orbit in ((1, climbed), (-1, [negate(m) for m in climbed])):
                        for t, (child, parent) in enumerate(zip(orbit, orbit[1:])):
                            tau = sign * (1 if t % 2 else -1)
                            assert (child.breaking, child.block_signs[0]) == (t + 2, tau), (p, q, child)
                            assert (ctx.rot_l(parent.signed_counts) - ctx.rot_l(child.signed_counts)
                                    == sign * steps[t]), (p, q, child)
                            assert ctx.d3(parent.signed_counts) == ctx.d3(child.signed_counts)


def test_signature_euler_api():
    diag = compile_diagram(parse_decoration(2, -3, "P1:+|P2:-"))
    assert (diag.sigma, diag.chi) == (-1, 6)
    assert diag.d3 == 2
    assert diag.rot_l == -7


def test_rotation_vector_2_minus_general():
    # class k of (2,-(2n+1)) gives (-1, -(l+1), -1, 0, 0) with l = 2k+1-n,
    # up to the global mirror
    for n in range(1, 9):
        q = -(2 * n + 1)
        for k in range(n):
            signs2 = "+" + "+" * k + "-" * (n - 1 - k)
            d = parse_decoration(2, q, f"P1:-|P2:{signs2}")
            vec = tuple(c.rotation for c in compile_diagram(d).components)
            l = 2 * k + 1 - n
            assert vec == (-1, -(l + 1), -1, 0, 0)
