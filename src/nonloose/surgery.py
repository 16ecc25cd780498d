"""Contact surgery presentations of the decorated path pairs.

Every class compiles to the same link: two Legendrian-unknot chains coming
from contact -p/p' and -q/(q-q') surgeries (p'/q' the clockwise Farey
neighbor data of q/p), plus two contact (+1) push-offs.  Only the
stabilization signs, hence the rotation numbers, vary with the decoration.
Components are listed with each chain reversed (innermost last), matching
the convention the golden matrices pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .decorations import DecoratedPathPair
from .farey import clockwise_neighbor, make_slope, negative_cf
from .paths import build_pair, decompose_blocks


@dataclass(frozen=True)
class Component:
    contact_coefficient: Fraction
    smooth_coefficient: Fraction
    rotation: int
    is_plus_one: bool
    stabilizations: int


@dataclass(frozen=True)
class SurgeryDiagram:
    p: int
    q: int
    components: tuple[Component, ...]
    linking_matrix: tuple[tuple[int, ...], ...]
    plus_one_count: int
    rational_coefficients: tuple[Fraction, Fraction]

    @property
    def rotation_vector(self) -> tuple[int, ...]:
        return tuple(c.rotation for c in self.components)


class _Chain:
    """One DGS chain: digits of the rational coefficient, stabilization
    budgets, contact framings tb_i and the resulting self/mutual linkings."""

    def __init__(self, coefficient: Fraction):
        self.coefficient = coefficient
        self.digits = negative_cf(coefficient)
        self.stabs = [abs(self.digits[0] + 1)] + [abs(d + 2) for d in self.digits[1:]]
        self.tb = []
        t = -1
        for s in self.stabs:
            t -= s
            self.tb.append(t)

    def __len__(self):
        return len(self.digits)


@lru_cache(maxsize=None)
def knot_surgery_context(p: int, q: int) -> "_Context":
    return _Context(p, q)


class _Context:
    """Linking matrix M of the DGS link, its integer inverse, det, sigma, chi.

    By Sylvester's law of inertia sigma = 3 - n + (-1)^n det M for every
    class.  In each chain m_ii = tb_i - 1 and m_ij = tb_min(i,j), with
    tb_1 <= -1 decreasing, and all cross linkings are -1.  So for N, the
    (n-2)x(n-2) block of both chains, -N is I plus psd min-kernels plus an
    all-ones coupling: -N >= I and N is negative definite.  The Schur
    complement of N in M is [[b, b-1], [b-1, b]] with b = -1^T N^-1 1 > 0
    and eigenvalues 1 and 2b-1; det M = det N (2b-1), sign det N = (-1)^n.
    All leading principal minors are non-zero (minors of N up to order n-2,
    then b det N, then det M), so elimination in display order never swaps.
    """

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q
        self.blocks = decompose_blocks(build_pair(p, q)).blocks
        neighbor = clockwise_neighbor(make_slope(q, p))
        self.chain_p = _Chain(Fraction(-p, neighbor.den))
        self.chain_q = _Chain(Fraction(-q, q - neighbor.num))

        for chain, side in ((self.chain_p, "P1"), (self.chain_q, "P2")):
            budgets = [s for s in chain.stabs if s > 0]
            side_blocks = [b.edge_count for b in self.blocks if b.side == side]
            if budgets != side_blocks:
                raise AssertionError(
                    f"chain/block mismatch for ({p},{q}) {side}: {budgets} vs {side_blocks}"
                )

        u, v = len(self.chain_p), len(self.chain_q)
        n = u + v + 2
        m = [[-1] * n for _ in range(n)]
        # display order: p-chain reversed, q-chain reversed, the two (+1)s
        for chain, base in ((self.chain_p, 0), (self.chain_q, u)):
            k = len(chain)
            for i in range(k):
                for j in range(k):
                    di, dj = base + (k - 1 - i), base + (k - 1 - j)
                    m[di][dj] = chain.tb[i] - 1 if i == j else chain.tb[min(i, j)]
        m[n - 2][n - 2] = m[n - 1][n - 1] = 0
        self.matrix = tuple(tuple(row) for row in m)
        self.size = n
        self.inverse, self.det = _diagonalize(self.matrix)
        self.sigma = 3 - n + (-1) ** n * self.det
        self.chi = n + 1
        # M^-1 lk with lk the all -1 vector
        self.inverse_lk = [-sum(row) for row in self.inverse]

    def c_squared(self, rot) -> int:
        total = 0
        inv = self.inverse
        for i, ri in enumerate(rot):
            if ri:
                row = inv[i]
                total += ri * sum(rj * row[j] for j, rj in enumerate(rot) if rj)
        return total

    def d3_from_rot(self, rot) -> int:
        num = self.c_squared(rot) - 3 * self.sigma - 2 * (self.chi - 1)
        if num % 4:
            raise AssertionError("d3 did not come out an integer: convention fault")
        return num // 4 + 2

    def rot_l_from_rot(self, rot, rot0: int = 0) -> int:
        return rot0 - sum(r * w for r, w in zip(rot, self.inverse_lk) if r)

    def rotation_vector(self, d: DecoratedPathPair) -> tuple[int, ...]:
        """Component rotation numbers from the block signs: P1 signs map
        directly to stabilization signs, P2 signs flipped (a positive basic
        slice on the upper-meridian torus is a negative stabilization)."""
        u = len(self.chain_p)
        rot = [0] * self.size
        for chain, base, side, flip in (
            (self.chain_p, 0, "P1", +1),
            (self.chain_q, u, "P2", -1),
        ):
            side_blocks = (b for b in self.blocks if b.side == side)
            running = 0
            k = len(chain)
            for i, s in enumerate(chain.stabs):
                if s > 0:
                    blk = next(side_blocks)
                    c = d.plus_counts[blk.index - 1]
                    running += flip * (2 * c - blk.edge_count)
                rot[base + (k - 1 - i)] = running
        return tuple(rot)


def _diagonalize(matrix):
    """Exact (integer inverse, det) of a unimodular matrix with non-zero
    leading principal minors: fraction-free Bareiss-Jordan on [A | I], whose
    k-th pivot is the k-th leading minor, ends with det * A^-1 on the right."""
    n = len(matrix)
    aug = [list(matrix[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    det = 1
    for k in range(n):
        piv = aug[k][k]
        if piv == 0:
            raise AssertionError("singular linking matrix")
        for i in range(n):
            if i == k:
                continue
            row_i, fik = aug[i], aug[i][k]
            row_k = aug[k]
            for j in range(2 * n):
                row_i[j] = (piv * row_i[j] - fik * row_k[j]) // det
        det = piv
    if abs(det) != 1:
        raise AssertionError(f"linking matrix must be unimodular, det = {det}")
    return tuple(tuple(x // det for x in row[n:]) for row in aug), det


def compile_diagram(d: DecoratedPathPair) -> SurgeryDiagram:
    """The contact (+-1)-surgery presentation of the class d."""
    ctx = knot_surgery_context(d.p, d.q)
    rot = ctx.rotation_vector(d)
    comps = []
    u = len(ctx.chain_p)
    for chain, base in ((ctx.chain_p, 0), (ctx.chain_q, u)):
        k = len(chain)
        for disp in range(k):
            i = k - 1 - disp
            comps.append(
                Component(
                    contact_coefficient=Fraction(-1),
                    smooth_coefficient=Fraction(chain.tb[i] - 1),
                    rotation=rot[base + disp],
                    is_plus_one=False,
                    stabilizations=chain.stabs[i],
                )
            )
    for _ in range(2):
        comps.append(Component(Fraction(1), Fraction(0), 0, True, 0))
    return SurgeryDiagram(
        d.p,
        d.q,
        tuple(comps),
        ctx.matrix,
        2,
        (ctx.chain_p.coefficient, ctx.chain_q.coefficient),
    )


def signature_euler(diagram: SurgeryDiagram) -> tuple[int, int]:
    ctx = knot_surgery_context(diagram.p, diagram.q)
    return ctx.sigma, ctx.chi


def d3(diagram: SurgeryDiagram) -> int:
    """d3-invariant of the presented structure (tight standard structure at 0)."""
    ctx = knot_surgery_context(diagram.p, diagram.q)
    return ctx.d3_from_rot(diagram.rotation_vector)


def rot_surgered(diagram: SurgeryDiagram, rot0: int = 0) -> int:
    """Rotation number of the pattern knot after surgery (all linkings -1)."""
    ctx = knot_surgery_context(diagram.p, diagram.q)
    return ctx.rot_l_from_rot(diagram.rotation_vector, rot0)
