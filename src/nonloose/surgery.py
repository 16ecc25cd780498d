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
from functools import cached_property
from itertools import accumulate
from operator import mul

from .decorations import DecoratedPathPair
from .farey import audit, clockwise_neighbor, make_slope, negative_cf
from .paths import Knot, knot


@dataclass(frozen=True, slots=True)
class Component:
    contact_coefficient: Fraction
    smooth_coefficient: Fraction
    rotation: int
    is_plus_one: bool
    stabilizations: int


@dataclass(frozen=True, slots=True)
class SurgeryDiagram:
    p: int
    q: int
    components: tuple[Component, ...]
    linking_matrix: tuple[tuple[int, ...], ...]
    plus_one_count: int
    rational_coefficients: tuple[Fraction, Fraction]
    sigma: int
    chi: int
    d3: int  # of the presented structure, tight standard structure at 0
    rot_l: int  # rotation number of the pattern knot after surgery

    @property
    def rotation_vector(self) -> tuple[int, ...]:
        return tuple(c.rotation for c in self.components)


class _ReadOnly:
    """Set once, in __init__ through vars(self): cached contexts are shared."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    __delattr__ = __setattr__


class _Chain(_ReadOnly):
    """One DGS chain: digits of the rational coefficient, stabilization
    budgets and contact framings tb_i, innermost (i = 0) first."""

    def __init__(self, coefficient: Fraction):
        digits = tuple(negative_cf(coefficient))
        stabs = (abs(digits[0] + 1),) + tuple(abs(d + 2) for d in digits[1:])
        tb = tuple(accumulate(stabs, lambda t, s: t - s, initial=-1))[1:]
        vars(self).update(coefficient=coefficient, digits=digits, stabs=stabs, tb=tb)

    def __len__(self):
        return len(self.digits)


def knot_surgery_context(p: int, q: int) -> "_Context":
    """The surgery context of (p,q), built once per cached Knot record."""
    return knot(p, q).context


class _Context(_ReadOnly):
    """The DGS link of (p,q): det, sigma, chi and solves with its linking
    matrix M, exact in integers and O(n) in the n components.

    Vectors are in display order: each chain outermost first, its innermost
    component (the root) last, then the two (+1)s.  In each chain
    m_ii = tb_i - 1 and m_ij = tb_min(i,j), and all cross linkings are -1.
    Sliding every chain component over its display successor,
    y_t = x_t - x_{t+1} (y = x at the roots and the (+1)s, det E = 1), turns
    M into M' = E M E^T: each chain becomes a path with diagonal
    (..., d_1, d_0 - 1) (d the chain digits, root last) and +1 between
    neighbours, and the only other entries are -1 between the two roots and
    the two (+1)s, whose diagonals are 0.  Forward elimination along a path
    uses its leading minors Q_t (Q_{-1} = 1, Q_{-2} = 0,
    Q_t = a_t Q_{t-1} - Q_{t-2}), non-zero before the root since the path
    without its root has digits <= -2 and is negative definite.  It leaves
    Q_t z_t + Q_{t-1} z_{t+1} = R_t with R_t = b_t Q_{t-1} - R_{t-1}, and on
    the roots and the (+1)s the integer 4x4 core
    [[Q_p, -Q'_p, -Q'_p, -Q'_p], [-Q'_q, Q_q, -Q'_q, -Q'_q], [-1, -1, 0, -1],
    [-1, -1, -1, 0]] (Q, Q' a path's last two minors), whose determinant
    -(w_p w_q + Q'_p w_q + Q'_q w_p), w = Q + Q', is det M.  So
    M^-1 = E^T M'^-1 E costs a closed-form core solve and two exact back
    substitutions.

    The rotation vector of a class slides to y = E rot, which is flip_b x_b
    at the slot of block b (the display position of its stabilized
    component, flip +1 on P1 and -1 on P2) and 0 elsewhere.  So with the
    k x k Gram matrix G = flip flip' M'^-1 at the slots, c^2 = x^T G x, and
    rot_L = -rot^T M^-1 lk (lk all -1) is linear in x.

    By Sylvester's law of inertia sigma = 3 - n + (-1)^n det M for every
    class.  For N, the (n-2)x(n-2) block of both chains, -N is I plus psd
    min-kernels plus an all-ones coupling: -N >= I and N is negative
    definite.  The Schur complement of N in M is [[b, b-1], [b-1, b]] with
    b = -1^T N^-1 1 > 0 and eigenvalues 1 and 2b-1; det M = det N (2b-1),
    sign det N = (-1)^n.

    rot_L is the Farey rotation R = p r_n + q r_m, so its weights must be
    q w_b on P1 and p w_b on P2 (w = `Knot.weights`), audited once per knot.
    `climb_rot` holds rot_L of each compatibility-climb member less the
    root's; the Gram identities of each climb step (d3 does not change along
    an orbit) are audited next to it (`_climb_rot`).
    """

    def __init__(self, k: Knot):
        p, q = k.pair.p, k.pair.q
        blocks = k.blocks
        neighbor = clockwise_neighbor(make_slope(q, p))
        chain_p = _Chain(Fraction(-p, neighbor.den))
        chain_q = _Chain(Fraction(-q, q - neighbor.num))
        u, v = len(chain_p), len(chain_q)
        n = u + v + 2

        # (display position, flip) per block, matched to its chain's
        # stabilized components in order
        slots = [None] * len(blocks)
        for chain, base, side, flip in ((chain_p, 0, "P1", 1), (chain_q, u, "P2", -1)):
            stabilized = [i for i, s in enumerate(chain.stabs) if s > 0]
            side_blocks = [b for b in blocks if b.side == side]
            budgets = [chain.stabs[i] for i in stabilized]
            sizes = [k.sizes[b.index - 1] for b in side_blocks]
            audit(budgets == sizes, f"chain/block mismatch ({p},{q}) {side}: {budgets} vs {sizes}")
            for i, b in zip(stabilized, side_blocks):
                slots[b.index - 1] = (base + len(chain) - 1 - i, flip)

        # (display start, length, 1 and the leading minors of the slid path)
        paths = tuple(
            (base, len(chain), _path_minors(chain.digits[:0:-1] + (chain.digits[0] - 1,)))
            for chain, base in ((chain_p, 0), (chain_q, u))
        )
        # per path (w, Q'): Q' the minor before the root and w = Q + Q' the
        # minor with the root's diagonal d_0, non-zero as all digits are <= -2
        (wp, tp), (wq, tq) = root_weights = tuple((m[-1] + m[-2], m[-2]) for _, _, m in paths)
        det = -(wp * wq + tp * wq + tq * wp)
        audit(abs(det) == 1, f"linking matrix must be unimodular, det = {det}")
        vars(self).update(
            p=p, q=q, chain_p=chain_p, chain_q=chain_q, size=n, chi=n + 1, slots=tuple(slots),
            _paths=paths, _root_weights=root_weights, det=det, sigma=3 - n + (-1) ** n * det,
        )

        columns = [self._solve([int(t == j) for t in range(n)]) for j, _ in slots]
        gram = tuple(
            tuple(f * g * col[t] for t, g in slots) for (_, f), col in zip(slots, columns)
        )
        # E lk is -1 at the roots and the (+1)s
        z = self._solve([-int(t in (u - 1, n - 3, n - 2, n - 1)) for t in range(n)])
        lk_weights = tuple(-f * z[t] for t, f in slots)
        farey = tuple((q if b.side == "P1" else p) * w for b, w in zip(blocks, k.weights))
        audit(lk_weights == farey, f"({p},{q}) surgery rot_L weights differ from the Farey ones")
        vars(self).update(gram=gram, lk_weights=lk_weights, climb_rot=_climb_rot(k, gram, lk_weights))

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense linking matrix M in display order."""
        n = self.size
        m = [[-1] * n for _ in range(n)]
        for chain, (base, k, _) in zip((self.chain_p, self.chain_q), self._paths):
            for i in range(k):
                for j in range(k):
                    di, dj = base + (k - 1 - i), base + (k - 1 - j)
                    m[di][dj] = chain.tb[i] - 1 if i == j else chain.tb[min(i, j)]
        m[n - 2][n - 2] = m[n - 1][n - 1] = 0
        return tuple(tuple(row) for row in m)

    def _solve(self, b) -> list[int]:
        """z with M' z = b: eliminate each path toward its root, solve the
        core, back-substitute; every division is exact."""
        n = self.size
        reduced = []
        for base, k, minors in self._paths:
            r, rs = 0, []
            for t in range(k):
                r = b[base + t] * minors[t] - r
                rs.append(r)
            reduced.append(rs)
        # core: with s the sum of its four unknowns the (+1) rows read
        # z = s + b and the root rows Q z - Q' (s - z) = R, i.e. w z = R + Q' s;
        # summing, det * s = w_q R_p + w_p R_q + w_p w_q (b_+ + b_+')
        (wp, _), (wq, _) = weights = self._root_weights
        rp, rq = reduced[0][-1], reduced[1][-1]
        s = self.det * (wq * rp + wp * rq + wp * wq * (b[n - 2] + b[n - 1]))
        z = [0] * n
        z[n - 2], z[n - 1] = s + b[n - 2], s + b[n - 1]
        for (base, k, minors), rs, (w, before) in zip(self._paths, reduced, weights):
            nxt = z[base + k - 1] = (rs[-1] + before * s) // w
            for t in range(k - 2, -1, -1):
                nxt = (rs[t] - minors[t] * nxt) // minors[t + 1]
                z[base + t] = nxt
        return z

    def d3(self, x) -> int:
        """d3 of the class with signed block counts x (tight standard
        structure at 0): c^2 = x^T G x."""
        c2 = sum(xi * sum(map(mul, row, x)) for row, xi in zip(self.gram, x) if xi)
        num = c2 - 3 * self.sigma - 2 * (self.chi - 1)
        audit(num % 4 == 0, "d3 did not come out an integer: convention fault")
        return num // 4 + 2

    def rot_l(self, x) -> int:
        """Rotation number of the pattern knot after surgery (all linkings -1)."""
        return sum(map(mul, self.lk_weights, x))

    def rotation_vector(self, x) -> tuple[int, ...]:
        """Component rotation numbers of the class with signed block counts
        x: per chain, the suffix sums toward the root of y = E rot.  P1 signs
        map directly to stabilization signs, P2 signs flipped (a positive
        basic slice on the upper-meridian torus is a negative stabilization)."""
        y = [0] * self.size
        for (t, flip), xb in zip(self.slots, x):
            y[t] = flip * xb
        rot = []
        for base, k, _ in self._paths:
            rot += reversed(tuple(accumulate(reversed(y[base : base + k]))))
        return tuple(rot) + (0, 0)


def _climb_rot(k: Knot, gram, lk_weights) -> tuple[int, ...]:
    """Entry t: rot_L of compatibility-climb member t (from 0) less the
    root's.  Member t breaks at block b = t + 2, blocks 1..b-1 of sign
    tau = -1 for even t and +1 for odd t, and steps up (b <= `climb_last`)
    by Delta: -2 tau e_j on blocks j < b, -2 tau (e_b - 1) on block b and
    +2 tau on block b + 1 (none past the last block: the pq > 0 step to the
    totally consistent top).  The member is its head h (tau e_j on j < b,
    tau (e_b - 2) on b) plus a tail past b, so the audited (G Delta)_j = 0
    on every block j > b and 2 h^T G Delta + Delta^T G Delta = 0 keep
    c^2 = x^T G x, hence d3, the same at every member of an orbit, whatever
    its tail.  The mirror orbit climbs by h -> -h, Delta -> -Delta, which
    leaves both identities as they are and negates every entry."""
    e, n = k.sizes, len(k.sizes)
    rot = [0]
    for b in range(2, k.climb_last + 1):
        tau = 1 if b % 2 else -1
        head = [tau * size for size in e[: b - 1]] + [tau * (e[b - 1] - 2)]
        delta = [-2 * h for h in head[:-1]] + [-2 * tau * (e[b - 1] - 1)] + [2 * tau] * (b < n)
        g_delta = [sum(map(mul, row, delta)) for row in gram]
        audit(not any(g_delta[b:]) and 2 * sum(map(mul, head, g_delta)) + sum(map(mul, delta, g_delta)) == 0,
              f"({k.pair.p},{k.pair.q}) climb step ({b}, {tau}) changes c^2")
        rot.append(rot[-1] + sum(map(mul, lk_weights, delta)))
    return tuple(rot)


def _path_minors(diagonal) -> tuple[int, ...]:
    """1, then the leading principal minors (continuants) of the path matrix
    with this diagonal and +1 between neighbours."""
    minors = [0, 1]
    for a in diagonal:
        minors.append(a * minors[-1] - minors[-2])
    return tuple(minors[1:])


def compile_diagram(d: DecoratedPathPair) -> SurgeryDiagram:
    """The contact (+-1)-surgery presentation of the class d with its
    signature, Euler characteristic, d3 and rot_L."""
    ctx = knot_surgery_context(d.p, d.q)
    x = d.signed_counts
    rot = ctx.rotation_vector(x)
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
        ctx.sigma,
        ctx.chi,
        ctx.d3(x),
        ctx.rot_l(x),
    )
