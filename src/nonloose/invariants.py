"""Classical invariants computed straight from the Farey data.

The rotation number of the tb = pq representative of a decoration class is
R = p*r_n + q*r_m, where r_m/r_n, the signed sums of edge differences along
P1/P2, are linear in the signed block counts with weights `Knot.weights`.
The surgery context audits those weights against its rot_L once per knot:
the paper's Farey-vs-surgery cross-check, of which cross_check_rot is the
per-class form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decorations import DecoratedPathPair
from .surgery import knot_surgery_context


@dataclass(frozen=True, slots=True)
class RotationData:
    r_m: int
    r_n: int
    R: int


def rotation_data(d: DecoratedPathPair) -> RotationData:
    """r_m, r_n and R = p*r_n + q*r_m for the decoration class d: the dot
    products of its signed block counts with the knot's rotation weights,
    per side (their bounds are audited once per knot, in decompose_blocks)."""
    r = {"P1": 0, "P2": 0}
    for b, w, x in zip(d.knot.blocks, d.knot.weights, d.signed_counts):
        r[b.side] += w * x
    return RotationData(r["P1"], r["P2"], d.p * r["P2"] + d.q * r["P1"])


def cross_check_rot(d: DecoratedPathPair) -> bool:
    """R from the Farey formula must equal the surgery-formula rotation."""
    return rotation_data(d).R == knot_surgery_context(d.p, d.q).rot_l(d.signed_counts)


def half_lutz_d3(d: DecoratedPathPair) -> int:
    """d3 after a half Lutz twist along the transverse push-off of the
    negative-stabilization-closed representative; only totally
    2-inconsistent classes carry the half-integer torsion families."""
    if not d.totally2:
        raise ValueError("half Lutz twist families need a totally 2-inconsistent class")
    ctx = knot_surgery_context(d.p, d.q)
    base = ctx.d3(d.signed_counts)
    big_r = abs(ctx.rot_l(d.signed_counts))
    pq = d.p * d.q
    return base - pq + (big_r if pq > 0 else -big_r)


def self_linking(tb: int, rot: int) -> int:
    """Self-linking number of the transverse push-off."""
    return tb - rot


def parity_ok(pq_positive: bool, torsion_is_half_integer: bool, d3_value: int) -> bool:
    """Parity law for d3 of structures supporting non-loose representatives."""
    odd = (pq_positive and not torsion_is_half_integer) or (
        not pq_positive and torsion_is_half_integer
    )
    return d3_value % 2 == (1 if odd else 0)
