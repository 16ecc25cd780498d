"""Classical invariants computed straight from the Farey data.

The rotation number of the tb = pq representative of a decoration class is
R = p*r_n + q*r_m, where r_m/r_n are signed sums of edge differences along
P1/P2.  This is independent of the surgery route in surgery.py and the two
must always agree (cross_check_rot).
"""

from __future__ import annotations

from dataclasses import dataclass

from .decorations import DecoratedPathPair, classify_consistency
from .farey import audit, raw_diff
from .surgery import knot_surgery_context


@dataclass(frozen=True)
class RotationData:
    r_m: int
    r_n: int
    R: int


def rotation_data(d: DecoratedPathPair) -> RotationData:
    """r_m, r_n and R = p*r_n + q*r_m for the decoration class d.

    Edge signs are read on the oriented paths exactly as built (P1 and P2
    both from q/p outward); edges of one block share the same un-reduced
    Farey difference, so only the signed block count x_b enters.
    """
    r_m = 0
    r_n = 0
    for b, x in zip(d.knot.blocks, d.signed_counts):
        dn, dd = raw_diff(b.vertices[1], b.vertices[0])
        if b.side == "P1":
            r_m += x * (-dd)
        else:
            r_n += x * dn
    data = RotationData(r_m, r_n, d.p * r_n + d.q * r_m)
    audit(abs(r_m) <= d.p - 1 and abs(r_n) <= abs(d.q) - 1, "rotation data out of bounds")
    return data


def cross_check_rot(d: DecoratedPathPair) -> bool:
    """R from the Farey formula must equal the surgery-formula rotation."""
    return rotation_data(d).R == knot_surgery_context(d.p, d.q).rot_l(d.signed_counts)


def half_lutz_d3(d: DecoratedPathPair) -> int:
    """d3 after a half Lutz twist along the transverse push-off of the
    negative-stabilization-closed representative; only totally
    2-inconsistent classes carry the half-integer torsion families."""
    if not classify_consistency(d).totally_2_inconsistent:
        raise ValueError("half Lutz twist families need a totally 2-inconsistent class")
    base = knot_surgery_context(d.p, d.q).d3(d.signed_counts)
    big_r = abs(rotation_data(d).R)
    pq = d.p * d.q
    if pq > 0:
        return base + big_r - pq
    return base - big_r - pq


def self_linking(tb: int, rot: int) -> int:
    """Self-linking number of the transverse push-off."""
    return tb - rot


def parity_ok(pq_positive: bool, torsion_is_half_integer: bool, d3_value: int) -> bool:
    """Parity law for d3 of structures supporting non-loose representatives."""
    odd = (pq_positive and not torsion_is_half_integer) or (
        not pq_positive and torsion_is_half_integer
    )
    return d3_value % 2 == (1 if odd else 0)
