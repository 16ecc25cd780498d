"""Command-line front end.

Verbs: classify, paths, decorations, surgery, invariants, mountain, verify.
Exit codes: 0 success, 1 usage error or stdout closed early, 2 verification
or audit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .atlas import classify, mountain_range
from .decorations import (
    classify_consistency,
    decoration_string,
    enumerate_decorations,
    parse_decoration,
    sign_strings,
)
from .farey import InvariantError
from .invariants import cross_check_rot, rotation_data, self_linking
from .paths import build_pair
from .surgery import compile_diagram

# checks, render and serialize are imported by the verbs that use them, so a
# CLI run loads only what its verb needs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def _add_knot_args(sub):
    sub.add_argument("p", type=int, help="longitudinal winding, p > 1")
    sub.add_argument("q", type=int, help="meridional winding, |q| > p, signed")


def build_parser() -> _Parser:
    parser = _Parser(prog="nonloose", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)

    sc = subs.add_parser("classify", help="full atlas of one torus knot class")
    _add_knot_args(sc)
    sc.add_argument("--max-torsion2", type=int, default=4)
    sc.add_argument("--format", choices=("json", "text"), default="text")

    sp = subs.add_parser("paths", help="the canonical Farey path pair and blocks")
    _add_knot_args(sp)
    sp.add_argument("--format", choices=("json", "text"), default="text")

    sd = subs.add_parser("decorations", help="decoration classes with invariants")
    _add_knot_args(sd)
    sd.add_argument("--format", choices=("json", "text"), default="text")

    ss = subs.add_parser("surgery", help="surgery presentation of one decoration")
    _add_knot_args(ss)
    ss.add_argument("--decoration", required=True, help='e.g. "P1:+-|P2:++-"')
    ss.add_argument("--format", choices=("json", "text"), default="text")

    si = subs.add_parser("invariants", help="rotation data of one decoration")
    _add_knot_args(si)
    si.add_argument("--decoration", required=True)
    si.add_argument("--format", choices=("json", "text"), default="text")

    sm = subs.add_parser("mountain", help="mountain range of one structure")
    _add_knot_args(sm)
    sm.add_argument("--d3", type=int, required=True)
    sm.add_argument("--max-torsion2", type=int, default=4)
    sm.add_argument("--tb-min", type=int, default=None)
    sm.add_argument("--tb-max", type=int, default=None)
    sm.add_argument("--format", choices=("ascii", "json", "svg"), default="ascii")

    sv = subs.add_parser("verify", help="run the property and golden suites")
    sv.add_argument("--pmax", type=int, default=7)
    sv.add_argument("--qmax", type=int, default=14)
    return parser


def _cmd_classify(args) -> int:
    atlas = classify(args.p, args.q, args.max_torsion2)
    if args.format == "json":
        from .serialize import atlas_to_dict

        sys.stdout.write(_dump(atlas_to_dict(atlas)))
        return 0
    print(f"({args.p},{args.q})-torus knot: counts {dict(atlas.counts)}")
    for st in atlas.structures:
        flags = []
        if st.exceptional:
            flags.append("exceptional")
        if st.half_integer_torsion:
            flags.append("half-integer torsion")
        print(f"d3 = {st.d3}" + (f"  [{', '.join(flags)}]" if flags else ""))
        for f in st.families:
            span = f"tb {f.tb_min if f.tb_min is not None else '-inf'}..{f.tb_max if f.tb_max is not None else 'inf'}"
            law = f"rot = {f.rot_slope}*tb{f.rot_intercept:+d}" if f.rot_slope else f"rot = {f.rot_intercept}"
            print(
                f"  {f.id:8s} {f.kind:13s} {span:18s} {law:18s} torsion2={f.torsion2} "
                f"S+={f.stab_plus} S-={f.stab_minus}"
            )
        for note in st.notes:
            print(f"  note: {note}")
    print("transverse classes:")
    for t in atlas.transverse:
        chain = ", ".join(
            f"sl={c.sl} torsion2={c.torsion2}" + ("" if c.next is None else " -> next")
            for c in t.classes
        )
        print(f"  d3 = {t.d3}: {chain}")
    return 0


def _cmd_paths(args) -> int:
    from .serialize import paths_to_dict

    pair = build_pair(args.p, args.q)
    data = paths_to_dict(pair)
    if args.format == "json":
        sys.stdout.write(_dump(data))
        return 0
    print("P1:", " -> ".join(data["P1"]))
    print("P2:", " -> ".join(data["P2"]))
    print("P2 truncated:", " -> ".join(data["P2_truncated"]))
    for b in data["blocks"]:
        tag = "" if b["in_truncation"] else "  (integer-run suffix)"
        print(f"block {b['index']} [{b['side']}]: {' -> '.join(b['vertices'])}{tag}")
    return 0


def _cmd_decorations(args) -> int:
    rows = []
    for d in enumerate_decorations(args.p, args.q):
        cc = classify_consistency(d)
        data = rotation_data(d)
        along_p1, along_p2 = sign_strings(d)
        folded = ",".join(along_p1[::-1] + along_p2)
        rows.append(
            {
                "decoration": decoration_string(d),
                "tuple": f"({folded})",
                "consistency": "totally_consistent" if cc.kind == "totally_consistent" else f"{cc.i}-inconsistent",
                "totally_2_inconsistent": cc.totally_2_inconsistent,
                "tight": d.tight,
                "R": data.R,
                "d3": compile_diagram(d).d3,
            }
        )
    if args.format == "json":
        sys.stdout.write(_dump({"knot": {"p": args.p, "q": args.q}, "classes": rows}))
        return 0
    for row in rows:
        tags = []
        if row["tight"]:
            tags.append("tight")
        if row["totally_2_inconsistent"]:
            tags.append("tot2inc")
        print(
            f"{row['decoration']:24s} {row['tuple']:18s} {row['consistency']:20s} "
            f"d3={row['d3']:4d} R={row['R']:5d} {' '.join(tags)}"
        )
    return 0


def _cmd_surgery(args) -> int:
    from .serialize import diagram_to_dict

    d = parse_decoration(args.p, args.q, args.decoration)
    diagram = compile_diagram(d)
    sigma, chi = diagram.sigma, diagram.chi
    data = diagram_to_dict(diagram)
    data.update(
        {
            "sigma": sigma,
            "chi": chi,
            "d3": diagram.d3,
            "rot_surgered": diagram.rot_l,
        }
    )
    if args.format == "json":
        sys.stdout.write(_dump(data))
        return 0
    print("rational coefficients:", ", ".join(data["rational_coefficients"]))
    for c in data["components"]:
        kind = "(+1)" if c["is_plus_one"] else "(-1)"
        print(
            f"  {kind} contact, smooth {c['smooth_coefficient']:>6s}, "
            f"rot {c['rotation']:3d}, stabilizations {c['stabilizations']}"
        )
    print("linking matrix:")
    for row in data["linking_matrix"]:
        print("  [" + " ".join(f"{x:4d}" for x in row) + "]")
    print(f"sigma = {sigma}, chi = {chi}, d3 = {data['d3']}, rot(L) = {data['rot_surgered']}")
    return 0


def _cmd_invariants(args) -> int:
    d = parse_decoration(args.p, args.q, args.decoration)
    data = rotation_data(d)
    diagram = compile_diagram(d)
    payload = {
        "decoration": decoration_string(d),
        "r_m": data.r_m,
        "r_n": data.r_n,
        "R": data.R,
        "rot_surgered": diagram.rot_l,
        "cross_check": cross_check_rot(d),
        "d3": diagram.d3,
        "sl_at_tb_pq": self_linking(args.p * args.q, data.R),
    }
    if args.format == "json":
        sys.stdout.write(_dump(payload))
        return 0
    for k, v in payload.items():
        print(f"{k} = {v}")
    return 0


def _cmd_mountain(args) -> int:
    atlas = classify(args.p, args.q, args.max_torsion2)
    window = None
    if args.tb_min is not None or args.tb_max is not None:
        if args.tb_min is None or args.tb_max is None:
            raise ValueError("give both --tb-min and --tb-max, or neither")
        window = (args.tb_min, args.tb_max)
    mr = mountain_range(atlas, args.d3, window)
    if args.format == "json":
        from .serialize import mountain_to_dict

        sys.stdout.write(_dump(mountain_to_dict(mr)))
        return 0
    from .render import render_ascii, render_svg

    sys.stdout.write(render_svg(mr) if args.format == "svg" else render_ascii(mr))
    return 0


def _cmd_verify(args) -> int:
    from . import checks

    failures = 0
    for name, ok, detail in checks.run_all(args.pmax, args.qmax):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    return 2 if failures else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "paths": _cmd_paths,
    "decorations": _cmd_decorations,
    "surgery": _cmd_surgery,
    "invariants": _cmd_invariants,
    "mountain": _cmd_mountain,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.verb](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); point stdout at devnull so
        # the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
