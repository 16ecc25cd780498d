"""Command-line front end.

Verbs: classify, paths, decorations, surgery, invariants, mountain, verify.
Exit codes: 0 success, 1 usage error or stdout closed early, 2 verification
or audit failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .atlas import MAX_ATLAS_BYTES, classify, mountain_range, refuse_above
from .decorations import (
    class_counts,
    decoration_string,
    enumerate_decorations,
    parse_decoration,
    sign_strings,
)
from .farey import InvariantError
from .invariants import cross_check_rot, rotation_data, self_linking
from .paths import build_pair, knot
from .surgery import compile_diagram, knot_surgery_context

# checks, render, serialize and json are imported where they are used, so a
# verb skips those it does not need; the package __init__ still loads atlas,
# decorations, invariants, paths and surgery for every verb


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="nonloose", description=__doc__)
    subs = parser.add_subparsers(dest="verb", required=True)

    def knot_verb(run, name, summary, formats=("json", "text"), default="text", **options):
        # argparse prints arguments in the order they are added: p, q, the
        # verb's options (`opt_name` becomes --opt-name), then --format
        sub = subs.add_parser(name, help=summary)
        sub.add_argument("p", type=int, help="longitudinal winding, p > 1")
        sub.add_argument("q", type=int, help="meridional winding, |q| > p, signed")
        for dest, kwargs in options.items():
            sub.add_argument("--" + dest.replace("_", "-"), **kwargs)
        sub.add_argument("--format", choices=formats, default=default)
        sub.set_defaults(run=run)

    knot_verb(_cmd_classify, "classify", "full atlas of one torus knot class",
              max_torsion2=dict(type=int, default=4))
    knot_verb(_cmd_paths, "paths", "the canonical Farey path pair and blocks")
    knot_verb(_cmd_decorations, "decorations", "decoration classes with invariants")
    knot_verb(_cmd_surgery, "surgery", "surgery presentation of one decoration",
              decoration=dict(required=True, help='e.g. "P1:+-|P2:++-"'))
    knot_verb(_cmd_invariants, "invariants", "rotation data of one decoration",
              decoration=dict(required=True))
    knot_verb(_cmd_mountain, "mountain", "mountain range of one structure", ("ascii", "json", "svg"), "ascii",
              d3=dict(type=int, required=True), max_torsion2=dict(type=int, default=4),
              tb_min=dict(type=int), tb_max=dict(type=int))

    sv = subs.add_parser("verify", help="run the property and golden suites")
    sv.add_argument("--pmax", type=int, default=7)
    sv.add_argument("--qmax", type=int, default=14)
    return parser


def _cmd_classify(args) -> dict | str:
    atlas = classify(args.p, args.q, args.max_torsion2)
    if args.format == "json":
        from .serialize import atlas_to_dict

        return atlas_to_dict(atlas)
    lines = [f"({args.p},{args.q})-torus knot: counts {dict(atlas.counts)}"]
    for st in atlas.structures:
        flags = []
        if st.exceptional:
            flags.append("exceptional")
        if st.half_integer_torsion:
            flags.append("half-integer torsion")
        lines.append(f"d3 = {st.d3}" + (f"  [{', '.join(flags)}]" if flags else ""))
        for f in st.families:
            span = f"tb {f.tb_min if f.tb_min is not None else '-inf'}..{f.tb_max if f.tb_max is not None else 'inf'}"
            law = f"rot = {f.rot_slope}*tb{f.rot_intercept:+d}" if f.rot_slope else f"rot = {f.rot_intercept}"
            lines.append(
                f"  {f.id:8s} {f.kind:13s} {span:18s} {law:18s} torsion2={f.torsion2} "
                f"S+={f.stab_plus} S-={f.stab_minus}"
            )
        for note in st.notes:
            lines.append(f"  note: {note}")
    lines.append("transverse classes:")
    for t in atlas.transverse:
        chain = ", ".join(
            f"sl={c.sl} torsion2={c.torsion2}" + ("" if c.next is None else " -> next")
            for c in t.classes
        )
        lines.append(f"  d3 = {t.d3}: {chain}")
    return "\n".join(lines) + "\n"


def _cmd_paths(args) -> dict | str:
    from .serialize import paths_to_dict

    pair = build_pair(args.p, args.q)
    data = paths_to_dict(pair)
    if args.format == "json":
        return data
    lines = [
        f"P1: {' -> '.join(data['P1'])}",
        f"P2: {' -> '.join(data['P2'])}",
        f"P2 truncated: {' -> '.join(data['P2_truncated'])}",
    ]
    for b in data["blocks"]:
        tag = "" if b["in_truncation"] else "  (integer-run suffix)"
        lines.append(f"block {b['index']} [{b['side']}]: {' -> '.join(b['vertices'])}{tag}")
    return "\n".join(lines) + "\n"


def _cmd_decorations(args) -> dict | str:
    # every row is built before the first byte is printed, so refuse before
    # enumerating: a row prints at most 3 sum(e_b) + 250 bytes (its decoration
    # string and sign tuple, plus keys and numbers)
    sizes = knot(args.p, args.q).sizes  # validates the knot class
    m = class_counts(args.p, args.q)[0]
    size = m * (3 * sum(sizes) + 250)
    refuse_above(size, "ATLAS_MAX_BYTES", MAX_ATLAS_BYTES,
                 f"({args.p},{args.q}) has {m} decoration classes, about {size} bytes of rows", "")
    rows = []
    ctx = knot_surgery_context(args.p, args.q)
    for d in enumerate_decorations(args.p, args.q):
        data = rotation_data(d)
        along_p1, along_p2 = sign_strings(d)
        folded = ",".join(along_p1[::-1] + along_p2)
        rows.append(
            {
                "decoration": decoration_string(d),
                "tuple": f"({folded})",
                "consistency": "totally_consistent" if d.breaking is None else f"{d.breaking}-inconsistent",
                "totally_2_inconsistent": d.totally2,
                "tight": d.tight,
                "R": data.R,
                "d3": ctx.d3(d.signed_counts),
            }
        )
    if args.format == "json":
        return {"knot": {"p": args.p, "q": args.q}, "classes": rows}
    lines = []
    for row in rows:
        tags = []
        if row["tight"]:
            tags.append("tight")
        if row["totally_2_inconsistent"]:
            tags.append("tot2inc")
        lines.append(
            f"{row['decoration']:24s} {row['tuple']:18s} {row['consistency']:20s} "
            f"d3={row['d3']:4d} R={row['R']:5d} {' '.join(tags)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_surgery(args) -> dict | str:
    from .serialize import diagram_to_dict

    d = parse_decoration(args.p, args.q, args.decoration)
    data = diagram_to_dict(compile_diagram(d))
    if args.format == "json":
        return data
    lines = ["rational coefficients: " + ", ".join(data["rational_coefficients"])]
    for c in data["components"]:
        kind = "(+1)" if c["is_plus_one"] else "(-1)"
        lines.append(
            f"  {kind} contact, smooth {c['smooth_coefficient']:>6s}, "
            f"rot {c['rotation']:3d}, stabilizations {c['stabilizations']}"
        )
    lines.append("linking matrix:")
    for row in data["linking_matrix"]:
        lines.append("  [" + " ".join(f"{x:4d}" for x in row) + "]")
    lines.append("sigma = {sigma}, chi = {chi}, d3 = {d3}, rot(L) = {rot_surgered}".format_map(data))
    return "\n".join(lines) + "\n"


def _cmd_invariants(args) -> dict | str:
    d = parse_decoration(args.p, args.q, args.decoration)
    data = rotation_data(d)
    ctx = knot_surgery_context(args.p, args.q)
    payload = {
        "decoration": decoration_string(d),
        "r_m": data.r_m,
        "r_n": data.r_n,
        "R": data.R,
        "rot_surgered": ctx.rot_l(d.signed_counts),
        "cross_check": cross_check_rot(d),
        "d3": ctx.d3(d.signed_counts),
        "sl_at_tb_pq": self_linking(args.p * args.q, data.R),
    }
    if args.format == "json":
        return payload
    return "".join(f"{k} = {v}\n" for k, v in payload.items())


def _cmd_mountain(args) -> dict | str:
    atlas = classify(args.p, args.q, args.max_torsion2)
    window = None
    if args.tb_min is not None or args.tb_max is not None:
        if args.tb_min is None or args.tb_max is None:
            raise ValueError("give both --tb-min and --tb-max, or neither")
        window = (args.tb_min, args.tb_max)
    mr = mountain_range(atlas, args.d3, window)
    if args.format == "json":
        from .serialize import mountain_to_dict

        return mountain_to_dict(mr)
    from .render import render_ascii, render_svg

    return render_svg(mr) if args.format == "svg" else render_ascii(mr)


def _cmd_verify(args) -> int:
    from . import checks

    if args.pmax < 2 or args.qmax < 3:
        raise ValueError(f"verify needs --pmax >= 2 and --qmax >= 3, got {args.pmax} and {args.qmax}")
    failures = 0
    for name, ok, detail in checks.run_all(args.pmax, args.qmax):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    return 2 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "verify":
            code = _cmd_verify(args)
        else:
            out, code = args.run(args), 0
            if args.format == "json":
                import json  # only the json formats pay for it

                out = json.dumps(out, indent=2) + "\n"
            sys.stdout.write(out)
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
