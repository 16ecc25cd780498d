"""Regenerate reference.json: the digest of every output a seed can draw.

    python3 perfbench/make_reference.py

Run once on the commit whose outputs are pinned by the acceptance tests;
every later run is judged against these digests (failed_frac).  Takes
about two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from nonloose.decorations import decoration_string, enumerate_decorations  # noqa: E402
from nonloose.surgery import knot_surgery_context  # noqa: E402

import workloads as wl  # noqa: E402
from ops import Engine  # noqa: E402

LONG_CHAIN_MIN_COMPONENTS = 30
CLI_KNOTS = ((2, 3), (2, -3), (2, 5), (2, -7), (3, 4), (3, -5), (4, 7), (5, 8), (5, -8), (3, -10))


def source_digest() -> str:
    return wl.digest(b"".join(p.read_bytes() for p in sorted((ROOT / "src/nonloose").glob("*.py"))))


def cli_commands(engine: Engine) -> list[list[str]]:
    cmds = []
    for p, q in CLI_KNOTS:
        knot = [str(p), str(q)]
        cmds += [["classify", *knot, "--format", "json"], ["classify", *knot]]
        cmds += [["paths", *knot], ["paths", *knot, "--format", "json"]]
        cmds += [["decorations", *knot], ["decorations", *knot, "--format", "json"]]
        decs = enumerate_decorations(p, q)
        for dec, fmt in ((decs[0], "text"), (decs[-1], "json")):
            text = decoration_string(dec)
            cmds += [["surgery", *knot, "--decoration", text, "--format", fmt]]
            cmds += [["invariants", *knot, "--decoration", text, "--format", fmt]]
        for d3 in sorted({s.d3 for s in engine.classify(p, q, 4).structures}):
            cmds += [["mountain", *knot, "--d3", str(d3)]]
            cmds += [["mountain", *knot, "--d3", str(d3), "--format", "svg"]]
    return cmds


def run_cli(args: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "nonloose.cli", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
    )
    return proc.returncode, wl.digest(proc.stdout)


def main() -> int:
    engine = Engine()
    ref = {
        "meta": {
            "python": platform.python_version(),
            "src_sha256": source_digest(),
            "max_torsion2": wl.MAX_TORSION2,
            "digest": "first 128 bits of sha256, hex",
        }
    }
    ref["sweep"] = [
        [p, q, wl.digest(engine.atlas_json(p, q)), len(engine.classify(p, q, wl.MAX_TORSION2).structures)]
        for p, q in wl.sweep_classes()
    ]
    print(f"sweep: {len(ref['sweep'])} classes", file=sys.stderr)
    rows = []
    for p, q in wl.long_chain_candidates():
        size = knot_surgery_context(p, q).size
        if size >= LONG_CHAIN_MIN_COMPONENTS:
            rows.append([p, q, wl.digest(engine.atlas_json(p, q)), size])
    ref["long_chain"] = rows
    print(f"long-chain: {len(rows)} classes", file=sys.stderr)

    rows = []
    for p, q in wl.mountain_pool():
        atlas = engine.classify(p, q, wl.MAX_TORSION2)
        for d3 in sorted({s.d3 for s in atlas.structures}):
            outs = {}
            for fmt in wl.MOUNTAIN_FORMATS:
                out = engine.mountain(p, q, d3, fmt, None, None)
                outs[fmt] = out if out == wl.REFUSED else wl.digest(out)
            w = min(wl.WIDE_WINDOWS)
            for fmt in ("ascii", "svg"):
                if engine.mountain(p, q, d3, fmt, -w, w) != wl.REFUSED:
                    raise SystemExit(f"wide window not refused for ({p},{q}) d3={d3}")
            rows.append([p, q, d3, outs])
    ref["mountain"] = rows
    print(f"mountain: {len(rows)} ranges", file=sys.stderr)

    ref["cli"] = [[args, *run_cli(args)] for args in cli_commands(engine)]
    print(f"cli: {len(ref['cli'])} commands", file=sys.stderr)

    parts = [f'"meta": {json.dumps(ref["meta"])}']
    for key in ("sweep", "long_chain", "mountain", "cli"):
        body = ",\n".join(json.dumps(r) for r in ref[key])
        parts.append(f'"{key}": [\n{body}\n]')
    wl.REFERENCE.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
