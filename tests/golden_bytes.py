"""The byte gate: atlas-v1 JSON and CLI stdout must not change.

Run from the repository root:

    python tests/golden_bytes.py

It checks three things and exits 1 on any difference:

- ATLAS_SHA256, the sha256 of the concatenated
  `json.dumps(atlas_to_dict(classify(p, q, t)), indent=2)` over 4,180
  atlases: t = 2, then t = 4; for each t every coprime 1 < p < |q| <= 60
  (p ascending, then |q|, +q before -q), then the panel knots below;
- the compact-JSON digest of every sweep and long-chain atlas in
  perfbench/reference.json;
- every CLI command in perfbench/reference.json: its exit code and the
  digest of its stdout (the verbs run in this process through `cli.main`).

perfbench/ is only read.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nonloose import cli  # noqa: E402
from nonloose.atlas import classify  # noqa: E402
from nonloose.serialize import atlas_to_dict  # noqa: E402

ATLAS_SHA256 = "34bb57925dd4c27c92c01e1585548a4fe7909aed8360bd29d90a604beabce510"
ATLAS_COUNT = 4180
PANEL = ((89, 144), (233, 377), (2, 1001), (2, -1001), (7, -100), (2, -4001))
REFERENCE = ROOT / "perfbench" / "reference.json"


def golden_knots() -> list[tuple[int, int]]:
    out = []
    for p in range(2, 60):
        for aq in range(p + 1, 61):
            if gcd(p, aq) == 1:
                out += [(p, aq), (p, -aq)]
    return out + list(PANEL)


def atlas_sha256() -> tuple[str, int]:
    h, count = hashlib.sha256(), 0
    for t in (2, 4):
        for p, q in golden_knots():
            h.update(json.dumps(atlas_to_dict(classify(p, q, t)), indent=2).encode())
            count += 1
    return h.hexdigest(), count


def digest(data: bytes) -> str:
    """perfbench's digest: the first 128 bits of the sha256, in hex."""
    return hashlib.sha256(data).hexdigest()[:32]


def run_cli(args: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue().encode()


def main() -> int:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    bad = []
    start = perf_counter()

    sha, count = atlas_sha256()
    if (sha, count) != (ATLAS_SHA256, ATLAS_COUNT):
        bad.append(f"atlas sha256 {sha} over {count} atlases, expected {ATLAS_SHA256} over {ATLAS_COUNT}")
    print(f"atlas-v1 sha256 over {count} atlases: {sha}")

    atlases = 0
    for key in ("sweep", "long_chain"):
        for p, q, want, _ in ref[key]:
            got = digest(json.dumps(atlas_to_dict(classify(p, q, 2))).encode())
            atlases += 1
            if got != want:
                bad.append(f"{key} ({p},{q}) compact JSON digest {got}, expected {want}")
    print(f"compact JSON digests: {atlases} sweep and long-chain atlases")

    for args, want_code, want in ref["cli"]:
        code, out = run_cli(args)
        if (code, digest(out)) != (want_code, want):
            bad.append(f"cli {' '.join(args)}: exit {code}, stdout {digest(out)}; expected exit {want_code}, {want}")
    print(f"cli commands: {len(ref['cli'])}")

    for line in bad:
        print("MISMATCH", line)
    print(f"{'FAIL' if bad else 'OK'} in {perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
