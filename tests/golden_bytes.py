"""The byte gate: atlas-v1 JSON and CLI stdout must not change.

Run from the repository root:

    python tests/golden_bytes.py

It checks six things and exits 1 on any difference:

- ATLAS_SHA256, the sha256 of the concatenated
  `json.dumps(atlas_to_dict(classify(p, q, t)), indent=2)` over 4,180
  atlases: t = 2, then t = 4; for each t every coprime 1 < p < |q| <= 60
  (p ascending, then |q|, +q before -q), then the panel knots below;
- LOW_TORSION_SHA256, the same digest over 2,700 atlases at the
  truncations t = 0, 1 and 3 (the empty tower and the odd half-Lutz
  levels), each over the knots above with |q| <= 40;
- the compact-JSON digest of every sweep and long-chain atlas in
  perfbench/reference.json;
- every CLI command in perfbench/reference.json: its exit code and the
  digest of its stdout (the verbs run in this process through `cli.main`);
- MOUNTAIN_JSON_DIGEST, the digest of the exit codes and stdout of
  `mountain p q --d3 d --format json` for each (p, q, d) among those
  commands' mountain ranges, which they print only as ASCII and SVG;
- VERIFY_DIGEST, the exit code and stdout digest of `nonloose verify` at
  its defaults (pmax 7, qmax 14): its seven PASS/FAIL lines.

perfbench/ is only read.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nonloose import cli  # noqa: E402
from nonloose.atlas import classify  # noqa: E402
from nonloose.checks import knot_classes  # noqa: E402
from nonloose.serialize import atlas_to_dict  # noqa: E402

ATLAS_SHA256 = "34bb57925dd4c27c92c01e1585548a4fe7909aed8360bd29d90a604beabce510"
ATLAS_COUNT = 4180
LOW_TORSION_SHA256 = "7e85e78aff3f57caf5107b76b78cdc0402ec3db5104a881bffcfab7df0cd381f"
LOW_TORSION_COUNT = 2700
PANEL = ((89, 144), (233, 377), (2, 1001), (2, -1001), (7, -100), (2, -4001))
VERIFY_DIGEST = (0, "6cc838aeb985db540471a790c57a6b8e")
MOUNTAIN_JSON_DIGEST = (56, "06ab44feac4f2336faff5f5b10df863f")
REFERENCE = ROOT / "perfbench" / "reference.json"


def golden_knots() -> list[tuple[int, int]]:
    return [*knot_classes(59, 60), *PANEL]


def atlas_sha256(truncations=(2, 4), qmax=None) -> tuple[str, int]:
    h, count = hashlib.sha256(), 0
    for t in truncations:
        for p, q in golden_knots():
            if qmax is None or abs(q) <= qmax:
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

    sha, count = atlas_sha256((0, 1, 3), qmax=40)
    if (sha, count) != (LOW_TORSION_SHA256, LOW_TORSION_COUNT):
        bad.append(f"t = 0, 1, 3 sha256 {sha} over {count} atlases, "
                   f"expected {LOW_TORSION_SHA256} over {LOW_TORSION_COUNT}")
    print(f"atlas-v1 sha256 at t = 0, 1, 3 over {count} atlases: {sha}")

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

    ranges = dict.fromkeys(tuple(args[1:5]) for args, _, _ in ref["cli"] if args[0] == "mountain")
    runs = b"".join(b"%d\n%s" % run_cli(["mountain", *key, "--format", "json"]) for key in ranges)
    if (len(ranges), digest(runs)) != MOUNTAIN_JSON_DIGEST:
        bad.append(f"mountain --format json: {digest(runs)} over {len(ranges)} ranges, "
                   f"expected {MOUNTAIN_JSON_DIGEST[1]} over {MOUNTAIN_JSON_DIGEST[0]}")
    print(f"mountain --format json over {len(ranges)} ranges: {digest(runs)}")

    code, out = run_cli(["verify"])
    if (code, digest(out)) != VERIFY_DIGEST:
        bad.append(f"verify: exit {code}, stdout {digest(out)}; expected exit {VERIFY_DIGEST[0]}, {VERIFY_DIGEST[1]}")
    print(f"verify: exit {code}, stdout {digest(out)}")

    for line in bad:
        print("MISMATCH", line)
    print(f"{'FAIL' if bad else 'OK'} in {perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
