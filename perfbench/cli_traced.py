"""Run one `nonloose.cli` command with spans recorded at the engine's
module boundaries.

    python cli_traced.py <spans.json> <cli args...>

Stdout and the exit code are the CLI's own; the spans and the per-layer
sums go to <spans.json>.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from nonloose import cli  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    tracer = spans.Tracer()
    before = spans.cache_snapshot()
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    add, peak = spans.cache_delta(before, spans.cache_snapshot())
    add.update(tracer.layer_sums())
    tracer.dump(out_path, add=add, max=peak)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
