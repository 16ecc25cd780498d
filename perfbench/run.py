"""The nonloose benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every workload

Run from the root of a checkout (it reads `src/` and writes only under
`perfbench/out/`).  Every workload is a closed loop with one client: the
next operation starts only after the previous one returned.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer metrics of a
traced run (see README.md).  Each run checks every output against
reference.json; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

MAX_WORKERS = 64
CLI_WARM = 3
PROBES = 5
PROBE_CLI = ["classify", "5", "8", "--format", "json"]
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nonloose.cli; "
    "print(time.perf_counter() - t)"
)

SPEC_PATH = ROOT / "BENCHMARK.json"


def child_env() -> dict:
    """Children import the engine from this checkout's src/, with asserts
    on and a pinned hash seed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    return env


class Child:
    """One child process, timed from spawn to exit, its peak resident
    memory read from the kernel's rusage when it is reaped."""

    def __init__(self, argv: list[str], quiet: bool = True):
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if quiet else None,
        )

    def readline(self) -> bytes:
        return self.proc.stdout.readline()

    def finish(self) -> bytes:
        try:
            out = self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.wall_s = perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_kb = usage.ru_maxrss
        return out


class Phase:
    """What one untraced or traced stretch of a run measured."""

    def __init__(self):
        self.lat: list[float] = []  # seconds per operation
        self.outcomes: list[tuple[int, object]] = []  # (plan index, outcome)
        self.bad: dict[int, list[str]] = {}  # plan index -> cross-check failures
        self.loop_s = 0.0
        self.setup_s: list[float] = []
        self.rss_kb: list[int] = []
        self.crashed = 0
        self.add: dict[str, float] = {}
        self.max: dict[str, float] = {}

    def merge_trace(self, trace: dict) -> None:
        for k, v in trace["add"].items():
            self.add[k] = self.add.get(k, 0) + v
        for k, v in trace["max"].items():
            self.max[k] = max(self.max.get(k, 0), v)

    def ops_per_s(self) -> float:
        return len(self.lat) / self.loop_s if self.loop_s else 0.0


def run_worker(plan: wl.Plan, phase: Phase, start: int, end: int, budget: float,
               traced: bool) -> int:
    """Run plan operations [start, end) in one fresh worker process, which
    stops early after `budget` seconds; returns the operations done."""
    spans_path = OUT / f"spans-{plan.name}-{len(phase.setup_s)}.json"
    child = Child([
        sys.executable, str(HERE / "worker.py"), plan.name, str(plan.seed), str(start),
        str(end), repr(budget), "1" if traced else "0", str(spans_path),
    ], quiet=False)
    ready = child.readline()
    t_ready = perf_counter()
    out = child.finish()
    if ready.strip() != b"ready" or child.proc.returncode != 0:
        phase.crashed += 1
        return 0
    res = json.loads(out.decode().splitlines()[-1])
    phase.setup_s.append(t_ready - child.t0)
    phase.rss_kb.append(child.rss_kb)
    phase.loop_s += res["loop_s"]
    phase.lat += res["lat"]
    phase.outcomes += [(start + k, o) for k, o in enumerate(res["out"])]
    phase.bad.update({int(k): v for k, v in res.get("bad", {}).items()})
    if traced:
        phase.merge_trace(res["trace"])
    return len(res["lat"])


def run_cli_op(plan: wl.Plan, phase: Phase, i: int, traced: bool) -> float:
    """One CLI child for plan operation i; returns its wall time.  The
    traced variant runs the command under cli_traced.py."""
    args = plan.op(i)
    spans_path = OUT / f"spans-cli-{i}.json"
    if traced:
        argv = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path), *args]
    else:
        argv = [sys.executable, "-m", "nonloose.cli", *args]
    child = Child(argv)
    out = child.finish()
    phase.lat.append(child.wall_s)
    phase.rss_kb.append(child.rss_kb)
    phase.outcomes.append((i, [child.proc.returncode, wl.digest(out)]))
    if traced and not spans_path.exists():
        phase.crashed += 1
    elif traced:
        with open(spans_path, encoding="utf-8") as fh:
            phase.merge_trace(json.load(fh))
    return child.wall_s


def run_untraced(plan: wl.Plan, budget: float) -> Phase:
    """Operations one after another until `budget` seconds of them ran:
    each worker process a fresh interpreter on the next chunk of the plan,
    or for `cli` one child per operation after three warm-up calls."""
    phase = Phase()
    if plan.name == "cli":
        for _ in range(CLI_WARM):
            child = Child([sys.executable, "-m", "nonloose.cli", *PROBE_CLI])
            child.finish()
            phase.setup_s.append(child.wall_s)
        t_start = perf_counter()
        while perf_counter() - t_start < budget:
            run_cli_op(plan, phase, len(phase.lat), False)
        phase.loop_s = perf_counter() - t_start
        return phase
    start = 0
    while phase.loop_s < budget * 0.999 and len(phase.setup_s) < MAX_WORKERS:
        done = run_worker(plan, phase, start, plan.chunk_end(start), budget - phase.loop_s, False)
        if not done:
            break
        start += done
    return phase


def run_traced(plan: wl.Plan, budget: float) -> tuple[Phase, Phase]:
    """Untraced and traced runs of the same operations, interleaved so that
    both see the same machine: each untraced unit (a worker's chunk, or one
    CLI call) is followed by a traced unit on the same operations, until
    the untraced units used `budget` seconds."""
    plain, traced = Phase(), Phase()
    start = 0
    while plain.loop_s < budget * 0.999:
        if plan.name == "cli":
            plain.loop_s += run_cli_op(plan, plain, start, False)
            traced.loop_s += run_cli_op(plan, traced, start, True)
            start += 1
            continue
        if len(plain.setup_s) >= MAX_WORKERS:
            break
        done = run_worker(plan, plain, start, plan.chunk_end(start), budget - plain.loop_s, False)
        if not done or not run_worker(plan, traced, start, start + done, float("inf"), True):
            break
        start += done
    return plain, traced


def probe_cli() -> dict:
    """Medians of a bare interpreter, of importing the CLI module (timed
    inside the child) and of one small CLI call."""
    bare, imports, calls = [], [], []
    for _ in range(PROBES):
        child = Child([sys.executable, "-c", "pass"])
        child.finish()
        bare.append(child.wall_s)
        child = Child([sys.executable, "-c", IMPORT_PROBE])
        imports.append(float(child.finish()))
        child = Child([sys.executable, "-m", "nonloose.cli", *PROBE_CLI])
        child.finish()
        calls.append(child.wall_s)
    return {
        "cli.interpreter_ms": statistics.median(bare) * 1000.0,
        "cli.import_ms": statistics.median(imports) * 1000.0,
        "cli.child_wall_ms": statistics.median(calls) * 1000.0,
    }


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(phase: Phase) -> dict:
    return {
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": statistics.median(phase.lat) * 1000.0,
        "op_p90_ms": percentile(phase.lat, 90) * 1000.0,
        "peak_rss_kb": statistics.median(phase.rss_kb),
        "setup_s": statistics.median(phase.setup_s),
    }


def per_layer(traced: Phase, untraced: Phase, names) -> dict:
    add, peak = traced.add, traced.max
    out = {k: add.get(k, 0) for k in names}
    filled = add.get("atlas.mountain_filled", 0)
    out["atlas.mountain_useful_ratio"] = add.get("atlas.mountain_rendered", 0) / filled if filled else 0.0
    for cache in ("build_pair", "decompose_blocks", "surgery_context", "classify"):
        hits, misses = add.get(f"cache.{cache}.hits", 0), add.get(f"cache.{cache}.misses", 0)
        out[f"cache.{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"cache.{cache}.entries"] = peak.get(f"cache.{cache}.entries", 0)
    out.update(probe_cli())
    base = untraced.ops_per_s()
    out["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / base if base else 0.0
    return out


def judge(plan: wl.Plan, phase: Phase) -> list[str]:
    """One line per failed operation: output bytes differ from the
    reference, an unexpected exception, or a failed cross-check."""
    failures = []
    for i, outcome in phase.outcomes:
        expected = plan.expect(i)
        if outcome != expected:
            failures.append(f"op {i} {plan.op(i)}: got {outcome}, expected {expected}")
        elif i in phase.bad:
            failures.append(f"op {i} {plan.op(i)}: " + "; ".join(phase.bad[i]))
    return failures


def metadata(args) -> dict:
    lines = {
        p.name: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src/nonloose").glob("*.py"))
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args, ref: dict, spec_units: dict) -> dict:
    plan = wl.Plan(args.workload, args.seed, ref)
    if args.trace:
        for old in OUT.glob(f"spans-{args.workload}-*.json"):
            old.unlink()
        untraced, traced = run_traced(plan, args.seconds / 2)
        phases = [untraced, traced]
        units = spec_units["per_layer"]
        metrics = per_layer(traced, untraced, units)
    else:
        phases = [run_untraced(plan, args.seconds)]
        if not phases[0].lat:
            raise SystemExit("error: no operation completed; see the worker's stderr")
        metrics = end_to_end(phases[0])
        units = spec_units["end_to_end"]
    failures = []
    for phase in phases:
        failures += judge(plan, phase)
    attempted = sum(len(p.outcomes) for p in phases)
    crashed = sum(p.crashed for p in phases)
    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)
    samples = sum(len(p.lat) for p in phases)
    meta = metadata(args)
    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:34s} {value!r:>24s} {units[name]:6s} n={samples}")
    failed_frac = len(failures) / attempted if attempted else 1.0
    print(f"{args.workload:10s} {'failed_frac':34s} {failed_frac!r:>24s} {'frac':6s} "
          f"n={attempted} crashed_workers={crashed}")
    print("meta " + json.dumps(meta))
    result = {
        "correct": not failures and not crashed and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": len(failures) + crashed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"last-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "failed_frac": failed_frac}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; the engine's asserts are part of the work", file=sys.stderr)
        return 2
    if not (ROOT / "src/nonloose/__init__.py").is_file() or not wl.REFERENCE.is_file():
        print(f"error: no nonloose sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    ref = wl.load_reference()
    if args.workload != "all":
        print(json.dumps(run_one(args, ref, units)))
        return 0
    results = {}
    for name in wl.NAMES:
        results[name] = run_one(argparse.Namespace(**{**vars(args), "workload": name}), ref, units)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
