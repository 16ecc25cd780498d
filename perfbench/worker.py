"""One closed-loop client process for the sweep, long-chain and mountain
workloads.

    python worker.py <workload> <seed> <start> <end> <budget_s> <trace 0|1> <spans_path>

Imports and warms the engine, prints `ready`, then runs the plan's
operations [start, end) one after another, stopping early when `budget_s`
seconds have passed (after at least one operation).  The
last stdout line is a JSON object with per-op latencies and output
digests.  The parent measures set-up time and peak memory of this process
from the outside.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from ops import Engine, cross_check  # noqa: E402
from workloads import MAX_TORSION2, MOUNTAIN_FORMATS, REFUSED, Plan, digest, load_reference  # noqa: E402

# classes outside every pool, used only to warm the engine
WARM = ((2, 43), (3, -41))


def main(argv: list[str]) -> int:
    name, seed, start, end, budget, traced, spans_path = argv
    seed, start, end, budget = int(seed), int(start), int(end), float(budget)
    traced = traced == "1"

    engine = Engine()
    plan = Plan(name, seed, load_reference())
    if name == "mountain":
        for p, q in plan.hot:
            engine.classify(p, q, MAX_TORSION2)
        first = plan.hot[0]
        d3 = engine.classify(*first, MAX_TORSION2).structures[0].d3
        for fmt in MOUNTAIN_FORMATS:
            engine.mountain(*first, d3, fmt, None, None)
    else:
        for p, q in WARM:
            engine.atlas_json(p, q)
    print("ready", flush=True)
    plan.op(start)

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        before = spans.cache_snapshot()
        tracer.install()
        engine = Engine(tracer.wrap)

    lat, outs = [], []
    i = start
    t_start = perf_counter()
    while True:
        op = plan.op(i)
        if tracer is not None:
            tracer.current_op = i
        t0 = perf_counter()
        try:
            if name == "mountain":
                out = engine.mountain(*op)
            else:
                out = engine.atlas_json(*op)
        except Exception as exc:  # a failed operation, judged by the parent
            t1 = perf_counter()
            outs.append(f"error: {type(exc).__name__}: {exc}")
        else:
            t1 = perf_counter()
            outs.append(out if out == REFUSED else digest(out))
        lat.append(t1 - t0)
        i += 1
        if i == end or t1 - t_start >= budget:
            break
    loop_s = perf_counter() - t_start

    result = {"start": start, "n": len(lat), "loop_s": loop_s, "lat": lat, "out": outs}
    if tracer is not None:
        tracer.uninstall()
        add, peak = spans.cache_delta(before, spans.cache_snapshot())
        add.update(tracer.layer_sums())
        result["trace"] = {"add": add, "max": peak}
        tracer.dump(spans_path)
    if name != "mountain":
        bad = {}
        for k in range(len(lat)):
            if not outs[k].startswith("error"):
                problems = cross_check(*plan.op(start + k))
                if problems:
                    bad[start + k] = problems
        result["bad"] = bad
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
