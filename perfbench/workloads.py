"""Workload definitions: seeded input plans and the reference they are
checked against.

Everything here is stdlib only and never imports the engine, so the parent
harness can build plans and judge outcomes without loading `nonloose`.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

NAMES = ("sweep", "long-chain", "mountain", "cli")

MAX_TORSION2 = 2
PANEL = ((89, 144), (2, -1001), (7, -100))
# mountain: a wide explicit window must be refused by the 10^4-cell guard
WIDE_WINDOWS = (500, 750, 1000)
WIDE_EVERY = 10
MOUNTAIN_FORMATS = ("ascii", "svg", "json")
REFUSED = "refused"
# operations per worker process
CHUNKS_PER_PASS = {"sweep": 2, "long-chain": 4}
MOUNTAIN_CHUNK = 2000


def sweep_classes() -> list[tuple[int, int]]:
    """Every coprime class with 1 < p < |q| <= 40, plus the panel knots."""
    out = []
    for q_abs in range(3, 41):
        for p in range(2, q_abs):
            if gcd(p, q_abs) == 1:
                out.extend([(p, q_abs), (p, -q_abs)])
    return out + list(PANEL)


def long_chain_candidates() -> list[tuple[int, int]]:
    """p in 2..5, 61 <= q <= 241; the reference keeps those whose DGS
    chains have at least 30 components."""
    return [(p, q) for p in range(2, 6) for q in range(61, 242) if gcd(p, q) == 1]


def mountain_pool() -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(2, 13)
        for q in list(range(-20, -p)) + list(range(p + 1, 21))
        if gcd(p, abs(q)) == 1
    ]


def digest(data) -> str:
    """The first 128 bits of the sha256 of an output, in hex."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:32]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def stratified_rounds(items, weight, rng: random.Random, group: int):
    """An endless order over `items`, in cycles that visit every item once.

    Items are cut into strata of `group` items of adjacent weight; a cycle
    is `group` rounds, and each round takes one item from every stratum in
    random order.  A run cut at any point thus sees nearly the same cost mix.
    With one stratum (group >= len(items)) a cycle is a plain shuffle."""
    ranked = sorted(items, key=weight)
    strata = [ranked[i : i + group] for i in range(0, len(ranked), group)]
    while True:
        for s in strata:
            rng.shuffle(s)
        for r in range(group):
            order = list(range(len(strata)))
            rng.shuffle(order)
            for k in order:
                if r < len(strata[k]):
                    yield strata[k][r]


class Plan:
    """The seeded operations of one workload, generated on demand.

    `op(i)` is what a worker (or, for `cli`, a child process) receives and
    `expect(i)` its reference outcome.  A worker process runs one chunk of
    the plan, `[start, chunk_end(start))`, so its peak memory measures a
    fixed amount of work, not however much fitted in the time.  Chunks of
    the cold workloads lie inside one pass over the classes: no class
    repeats inside one process.
    """

    def __init__(self, name: str, seed: int, ref: dict):
        self.name, self.seed = name, seed
        rng = random.Random(f"{name}:{seed}")
        self.hot: list[list[int]] = []
        self.pass_len = None
        self.chunk = MOUNTAIN_CHUNK
        if name in ("sweep", "long-chain"):
            table = ref["sweep" if name == "sweep" else "long_chain"]
            self.pass_len = len(table)
            self.chunk = -(-len(table) // CHUNKS_PER_PASS[name])
            order = stratified_rounds([tuple(r) for r in table], lambda r: r[3], rng, 10)
            gen = (([p, q], digest) for p, q, digest, _ in order)
        elif name == "mountain":
            gen = self._mountain(ref, rng)
        elif name == "cli":
            gen = ((argv, [code, digest]) for argv, code, digest in
                   stratified_rounds(ref["cli"], lambda r: 0, rng, len(ref["cli"])))
        else:
            raise ValueError(f"unknown workload {name!r}")
        self._gen = gen
        self._rows: list = []

    def _row(self, i: int):
        while len(self._rows) <= i:
            self._rows.append(next(self._gen))
        return self._rows[i]

    def op(self, i: int):
        return self._row(i)[0]

    def expect(self, i: int):
        return self._row(i)[1]

    def chunk_end(self, i: int) -> int:
        if self.pass_len is None:
            return (i // self.chunk + 1) * self.chunk
        base, offset = divmod(i, self.pass_len)
        return base * self.pass_len + min(self.pass_len, (offset // self.chunk + 1) * self.chunk)

    def _mountain(self, ref: dict, rng: random.Random):
        by_class: dict[tuple[int, int], dict] = {}
        for p, q, d3, outs in ref["mountain"]:
            by_class.setdefault((p, q), {})[d3] = outs
        # the hot set: one positive and one negative class for every p, plus two
        hot = []
        for p in range(2, 13):
            for sign in (+1, -1):
                hot.append(rng.choice(sorted(
                    k for k in by_class if k[0] == p and k[1] * sign > 0
                )))
        hot.extend(rng.sample(sorted(set(by_class) - set(hot)), 2))
        hot.sort()
        self.hot = [list(c) for c in hot]
        pairs = [(p, q, d3) for p, q in hot for d3 in sorted(by_class[(p, q)])]
        default = stratified_rounds(
            [pqd + (fmt,) for pqd in pairs for fmt in MOUNTAIN_FORMATS],
            lambda r: 0, rng, len(pairs) * len(MOUNTAIN_FORMATS),
        )
        wide = stratified_rounds(pairs, lambda r: 0, rng, len(pairs))

        def ops():
            k = 0
            while True:
                at = rng.randrange(WIDE_EVERY)
                for j in range(WIDE_EVERY):
                    if j == at:
                        p, q, d3 = next(wide)
                        w = WIDE_WINDOWS[k % len(WIDE_WINDOWS)]
                        fmt = ("ascii", "svg")[k % 2]
                        k += 1
                        yield [p, q, d3, fmt, -w, w], REFUSED
                    else:
                        p, q, d3, fmt = next(default)
                        yield [p, q, d3, fmt, None, None], by_class[(p, q)][d3][fmt]

        return ops()

