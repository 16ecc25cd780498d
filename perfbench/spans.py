"""Spans at the engine's module boundaries, recorded from the outside.

`Tracer.install()` replaces every callable one `nonloose` module imported
from another (calls into `farey` excepted: too fine-grained) with a wrapper
that records a span (name, start, end, parent, op) in flat arrays, plus the
methods of the surgery-context object.  Nothing in the engine changes; the
wrappers are removed again by `uninstall()`.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

SKIP_LAYERS = {"farey"}
# lru caches whose hit ratio and size the traced run reports
CACHES = {
    "build_pair": ("nonloose.paths", "build_pair"),
    "decompose_blocks": ("nonloose.paths", "decompose_blocks"),
    "surgery_context": ("nonloose.surgery", "knot_surgery_context"),
    "classify": ("nonloose.atlas", "_classify_cached"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._contexts: dict[int, object] = {}
        self._hooks = {
            "decorations.enumerate_decorations": self._on_enumerated,
            "decorations.compatibility_orbit": self._on_orbit,
            "surgery.knot_surgery_context": self._on_context,
            "atlas.classify": self._on_atlas,
            "atlas.mountain_range": self._on_mountain,
            "render.render_ascii": self._on_render,
            "render.render_svg": self._on_render,
            "serialize.points_json": self._on_points_json,
            "serialize.json_dumps": self._on_dumps,
        }

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        hook = self._hooks.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_ix.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.end[idx] = perf_counter()
                stack.pop()
                self.errors[name] += 1
                raise
            self.end[idx] = perf_counter()
            stack.pop()
            if hook is not None:
                hook(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every cross-module callable of the loaded nonloose modules."""
        for modname, mod in sorted(sys.modules.items()):
            if not modname.startswith("nonloose.") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                owner = getattr(obj, "__module__", None) or ""
                if not owner.startswith("nonloose.") or owner == modname:
                    continue
                layer = owner.split(".")[1]
                if layer in SKIP_LAYERS:
                    continue
                self._patch(mod, attr, f"{layer}.{obj.__name__}")

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counters measured where the work happens ------------------------

    def _on_enumerated(self, result):
        self.counts["decorations.enumerated"] += len(result)

    def _on_orbit(self, result):
        self.counts["decorations.orbit_members"] += len(result)

    def _on_context(self, ctx):
        if id(ctx) in self._contexts:
            return
        if not self._contexts:
            cls = type(ctx)
            for attr, obj in list(vars(cls).items()):
                if callable(obj) and not attr.startswith("_"):
                    self._patch(cls, attr, f"surgery.{attr}")
        self._contexts[id(ctx)] = ctx  # kept alive, so ids stay unique
        self.counts["surgery.contexts_built"] += 1
        self.counts["surgery.context_components"] += getattr(ctx, "size", 0)

    def _on_atlas(self, atlas):
        self.counts["atlas.structures"] += len(atlas.structures)
        self.counts["atlas.families"] += sum(len(s.families) for s in atlas.structures)

    def _on_mountain(self, mr):
        (tb_lo, tb_hi), (rot_lo, rot_hi) = mr.tb_range, mr.rot_range
        self.counts["atlas.mountain_points"] += len(mr.points)
        self.counts["atlas.mountain_window_cells"] += (tb_hi - tb_lo + 1) * (rot_hi - rot_lo + 1)

    def _on_render(self, text):
        self.counts["render.bytes"] += len(text)
        self.counts["atlas.mountain_rendered"] += 1

    def _on_points_json(self, text):
        self.counts["atlas.mountain_rendered"] += 1
        self.counts["serialize.bytes"] += len(text)

    def _on_dumps(self, text):
        self.counts["serialize.bytes"] += len(text)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self ms) per span name; self = duration - child spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        calls, self_ms = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_ix[i]]
            calls[name] += 1
            self_ms[name] += (self.end[i] - self.start[i] - child[i]) * 1000.0
        return calls, self_ms

    def layer_sums(self) -> dict:
        """Additive per-layer quantities of this process."""
        calls, self_ms = self.self_times()

        def by_layer(table, layer):
            return sum(v for k, v in table.items() if k.split(".")[0] == layer)

        c = self.counts
        out = {
            "paths.calls": by_layer(calls, "paths"),
            "paths.busy_ms": by_layer(self_ms, "paths"),
            "decorations.enumerated": c["decorations.enumerated"],
            "decorations.consistency_calls": calls["decorations.classify_consistency"],
            "decorations.orbit_calls": calls["decorations.compatibility_orbit"],
            "decorations.orbit_members": c["decorations.orbit_members"],
            "decorations.busy_ms": by_layer(self_ms, "decorations"),
            "surgery.contexts_built": c["surgery.contexts_built"],
            "surgery.context_components": c["surgery.context_components"],
            "surgery.context_ms": self_ms["surgery.knot_surgery_context"],
            "surgery.d3_evals": calls["surgery.d3_from_rot"],
            "surgery.d3_ms": sum(
                self_ms[k] for k in ("surgery.d3_from_rot", "surgery.c_squared", "surgery.d3")
            ),
            "invariants.rotation_calls": calls["invariants.rotation_data"],
            "invariants.busy_ms": by_layer(self_ms, "invariants"),
            "atlas.classify_self_ms": self_ms["atlas.classify"],
            "atlas.structures": c["atlas.structures"],
            "atlas.families": c["atlas.families"],
            "atlas.mountain_ms": self_ms["atlas.mountain_range"],
            "atlas.mountain_points": c["atlas.mountain_points"],
            "atlas.mountain_window_cells": c["atlas.mountain_window_cells"],
            "atlas.mountain_filled": calls["atlas.mountain_range"],
            "atlas.mountain_rendered": c["atlas.mountain_rendered"],
            "render.busy_ms": by_layer(self_ms, "render"),
            "render.bytes": c["render.bytes"],
            "render.refusals": self.errors["render.render_ascii"] + self.errors["render.render_svg"],
            "serialize.busy_ms": by_layer(self_ms, "serialize"),
            "serialize.bytes": c["serialize.bytes"],
        }
        return out

    def dump(self, path, **extra) -> None:
        """Write the spans out, one column per field, with `extra` keys."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "names": self.names,
                    "name": self.name_ix.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                },
                fh,
            )


def cache_snapshot() -> dict:
    """hits, misses and current size of each engine lru cache, read
    through cache_info(); a cache that no longer exists reads as empty."""
    out = {}
    for key, (modname, attr) in CACHES.items():
        fn = getattr(sys.modules.get(modname), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = (info.hits, info.misses, info.currsize) if info else (0, 0, 0)
    return out


def cache_delta(before: dict, after: dict) -> tuple[dict, dict]:
    """(additive hits/misses, entries at the end) between two snapshots."""
    add, peak = {}, {}
    for key in CACHES:
        add[f"cache.{key}.hits"] = after[key][0] - before[key][0]
        add[f"cache.{key}.misses"] = after[key][1] - before[key][1]
        peak[f"cache.{key}.entries"] = after[key][2]
    return add, peak
