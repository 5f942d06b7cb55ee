"""In-memory spans and counted calls at the package's module boundaries.

The benchmark replaces a module attribute (for example ``cli.render_julia``
or ``orbits.apply_map``) with a wrapper that times the call.  Spanned calls
leave one record each (name, layer, start, end, parent span, run id);
counted calls only add to per-name totals, because they are too frequent and
too short for a record each.  Both kinds take part in self-time accounting:
a call's self time is its duration minus the time of the wrapped calls made
inside it.  Nothing here is installed unless a traced run asks for it, and
every patch is undone by :meth:`Tracer.restore`.

The tracer keeps one call stack and is meant for the benchmark's main
thread; the package's worker threads only run numpy block kernels, which are
not wrapped.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls = defaultdict(int)     # (layer, name) -> calls
        self.total_ns = defaultdict(int)  # (layer, name) -> summed duration
        self.self_ns = defaultdict(int)   # (layer, name) -> summed self time
        self.layer_self_ns = defaultdict(int)
        self._stack: list[list] = []      # [span id or None, child ns]
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name, fn, spanned: bool = True, observe=None):
        """Return fn timed as ``layer``/``name``.

        ``name`` may be a callable taking the call's arguments and returning
        the name, so one boundary can be split by argument (for example by
        period or polynomial degree).  ``observe``, if given, receives each
        result after the clock has stopped.
        """
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (layer, name(*args, **kwargs) if callable(name) else name)
            sid = None
            if spanned:
                sid = len(self.spans)
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                self.spans.append({"id": sid, "parent": parent, "layer": layer,
                                   "name": key[1], "run": self.run_id})
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.calls[key] += 1
                self.total_ns[key] += dur
                self.self_ns[key] += own
                self.layer_self_ns[layer] += own
                if spanned:
                    self.spans[sid].update(start_ns=start, end_ns=end)
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, module, attr: str, layer: str, name=None, spanned: bool = True,
              observe=None):
        """Replace ``module.attr`` by its traced wrapper until restore()."""
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, self.wrap(layer, name or attr, orig, spanned, observe))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the per-name totals, for differences across a stage."""
        return {"calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns)}

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        out = {}
        for field in ("calls", "total_ns", "self_ns"):
            a, b = after[field], before[field]
            out[field] = {k: v - b.get(k, 0) for k, v in a.items() if v - b.get(k, 0)}
        return out

    def span_durations_ms(self, layer: str, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans
                if s["layer"] == layer and s["name"] == name and "end_ns" in s]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
