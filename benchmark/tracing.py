"""Tracing from the outside: wrap the program's public functions, keep spans.

The tracer replaces module attributes (``memetic.improve``,
``roadmap.build_cost_matrix``, ...) with wrappers for the length of a
traced run.  The program calls these through its module globals, so the
wrappers see every call.  Layer boundaries become spans (name, start, end,
parent, instance); hot calls (Dubins solves, chromosome decodes, cost
lookups, crossing tests) only bump counters and add up their time, because
a span per call would cost more than the call.  ``restore`` puts every
original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

from ghmdatsp import exact, geometry, memetic
from ghmdatsp import roadmap as roadmap_mod

# ``ghmdatsp.refine`` is the re-exported function; this is the module
refine_mod = importlib.import_module("ghmdatsp.refine")

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, instance]
        self.counts: dict[str, float] = defaultdict(float)
        self.instance = -1
        self.enabled = False
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)  # open spans per name
        self._in_cost = False
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        record = [name, _clock(), None, parent, self.instance]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        self._open[name] += 1
        try:
            yield
        finally:
            record[2] = _clock()
            self._stack.pop()
            self._open[name] -= 1

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s[0]] += t
        return dict(out)

    def dump(self, path) -> None:
        doc = {
            "spans": [{"name": n, "start": a, "end": b, "parent": p, "instance": i}
                      for n, a, b, p, i in self.spans],
            "self_time_s": self.self_times(),
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc) + "\n")

    # -- wrappers ----------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _spanned(self, owner, attr, name, on_call=None):
        def wrapper(original):
            def call(*args, **kwargs):
                if on_call is not None and self.enabled:
                    on_call(args)
                with self.span(name):
                    return original(*args, **kwargs)
            return call
        self._patch(owner, attr, wrapper)

    def _counted(self, owner, attr, name):
        """Count calls and add up their time, without spans."""
        counts = self.counts

        def wrapper(original):
            def call(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                t0 = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    counts[name + ".calls"] += 1
                    counts[name + ".s"] += _clock() - t0
            return call
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        counts = self.counts

        # geometry: every Dubins solve and crossing test, wherever it comes from
        def dubins(original):
            def call(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                t0 = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    counts["dubins.calls"] += 1
                    counts["dubins.s"] += _clock() - t0
                    if self._open["refine.refine"]:
                        counts["refine.dubins_calls"] += 1
            return call
        for module in (geometry, roadmap_mod, refine_mod):
            self._patch(module, "dubins_shortest_path", dubins)
        self._counted(roadmap_mod, "nin_check", "nin_check")

        # roadmap
        self._spanned(roadmap_mod, "build_roadmap", "roadmap.build")
        self._spanned(roadmap_mod, "generate_samples", "roadmap.samples")
        self._spanned(roadmap_mod, "build_cost_matrix", "roadmap.cost_table")
        self._spanned(roadmap_mod, "build_nin_tables", "roadmap.nin_tables")
        self._spanned(roadmap_mod.Roadmap, "__post_init__", "roadmap.assemble")

        # memetic
        self._spanned(memetic, "run", "memetic.run")
        self._spanned(memetic, "init_population", "memetic.init")

        def count_level(args):
            counts["improve." + args[1]] += 1
        self._spanned(memetic, "improve", "memetic.improve", on_call=count_level)
        self._spanned(memetic, "select", "memetic.select")
        self._spanned(memetic, "crossover", "memetic.crossover")

        def tours(original):
            def call(ev, chrom):
                if not self.enabled:
                    return original(ev, chrom)
                if not self._in_cost:
                    counts["lookups"] += 1
                if chrom.cached_tours is not None:
                    return chrom.cached_tours
                t0 = _clock()
                out = original(ev, chrom)
                counts["decode.s"] += _clock() - t0
                counts["decode.calls"] += 1
                counts["decode.pruned"] += len(out.deleted)
                return out
            return call

        def cost(original):
            def call(ev, chrom):
                if not self.enabled:
                    return original(ev, chrom)
                counts["cost.calls"] += 1
                counts["lookups"] += 1
                self._in_cost = True
                try:
                    return original(ev, chrom)
                finally:
                    self._in_cost = False
            return call
        self._patch(memetic.Evaluator, "tours", tours)
        self._patch(memetic.Evaluator, "cost", cost)

        # refine: Nelder-Mead runs are scipy.optimize.minimize calls
        self._spanned(refine_mod, "build_chain", "refine.build_chain")
        self._spanned(refine_mod, "refine", "refine.refine")
        self._counted(refine_mod, "minimize", "simplex")

        # exact
        self._spanned(exact, "solve_bruteforce", "exact.oracle")

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
