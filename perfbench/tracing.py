"""The traced run: spans around the public functions of every module.

Each wrapper replaces a name where its caller looks it up (a module global
or a class attribute), records one span per call (per resume, for the
generator ``enumerate_le``) and, for a few functions, counts taken from
their arguments and results.  Spans stay in memory; per-layer self times
are computed from them when the run ends.  Nothing in the program is
edited, so the layers are exactly as wide as their public entry points:
work inside a function that is not wrapped counts as self time of the
nearest wrapped caller.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

Hook = Callable[[tuple, object], None]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes_written") else "count"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []
        self._loaded: Dict[str, int] = {}

    # -- spans -------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook: Optional[Hook] = None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wiring ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every module of the program."""
        from welschinger import cli, engine, invariants, picard, surfaces
        from welschinger.engine import Evaluator
        from welschinger.surfaces import SurfaceSpec

        eval_traced = self.wrap("engine.eval", Evaluator.eval)

        def eval_with_stats(ev, key):
            before = ev.cache_stats()
            try:
                return eval_traced(ev, key)
            finally:
                after = ev.cache_stats()
                for name, field in (("states", "entries"), ("hits", "hits"),
                                    ("misses", "misses")):
                    self.counts[name] += after[field] - before[field]

        def candidates(_args, result):
            self.counts["candidates"] += len(result)

        def loaded(args, result):
            self.counts["records_loaded"] += len(result)
            self._loaded[args[0]] = len(result)

        def saved(args, _result):
            store, path = args
            self.counts["records_written"] += len(store)
            self.counts["bytes_written"] += os.path.getsize(path)
            self.counts["saves"] += 1
            if len(store) > self._loaded.get(path, 0):
                self.counts["useful_saves"] += 1

        nef_enum = self.wrap("picard.nef_enum", picard.nef_classes_up_to)
        self.patch(Evaluator, "eval", eval_with_stats)
        self.patch(Evaluator, "eval_cubic_fast",
                   self.wrap("engine.reduced", Evaluator.eval_cubic_fast))
        self.patch(Evaluator, "preload", self.wrap("engine.store.preload", Evaluator.preload))
        self.patch(Evaluator, "dump", self.wrap("engine.store.dump", Evaluator.dump))
        self.patch(cli, "cache_load", self.wrap("engine.store.load", cli.cache_load, loaded))
        self.patch(cli, "cache_save", self.wrap("engine.store.save", cli.cache_save, saved))
        self.patch(engine, "candidate_factors",
                   self.wrap("picard.candidate_factors", engine.candidate_factors, candidates))
        self.patch(picard, "nef_classes_up_to", nef_enum)
        self.patch(surfaces, "nef_classes_up_to", nef_enum)
        self.patch(SurfaceSpec, "initial_weight",
                   self.wrap("surfaces.initial_weight", SurfaceSpec.initial_weight))
        self.patch(SurfaceSpec, "nef_big_classes",
                   self.wrap("surfaces.nef_big_classes", SurfaceSpec.nef_big_classes))
        self.patch(engine, "multinomial", self.wrap("tangency.multinomial", engine.multinomial))
        self.patch(engine, "enumerate_le",
                   self.wrap_generator("tangency.enumerate_le", engine.enumerate_le))
        self.patch(invariants, "welschinger",
                   self.wrap("invariants.welschinger", invariants.welschinger))
        self.patch(cli, "invariant_report",
                   self.wrap("invariants.invariant_report", cli.invariant_report))
        self.patch(cli, "main", self.wrap("cli.main", cli.main))

    # -- results -----------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span duration minus the part its direct child spans cover, per name."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: Dict[str, float] = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[name] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def layer_metrics(self, rounds: int) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics with their units.  Counts and times are per
        round, which every round repeats exactly; ratios are over the run."""
        own = self.self_times()
        c = self.calls
        k = self.counts
        lookups = k["hits"] + k["misses"]
        per_round = {
            "engine.eval.calls": c["engine.eval"],
            "engine.eval.self_s": own.get("engine.eval", 0.0),
            "engine.states": k["states"],
            "engine.reduced.calls": c["engine.reduced"],
            "engine.reduced.self_s": own.get("engine.reduced", 0.0),
            "engine.store.load_s": own.get("engine.store.load", 0.0),
            "engine.store.preload_s": own.get("engine.store.preload", 0.0),
            "engine.store.dump_s": own.get("engine.store.dump", 0.0),
            "engine.store.save_s": own.get("engine.store.save", 0.0),
            "engine.store.records_loaded": k["records_loaded"],
            "engine.store.records_written": k["records_written"],
            "engine.store.bytes_written": k["bytes_written"],
            "picard.candidate_factors.calls": c["picard.candidate_factors"],
            "picard.candidate_factors.self_s": own.get("picard.candidate_factors", 0.0),
            "picard.candidates": k["candidates"],
            "picard.nef_enum.calls": c["picard.nef_enum"],
            "picard.nef_enum.self_s": own.get("picard.nef_enum", 0.0),
            "surfaces.initial_weight.calls": c["surfaces.initial_weight"],
            "surfaces.initial_weight.self_s": own.get("surfaces.initial_weight", 0.0),
            "surfaces.nef_big_classes.self_s": own.get("surfaces.nef_big_classes", 0.0),
            "tangency.multinomial.calls": c["tangency.multinomial"],
            "tangency.enumerate_le.calls": c["tangency.enumerate_le"],
            "tangency.self_s": own.get("tangency.multinomial", 0.0)
            + own.get("tangency.enumerate_le", 0.0),
            "invariants.welschinger.calls": c["invariants.welschinger"],
            "invariants.self_s": own.get("invariants.welschinger", 0.0)
            + own.get("invariants.invariant_report", 0.0),
            "cli.main.calls": c["cli.main"],
            "cli.self_s": own.get("cli.main", 0.0),
        }
        out = {name: (value / rounds, _unit(name)) for name, value in per_round.items()}
        out["engine.memo_hit_ratio"] = (k["hits"] / lookups if lookups else 0.0, "ratio")
        out["engine.store.useful_save_ratio"] = (
            k["useful_saves"] / k["saves"] if k["saves"] else 0.0, "ratio"
        )
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i],
                ]) + "\n")
