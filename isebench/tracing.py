"""Span tracing of the calls the benchmark makes into each layer.

The tracer wraps public functions of the ``repro`` layers for the
duration of a traced run and records one span per call: layer name,
start, duration and nesting.  A layer's *self time* is its spans'
durations minus the time their child spans cover.  Self times are
scaled per root unit by the reference loop run just before it, so they
are reported in reference milliseconds like the end-to-end figures.
The self times of all layers plus the benchmark's own root spans must
add up to the units' time as the :class:`~isebench.hostref.Meter`
clocks it on its own; an error in the span accounting breaks that.

Wrappers are installed by rebinding the function object in every
loaded ``repro`` module that holds it (modules import names with
``from ... import``) and, for methods, on the class.  They must be in
place before any region code is generated, because the generated
closures bind ``FusedAFU.evaluate`` when they are built.

Spans of very frequent calls (``exec.afu``, ``explore.cache``) are
timed and counted but not kept as trace events; everything else is
kept in memory and written out as Chrome trace JSON at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Layers reported by every traced run, in report order.
LAYERS = (
    "frontend", "passes", "ir.dfg", "interp.run", "afu", "core.engine",
    "core.select", "exec.rewrite", "interp.codegen", "interp.batch.base",
    "interp.batch.ise", "exec.afu", "store.put", "store.get",
    "explore.sweep", "explore.prepare", "explore.warm", "explore.points",
    "explore.cache", "core.parallel",
)

#: Counters reported next to the layers' self times and call counts.
COUNTERS = (
    "frontend.programs", "passes.insns_out", "ir.dfg.nodes",
    "interp.run.steps", "core.engine.searches",
    "core.engine.cuts_considered", "core.engine.cuts_feasible",
    "core.select.cuts", "exec.rewrite.ises", "interp.codegen.compiled",
    "interp.codegen.fallbacks", "interp.codegen.memo_hits",
    "interp.batch.steps", "store.puts", "store.hits", "store.misses",
    "store.errors", "explore.cache.hits", "explore.cache.misses",
)

#: Packages whose module-level names are rebound to the wrappers.
_SCANNED = ("repro", "isebench")

#: Trace events kept in memory at most; later spans are still timed.
MAX_EVENTS = 200_000


class Tracer:
    """Span recorder plus the wrappers that feed it (module doc)."""

    def __init__(self) -> None:
        self.active = False
        #: Reference seconds per wall second of the current root unit.
        self.scale = 1.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.misnested = 0
        self.spans = 0
        self.events: List[Tuple[str, float, float]] = []
        self._stack: List[list] = []
        self._origin = time.perf_counter()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, record: bool) -> None:
        end = time.perf_counter()
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            self.misnested += 1
            if frame in stack:
                del stack[stack.index(frame):]
        name, start, child_s = frame
        duration = end - start
        self.self_s[name] += (duration - child_s) * self.scale
        self.calls[name] += 1
        self.spans += 1
        if stack:
            stack[-1][2] += duration
        if record and len(self.events) < MAX_EVENTS:
            self.events.append((name, start, duration))

    @contextmanager
    def root(self, name: str, scale: float):
        """One root span (a benchmark unit) timed at *scale*."""
        self.scale = scale
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame, True)

    # ------------------------------------------------------------------
    # Wrappers.
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer, post=None, pre=None,
             record: bool = True, skip_under: Optional[str] = None):
        """A wrapper timing each call of *fn* as a span of *layer* (a
        name, or a callable of the call's arguments returning one).

        ``pre(args)`` runs before the span and ``post(counts, args,
        result, token)`` after it, with ``token`` what ``pre``
        returned; neither is part of the span.  With *skip_under*, a
        call made while a span whose name starts with it is innermost
        is passed through untraced (lanes inside a batch).
        """
        tracer = self
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (
                    skip_under is not None and stack
                    and stack[-1][0].startswith(skip_under)):
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, record)
            if post is not None:
                post(counts, args, result, token)
            return result

        return wrapper

    def patch(self, target: str, layer, **options) -> None:
        """Wrap ``module:function`` or ``module:Class.method``."""
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(orig, layer, **options))
            return
        orig = getattr(module, qualname)
        wrapper = self.wrap(orig, layer, **options)
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] not in _SCANNED:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer's public functions (see :data:`LAYERS`)."""
        for target, layer, options in _targets():
            self.patch(target, layer, **options)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------
    def self_sum_ratio(self, root_s: float) -> float:
        """Summed self time of every span over *root_s*, the root
        units' time measured apart from the spans (1.0 when the
        accounting is exact)."""
        return sum(self.self_s.values()) / root_s

    def write_chrome(self, path) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": round((start - self._origin) * 1e6, 3),
                   "dur": round(duration * 1e6, 3), "pid": 1, "tid": 1}
                  for name, start, duration in self.events]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer self time (ref-ms), calls and derived counters."""
        c = self.counts
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        out["bench.self_ms"] = 1e3 * sum(
            v for k, v in self.self_s.items() if k.startswith("bench."))
        for name in COUNTERS:
            out[name] = c.get(name, 0)
        hits = c["interp.codegen.memo_hits"]
        cached = c["explore.cache.hits"]
        out["core.engine.feasible_ratio"] = _share(
            c["core.engine.cuts_feasible"], c["core.engine.cuts_considered"])
        out["interp.codegen.memo_hit_rate"] = _share(
            hits, hits + c["interp.codegen.compiled"])
        out["explore.cache.hit_rate"] = _share(
            cached, cached + c["explore.cache.misses"])
        return out


# ----------------------------------------------------------------------
# What is wrapped, and the counters read off each call.
# ----------------------------------------------------------------------
def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _add(name: str, value) -> Callable:
    def post(counts, args, result, token):
        counts[name] += value(args, result)
    return post


def _module_insns(module) -> int:
    return sum(len(block.instructions)
               for func in module.functions.values()
               for block in func.blocks)


def _engine_post(counts, args, result, token):
    stats = result[2]
    counts["core.engine.searches"] += 1
    counts["core.engine.cuts_considered"] += stats.cuts_considered
    counts["core.engine.cuts_feasible"] += stats.cuts_feasible


def _codegen_pre(args):
    from repro.interp.compile import code_memo_stats
    stats = code_memo_stats()
    return stats.compiled, stats.hits, stats.fallbacks


def _codegen_post(counts, args, result, token):
    from repro.interp.compile import code_memo_stats
    stats = code_memo_stats()
    compiled, hits, fallbacks = token
    # clear_code_memo() resets the counters; it never runs inside a
    # table build, so the deltas are exact.
    counts["interp.codegen.compiled"] += stats.compiled - compiled
    counts["interp.codegen.memo_hits"] += stats.hits - hits
    counts["interp.codegen.fallbacks"] += stats.fallbacks - fallbacks


def _store_get_pre(args):
    return args[0].stats.errors


def _store_get_post(counts, args, result, token):
    counts["store.hits" if result is not None else "store.misses"] += 1
    counts["store.errors"] += args[0].stats.errors - token


def _cache_post(counts, args, result, token):
    key = "explore.cache.hits" if result is not None else \
        "explore.cache.misses"
    counts[key] += 1


def _batch_layer(args, kwargs) -> str:
    from repro.ir.opcodes import Opcode
    module = args[0] if args else kwargs["module"]
    has_ise = any(insn.opcode is Opcode.ISE
                  for func in module.functions.values()
                  for block in func.blocks
                  for insn in block.instructions)
    return "interp.batch.ise" if has_ise else "interp.batch.base"


def _targets():
    steps = _add("interp.run.steps", lambda a, r: r.steps)
    selected = _add("core.select.cuts", lambda a, r: len(r.cuts))
    return [
        ("repro.frontend:parse", "frontend", {}),
        ("repro.frontend:analyze", "frontend", {}),
        ("repro.frontend:lower_program", "frontend",
         {"post": _add("frontend.programs", lambda a, r: 1)}),
        ("repro.passes:optimize_module", "passes",
         {"post": _add("passes.insns_out",
                       lambda a, r: _module_insns(a[0]))}),
        ("repro.ir.dfg:function_dfgs", "ir.dfg",
         {"post": _add("ir.dfg.nodes",
                       lambda a, r: sum(d.n for d in r))}),
        ("repro.interp.interpreter:Interpreter.run", "interp.run",
         {"post": steps, "skip_under": "interp.batch"}),
        ("repro.afu:build_datapath", "afu", {}),
        ("repro.afu:emit_verilog", "afu", {}),
        ("repro.core.engine:run_single_cut", "core.engine",
         {"post": _engine_post}),
        ("repro.core.engine:run_multi_cut", "core.engine",
         {"post": _engine_post}),
        ("repro.core:select_iterative", "core.select", {"post": selected}),
        ("repro.core:select_clubbing", "core.select", {"post": selected}),
        ("repro.core:select_maxmiso", "core.select", {"post": selected}),
        ("repro.core:select_area_constrained", "core.select",
         {"post": selected}),
        ("repro.core:select_optimal", "core.select", {"post": selected}),
        ("repro.exec.rewrite:rewrite_module", "exec.rewrite",
         {"post": _add("exec.rewrite.ises",
                       lambda a, r: r.num_instructions)}),
        ("repro.interp.compile:build_function_table", "interp.codegen",
         {"pre": _codegen_pre, "post": _codegen_post}),
        ("repro.interp.batch:run_batch", _batch_layer,
         {"post": _add("interp.batch.steps", lambda a, r: r.total_steps)}),
        ("repro.exec.rewrite:FusedAFU.evaluate", "exec.afu",
         {"record": False}),
        ("repro.store.artifacts:ArtifactStore.put", "store.put",
         {"post": _add("store.puts", lambda a, r: 1)}),
        ("repro.store.artifacts:ArtifactStore.get", "store.get",
         {"pre": _store_get_pre, "post": _store_get_post}),
        ("repro.explore.runner:run_sweep", "explore.sweep", {}),
        ("repro.session:Session.prepare", "explore.prepare", {}),
        ("repro.explore.runner:_warm_unit", "explore.warm", {}),
        ("repro.explore.runner:_run_point", "explore.points", {}),
        ("repro.explore.cache:SearchCache.get_single", "explore.cache",
         {"post": _cache_post, "record": False}),
        ("repro.explore.cache:SearchCache.get_multi", "explore.cache",
         {"post": _cache_post, "record": False}),
        ("repro.explore.cache:SearchCache.get_pool", "explore.cache",
         {"post": _cache_post, "record": False}),
        ("repro.core.parallel:scheduled_map", "core.parallel", {}),
    ]
