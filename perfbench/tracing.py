"""Outside-in layer tracing for the benchmark's traced runs.

The benchmark never reads the program's own instrumentation.  Instead it
replaces the *public* functions and methods of each layer with thin
wrappers that record a span (name, start, end, parent) into an
in-memory :class:`Recorder`; the spans are aggregated into per-layer
rows when the run ends.  A wrapped name that no longer exists raises
:class:`MissingLayer` at install time, so a refactor that moves a layer
fails the traced run loudly instead of reporting 0.

Install the wrappers after importing the program and before the first
simulator run: module-level ``from x import f`` bindings are rebound in
every loaded ``repro`` module, and the kernel set snapshots the NumPy
kernel functions when it is first built.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from common import KERNELS, model_stats

__all__ = [
    "LAYERS",
    "MissingLayer",
    "Recorder",
    "TreeError",
    "aggregate",
    "install",
]

#: children may exceed their parent by at most this share (plus 1 ms) —
#: clock reads at the span edges are the only legitimate excess
TREE_TOLERANCE = 0.01

#: name of the span that encloses one traced unit of a workload
ROOT = "workload"

#: program packages imported before rebinding (see :func:`install`)
PROGRAM_PACKAGES = ("repro.core", "repro.verify", "repro.fabric",
                    "repro.serve", "repro.incremental", "repro.cli",
                    "repro.bench.executor", "repro.bench.runcache",
                    "repro.kernels.numpy_impl")

_CACHE_METHODS = ("lookup", "write", "mark_dead", "contains", "utilization")

#: span name -> public targets ("module:attr" or "module:Class.method")
LAYERS: dict[str, tuple[str, ...]] = {
    "graph.preprocess": ("repro.graph.preprocess:preprocess",),
    "graph.shm.publish": ("repro.graph.shm:GraphStore.publish",),
    "core.amst_run": ("repro.core.accelerator:Amst.run",),
    "core.finding": ("repro.core.finding:run_finding",),
    "core.rape": ("repro.core.rape:run_rape",),
    "core.compressing": ("repro.core.compressing:run_compressing",),
    "core.resolve_roots": ("repro.core.state:SimState.resolve_roots",),
    "core.build_report": ("repro.core.perf:build_report",),
    "memory.hash_cache": tuple(
        f"repro.memory.hash_cache:HashHDVCache.{m}" for m in _CACHE_METHODS),
    "memory.direct_cache": tuple(
        f"repro.memory.direct_cache:DirectHDVCache.{m}"
        for m in _CACHE_METHODS),
    "memory.lru_cache": tuple(
        f"repro.memory.lru_cache:LRUCache.{m}" for m in _CACHE_METHODS),
    "memory.hbm": tuple(
        f"repro.memory.hbm:HBMModel.{m}"
        for m in ("access_random", "access_sequential", "access_blocks")),
    **{f"kernels.{k}": (f"repro.kernels.numpy_impl:{k}",) for k in KERNELS},
    "mst.kruskal": ("repro.mst.kruskal:kruskal",),
    "mst.boruvka": ("repro.mst.boruvka:boruvka",),
    "mst.prim": ("repro.mst.prim:prim",),
    "mst.filter_kruskal": ("repro.mst.filter_kruskal:filter_kruskal",),
    "mst.certify": ("repro.mst.certificate:certify_minimum_forest",),
    "runcache.get": ("repro.bench.runcache:RunCache.get",),
    "runcache.put": ("repro.bench.runcache:RunCache.put",),
    "runcache.note_miss": ("repro.bench.runcache:RunCache.note_miss",),
    "runcache.graph_fingerprint": (
        "repro.bench.runcache:graph_fingerprint",),
    "fabric.run": ("repro.fabric.fabric:run_fabric",),
    "fabric.plan_edges": ("repro.fabric.partition:plan_edges",),
    "fabric.local": ("repro.bench.executor:execute",),
    "fabric.model_rounds": ("repro.fabric.netmodel:model_rounds",),
    "incremental.apply": ("repro.incremental.engine:IncrementalMst.apply",),
    "incremental.check_invariants": (
        "repro.incremental.engine:IncrementalMst.check_invariants",),
    "incremental.forest": ("repro.incremental.engine:IncrementalMst.forest",),
    "serve.registry.publish": ("repro.serve.registry:GraphRegistry.publish",),
}


#: per-layer count fed by each modelled statistic of a simulator run
_MODEL_COUNTS = {
    "cycles": "core.model_cycles",
    "hbm_blocks": "memory.hbm_blocks",
    "cache_hits": "memory.cache_hits",
    "cache_misses": "memory.cache_misses",
    "iterations": "core.iterations",
}


class MissingLayer(RuntimeError):
    """A public function the tracer wraps no longer exists."""


class TreeError(RuntimeError):
    """Child spans exceed their parent beyond the stated tolerance."""


class Recorder:
    """In-memory span store plus result-derived counters.

    A span is ``[name, start_ns, end_ns, parent_index]``; each thread
    keeps its own stack, so spans from the daemon's worker threads nest
    only within their own thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False  # workloads switch recording on around a pass
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextmanager
    def root(self):
        """Record everything inside one :data:`ROOT` span, then stop."""
        self.enabled = True
        try:
            with self.span(ROOT):
                yield
        finally:
            self.enabled = False

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def load(self, path: str) -> None:
        """Append spans and counts dumped by another process."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        with self._lock:
            base = len(self.spans)
            for name, start, end, parent in data["spans"]:
                self.spans.append(
                    [name, start, end, parent + base if parent >= 0 else -1])
            for name, value in data["counts"].items():
                self.counts[name] += value


def _on_result(rec: Recorder, name: str, result) -> None:
    """Counts taken from a wrapped call's outputs."""
    if name == "core.amst_run":
        for key, value in model_stats(result).items():
            rec.count(_MODEL_COUNTS[key], value)
    elif name == "runcache.get":
        rec.count("runcache.hits", result is not None)
    elif name == "runcache.note_miss":
        rec.count("runcache.misses")
    elif name == "incremental.apply":
        rec.count("incremental.fallbacks", bool(result.fallback))
        rec.count("incremental.edges_touched", int(result.edges_touched))


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        _on_result(rec, name, result)
        return result

    return wrapper


def _resolve(target: str):
    mod_name, _, attr = target.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError as exc:
        raise MissingLayer(f"{target}: module gone ({exc})") from None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingLayer(f"{target}: {part} gone")
    fn = getattr(owner, leaf, None)
    if not callable(fn):
        raise MissingLayer(f"{target}: not a public callable any more")
    return owner, leaf, fn


def _rebind_everywhere(fn, wrapped) -> None:
    """Replace every module-level binding of ``fn`` in loaded ``repro``
    modules, including values of module-level dicts (e.g. the oracle's
    reference table)."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is fn:
                        value[k] = wrapped


def install(rec: Recorder) -> None:
    """Wrap every layer in :data:`LAYERS`; raise on any missing target.

    The program's packages are imported first, so every module that
    binds a wrapped name at import time is loaded when names are rebound.
    """
    for name in PROGRAM_PACKAGES:
        importlib.import_module(name)
    resolved = [(name, _resolve(t)) for name, targets in LAYERS.items()
                for t in targets]
    for name, (owner, leaf, fn) in resolved:
        wrapped = _wrap(rec, name, fn)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
        else:
            _rebind_everywhere(fn, wrapped)


def aggregate(rec: Recorder) -> dict[str, float]:
    """Per-name inclusive/self seconds and call counts, plus checks.

    ``<name>.s`` sums inclusive time over outermost occurrences (a
    recursive call is not counted twice), ``<name>.self_s`` sums time
    not covered by direct children, ``<name>.calls`` counts calls.
    ``unattributed.s`` is the self time of the :data:`ROOT` spans: wall
    time that no wrapped layer explains.  Raises :class:`TreeError`
    when some parent's children outlast it beyond the tolerance.
    """
    spans = rec.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    worst = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if end == 0:
            raise TreeError(f"span {name!r} never ended")
        incl = end - start
        excess = child_ns[i] - incl
        if excess > TREE_TOLERANCE * incl + 1e6:
            raise TreeError(
                f"children of {name!r} outlast it by {excess / 1e9:.6f}s")
        worst = max(worst, excess / incl if incl else 0.0)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (incl - min(child_ns[i], incl)) / 1e9
        p, nested = parent, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            out[f"{name}.s"] += incl / 1e9
        if name == "core.amst_run" and parent >= 0 \
                and spans[parent][0] == "fabric.run":
            out["fabric.merge_amst.s"] += incl / 1e9
    out["unattributed.s"] = out.get(f"{ROOT}.self_s", 0.0)
    out["trace.spans"] = float(len(spans))
    out["trace.max_child_excess"] = max(worst, 0.0)
    for name, value in rec.counts.items():
        out[name] += value
    out["core.model_mcycles"] = out.pop("core.model_cycles", 0.0) / 1e6
    lookups = out["runcache.hits"] + out["runcache.misses"]
    out["runcache.hit_ratio"] = out["runcache.hits"] / lookups if lookups \
        else 0.0
    return dict(out)
