"""Real-clock spans around calls into each layer's public functions.

The traced run wraps the layer entry points listed in :data:`LAYERS`
from the outside (class attributes and module functions are swapped for
timing wrappers and restored afterwards); nothing under ``src/`` records
anything.  Every call becomes a span (name, start, end, parent, engine
run).  A span's *self* time is its duration minus its child spans, so
the self times of all layers plus the time outside every layer span —
``trace.unattributed_s`` — add up to the traced wall time.

Layers called up to ~1e5 times per run (``Stream.schedule``, counter RNG
draws, event emission, sanitizer hooks, scheduler and pool calls) are
aggregated into
a count and a time instead of individual spans; they still take part in
the self-time arithmetic.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One span/aggregate name -> the entry points timed under it.
#: Entries are ("module", "Class.method") or ("module", "function").
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "graph.load": (
        ("repro.graph.io", "load_csr"),
        ("repro.graph.generators", "rmat"),
    ),
    "graph.partition": (("repro.graph.partition", "partition_by_range"),),
    "engine.build": (
        ("repro.core.engine", "LightTrafficEngine.__init__"),
        ("repro.core.engine", "LightTrafficEngine._build_context"),
        ("repro.core.cluster", "MultiDeviceEngine._build_shard"),
    ),
    "engine.run": (
        ("repro.core.engine", "LightTrafficEngine.run"),
        ("repro.core.cluster", "MultiDeviceEngine.run"),
    ),
    "scheduler": tuple(
        ("repro.core.scheduler", f"Scheduler.{name}")
        for name in (
            "select_partition",
            "graph_victim",
            "pick_preemptive_partition",
            "walk_evict_partition",
            "set_owned",
        )
    ),
    "graph_server": (("repro.core.stages.graph_server", "GraphServer.serve"),),
    "walk_loader": (("repro.core.stages.walk_loader", "WalkLoader.stream"),),
    "compute": (
        ("repro.core.stages.compute", "ComputeDispatcher.dispatch"),
        ("repro.core.stages.compute", "ComputeDispatcher.enforce_walk_capacity"),
    ),
    "preemptive": (("repro.core.stages.preemptive", "PreemptiveDispatcher.fill"),),
    "backend.advance": (("repro.backends.simulated", "SimulatedBackend.advance"),),
    "backend.group": (("repro.backends.base", "ExecutionBackend.group_order"),),
    "backend.setup": tuple(
        ("repro.backends.base", f"ExecutionBackend.{name}")
        for name in ("bind", "on_walks_seeded", "close")
    ),
    "prng": (
        ("repro.core.prng", "CounterRNG.random"),
        ("repro.core.prng", "CounterRNG.integers"),
        ("repro.core.prng", "CounterRNG.set_context"),
        ("repro.core.prng", "TenantCounterRNG.set_context"),
    ),
    "reshuffle": (
        ("repro.walks.reshuffle", "_BaseReshuffler.reshuffle"),
        ("repro.walks.reshuffle", "group_by_partition"),
    ),
    "pool.scatter": (
        ("repro.walks.pool", "DeviceWalkPool.scatter_sorted"),
        ("repro.walks.pool", "DeviceWalkPool.append_walks"),
        ("repro.walks.pool", "DeviceWalkPool.load_batch"),
        ("repro.walks.pool", "HostWalkPool.append_walks"),
        ("repro.walks.pool", "HostWalkPool.push_batch"),
    ),
    "pool.pop": (
        ("repro.walks.pool", "DeviceWalkPool.pop_all"),
        ("repro.walks.pool", "DeviceWalkPool.pop_full_batches"),
        ("repro.walks.pool", "DeviceWalkPool.pop_preemptible"),
        ("repro.walks.pool", "DeviceWalkPool.evict_batch"),
        ("repro.walks.pool", "HostWalkPool.pop_batch"),
    ),
    "timeline.schedule": (("repro.gpu.timeline", "Stream.schedule"),),
    "events.emit": (("repro.core.events", "EventBus.emit"),),
    "cluster.route": (
        ("repro.core.cluster", "WalkMigrator.route"),
        ("repro.gpu.cluster", "PeerChannel.transfer"),
    ),
    "sanitizer": (("repro.analysis.sanitizer", "Sanitizer.*"),),
    "serve.session": (("repro.serve.session", "ServeSession.run"),),
    "serve.batch": (("repro.serve.session", "ServeSession._execute"),),
    "serve.standalone": (("repro.serve.batch", "run_standalone"),),
}

#: Names kept as a count and a time only (no individual spans).
AGGREGATED = frozenset(
    {"prng", "timeline.schedule", "events.emit", "scheduler", "pool.scatter",
     "pool.pop", "backend.group", "sanitizer"}
)


def _refuse_generator(fn: Callable, where: str) -> None:
    """A wrapped generator would time only its creation, not its work."""
    if inspect.isgeneratorfunction(fn):
        raise TypeError(f"{where} is a generator function; trace its caller")


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name: str, start: float, span_id: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Span recorder with per-name call counts, total and self time."""

    ROOT = "trace.region"

    def __init__(self, aggregated=AGGREGATED) -> None:
        self.aggregated = aggregated
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        #: (parent name, child name) -> calls, for useful-work ratios.
        self.child_calls: Counter = Counter()
        #: (name, start, end, span id, parent id, args)
        self.spans: List[Tuple[str, float, float, int, int, Dict]] = []
        self.run_id = 0
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(traced function) -> (traced function, original).
        self._traced_functions: Dict[int, Tuple[Callable, Callable]] = {}
        self.wall = 0.0

    # -- recording ------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        on_enter: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as a span called ``name``."""
        stack = self._stack
        clock = time.perf_counter
        keep = name not in self.aggregated

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            extra = on_enter(self, args, kwargs) if on_enter else None
            span_id = self._next_id
            self._next_id += 1
            frame = _Frame(name, clock(), span_id)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                self.self_time[name] += duration - frame.child
                nested = parent is not None and parent.name == name
                if not nested:
                    self.calls[name] += 1
                    self.total[name] += duration
                if parent is not None:
                    parent.child += duration
                    if not nested:
                        self.child_calls[(parent.name, name)] += 1
                if keep:
                    args_out = {"run": self.run_id}
                    if extra:
                        args_out.update(extra)
                    self.spans.append(
                        (name, frame.start, end, span_id,
                         parent.span_id if parent else 0, args_out)
                    )
            if on_exit is not None and not nested:
                on_exit(self, args, kwargs, result)
            return result

        return traced

    def region(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span; returns its result."""
        if self._stack:
            raise RuntimeError("a traced region is already open")
        started = time.perf_counter()
        result = self.wrap(self.ROOT, fn)(*args, **kwargs)
        self.wall += time.perf_counter() - started
        return result

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self._stack[-1].name if self._stack else None

    # -- installation ---------------------------------------------------
    def install(self, hooks: Optional[Dict[str, Tuple]] = None) -> None:
        """Wrap every entry point of :data:`LAYERS` (``hooks``: enter/exit)."""
        import importlib

        hooks = hooks or {}
        for name, targets in LAYERS.items():
            on_enter, on_exit = hooks.get(name, (None, None))
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." not in attr:
                    self._patch_function(module, attr, name, on_enter, on_exit)
                    continue
                cls_name, method = attr.split(".", 1)
                cls = getattr(module, cls_name)
                methods = (
                    [m for m, v in vars(cls).items()
                     if not m.startswith("_") and callable(v)
                     and not isinstance(v, (staticmethod, classmethod, type))]
                    if method == "*"
                    else [method]
                )
                for meth in methods:
                    original = vars(cls)[meth]
                    _refuse_generator(original, f"{module_name}.{cls_name}.{meth}")
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(name, original, on_enter, on_exit))

    def _patch_function(self, module, attr, name, on_enter, on_exit) -> None:
        original = getattr(module, attr)
        _refuse_generator(original, f"{module.__name__}.{attr}")
        traced = self.wrap(name, original, on_enter, on_exit)
        self._traced_functions[id(traced)] = (traced, original)
        # ``from module import fn`` copies the binding: rebind it everywhere.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((other, key, original))
                    setattr(other, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module imported while installed bound the traced function
        # with ``from module import fn``; unbind it there too.
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                entry = self._traced_functions.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(other, key, entry[1])
        self._traced_functions.clear()

    # -- results --------------------------------------------------------
    def unattributed(self) -> float:
        """Traced wall time outside every layer span."""
        layered = sum(v for k, v in self.self_time.items() if k != self.ROOT)
        return self.wall - layered

    def chrome_trace(self, metadata: Optional[Dict] = None) -> Dict:
        """Chrome Trace Event JSON (opens in Perfetto / chrome://tracing)."""
        base = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - base) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": dict(args, id=span_id, parent=parent),
            }
            for name, start, end, span_id, parent, args in self.spans
        ]
        events.append(
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": "perfbench (real clock)"}}
        )
        aggregates = {
            name: {"calls": self.calls[name], "self_s": self.self_time[name]}
            for name in sorted(self.aggregated)
            if self.calls[name]
        }
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, aggregated=aggregates),
        }

    def write_chrome_trace(self, path, metadata: Optional[Dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)
