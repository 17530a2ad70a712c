"""The traced run: one set-up plus one repetition, broken down by layer.

Per-layer figures are for exactly that region, so counts repeat exactly
for a workload and seed.  Every time ending in ``_s`` or named ``.s`` is a
self time (a span minus its child spans), except ``serve.batch_run_s``,
the real time serve batches take with everything they call.
:func:`check_attribution` checks that the real time is attributed
consistently.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from tracing import LAYERS, Tracer

#: Self-time metric -> the span names whose self time it sums.
SELF_TIME_METRICS: Dict[str, tuple] = {
    "graph.load_s": ("graph.load",),
    "graph.partition_s": ("graph.partition",),
    "engine.build_s": ("engine.build",),
    "engine.run_self_s": ("engine.run",),
    "scheduler.s": ("scheduler",),
    "graph_server.self_s": ("graph_server",),
    "walk_loader.self_s": ("walk_loader",),
    "compute.self_s": ("compute",),
    "preemptive.self_s": ("preemptive",),
    "backend.advance_s": ("backend.advance",),
    "backend.group_s": ("backend.group",),
    "backend.setup_s": ("backend.setup",),
    "prng.s": ("prng",),
    "reshuffle.s": ("reshuffle",),
    "pool.scatter_s": ("pool.scatter",),
    "pool.pop_s": ("pool.pop",),
    "timeline.schedule_s": ("timeline.schedule",),
    "events.emit_s": ("events.emit",),
    "cluster.route_s": ("cluster.route",),
    "sanitizer.s": ("sanitizer",),
    "serve.session_self_s": ("serve.session", "serve.batch", "serve.standalone"),
}

#: Seconds by which a self time may read below zero through rounding, and
#: by which the root span's self time may differ from the traced wall
#: time outside every layer span (the root wrapper's own cost).
TOLERANCE = 1e-9
ROOT_TOLERANCE = 1e-3


class _Collector:
    """Facts the wrappers see on the way out: run stats, compute busy."""

    def __init__(self) -> None:
        self.runs: List = []
        self.compute_busy = 0.0

    def engine_enter(self, tracer, args, kwargs):
        if tracer.current() != "engine.run":
            tracer.run_id += 1
        return None

    def engine_exit(self, tracer, args, kwargs, stats):
        self.runs.append(stats)

    def schedule_exit(self, tracer, args, kwargs, interval):
        if args[0].name == "compute":
            self.compute_busy += interval[1] - interval[0]

    @staticmethod
    def batch_enter(tracer, args, kwargs):
        return {"requests": [member.request_id for member in args[1]]}

    def hooks(self):
        return {
            "engine.run": (self.engine_enter, self.engine_exit),
            "timeline.schedule": (None, self.schedule_exit),
            "serve.batch": (self.batch_enter, None),
        }


def traced_repetition(cases, workload: str, seed: int):
    """Set up and run one repetition under the tracer."""
    tracer = Tracer()
    collector = _Collector()
    tracer.install(collector.hooks())

    def region():
        case = cases.prepare(workload, seed)
        return case, case.run_once()

    try:
        case, outcome = tracer.region(region)
    finally:
        tracer.uninstall()
    return tracer, collector, case, outcome


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, collector: _Collector, outcome, untraced
) -> Dict[str, float]:
    runs = collector.runs
    calls, self_time = tracer.calls, tracer.self_time
    steps = sum(r.total_steps for r in runs)
    iterations = sum(r.iterations for r in runs)
    walks = sum(r.num_walks for r in runs)
    hits = sum(r.graph_pool_hits for r in runs)
    probes = hits + sum(r.graph_pool_misses for r in runs)
    device_seconds = sum(r.total_time * r.num_devices for r in runs)

    def sim(category: str) -> float:
        return sum(r.breakdown.get(category, 0.0) for r in runs)

    metrics = {
        name: sum(self_time[span] for span in spans)
        for name, spans in SELF_TIME_METRICS.items()
    }
    kernels = calls["backend.advance"]
    metrics.update({
        "engine.runs": calls["engine.run"],
        "engine.iterations": iterations,
        "engine.steps_per_iteration": _ratio(steps, iterations),
        "scheduler.calls": calls["scheduler"],
        "graph_server.explicit": sum(r.explicit_copies for r in runs),
        "graph_server.zero_copy": sum(r.zero_copy_iterations for r in runs),
        "graph_server.hit_rate": _ratio(hits, probes),
        "walk_loader.batches": sum(r.walk_batches_loaded for r in runs),
        "compute.calls": calls["compute"],
        "preemptive.useful_ratio": _ratio(
            tracer.child_calls[("preemptive", "compute")], calls["preemptive"]
        ),
        "backend.kernels": kernels,
        "backend.steps_per_kernel": _ratio(steps, kernels),
        "prng.calls": calls["prng"],
        "reshuffle.calls": calls["reshuffle"],
        "timeline.ops": calls["timeline.schedule"],
        "sim.compute_busy_frac": _ratio(
            collector.compute_busy, device_seconds
        ),
        "sim.graph_load_s": sim("graph_load"),
        "sim.zero_copy_s": sim("zero_copy"),
        "sim.walk_update_s": sim("walk_update"),
        "sim.walk_reshuffle_s": sim("walk_reshuffle"),
        "events.emitted": calls["events.emit"],
        "cluster.route_calls": calls["cluster.route"],
        "cluster.walks_migrated": sum(r.walks_migrated for r in runs),
        "cluster.migrations_per_walk": _ratio(
            sum(r.walks_migrated for r in runs), walks
        ),
        "sim.walk_migrate_s": sim("walk_migrate"),
        "sanitizer.calls": calls["sanitizer"],
        "serve.batches": calls["serve.batch"],
        "serve.queries_per_batch": _ratio(
            outcome.operations, calls["serve.batch"]
        ),
        "serve.solo_runs": calls["serve.standalone"],
        "serve.batch_run_s": tracer.total["serve.batch"],
        "serve.queue_wait_ms": (
            statistics.fmean(outcome.queue_waits_ms)
            if outcome.queue_waits_ms else 0.0
        ),
        "trace.unattributed_s": tracer.unattributed(),
        "trace.overhead_frac": outcome.wall
        / statistics.median(o.wall for o in untraced) - 1.0,
    })
    return metrics


def check_attribution(tracer: Tracer) -> None:
    """Raise unless the traced real time is attributed consistently.

    Every traced layer name is summed into exactly one self-time metric,
    so the self-time metrics plus ``trace.unattributed_s`` cover the
    traced wall once.  No self time is negative, which a span charged to
    the wrong parent or a child outliving its parent would cause.  And
    the unattributed time equals the root span's own self time, as it
    does only when every layer span was closed inside the root.
    """
    mapped = sorted(span for spans in SELF_TIME_METRICS.values() for span in spans)
    if mapped != sorted(LAYERS):
        raise RuntimeError(
            "SELF_TIME_METRICS does not map every traced layer exactly once"
        )
    negative = {
        name: seconds
        for name, seconds in tracer.self_time.items()
        if seconds < -TOLERANCE
    }
    unattributed = tracer.unattributed()
    if unattributed < -TOLERANCE:
        negative["trace.unattributed"] = unattributed
    if negative:
        raise RuntimeError(f"negative self times: {negative}")
    gap = tracer.self_time[Tracer.ROOT] - unattributed
    if abs(gap) > ROOT_TOLERANCE:
        raise RuntimeError(
            f"root self time and unattributed time differ by {gap:.6f} s"
        )
