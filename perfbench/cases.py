"""The benchmark workloads: inputs, one repetition, correctness gates.

Each workload is set up once (:func:`prepare`) and then repeated with
identical inputs; a repetition is one engine run (batch workloads) or one
serving session (``serve-closed``, in :mod:`serving`).  The set-up is
exactly what the program's own entry points do — ``repro run`` for the
batch workloads, ``repro serve`` for the session — with the workload seed
as the engine seed and the serve query stream, and it imports only what
that entry point imports.

``batch-fit`` is not in ``BENCHMARK.json``: it is the graph-fits-in-memory
contrast of the prediction map in ``README.md``, run by hand.

Gates compare outputs against facts computed without the code under
measurement: the walk count times the walk length, an independent
whole-graph PageRank walker, and each coalesced query's standalone run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

# Every engine run binds an execution backend; the engine imports the
# package lazily, so import it here to count it as set-up, not as the
# first repetition's work.
import repro.backends  # noqa: F401
from repro.bench.harness import make_algorithm
from repro.bench.workloads import (
    default_platform,
    load_dataset,
    standard_config,
    standard_walks,
)
from repro.core.engine import LightTrafficEngine
from repro.core.events import EventBus, IterationStarted, WalkFinished
from repro.graph.csr import CSRGraph

from hostspeed import NoSpeed

WORKLOADS = ("batch-fit", "batch-oocore", "cluster-2dev", "serve-closed")

#: Walks of ``batch-oocore``: enough that explicit copies with graph-pool
#: hits dominate (below ~5,000 the adaptive rule zero-copies most
#: iterations), few enough that one run takes seconds, not tens.
OOCORE_WALKS = 6000


class GateFailed(AssertionError):
    """A repetition's outputs are wrong; its operations all count failed."""


@dataclass
class Outcome:
    """What one repetition produced, on both clocks."""

    wall: float
    operations: int
    steps: int
    sim_seconds: float
    #: real per-operation latencies (ms) of this repetition.
    latencies_ms: np.ndarray
    sim_latency_p90_ms: float
    #: measured shape (iterations, serves, hit rate, migrations, batches).
    shape: Dict[str, float]
    #: digest of every output and simulated figure; equal across
    #: repetitions of one workload and seed.
    fingerprint: str
    #: real per-request queue waits (ms); serve workloads only.
    queue_waits_ms: List[float] = field(default_factory=list)
    detail: object = field(default=None, repr=False)


def digest(*parts: object) -> str:
    sha = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode("utf-8"))
    return sha.hexdigest()


# ----------------------------------------------------------------------
# Independent PageRank reference
# ----------------------------------------------------------------------
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STEP_SALT = np.uint64(0x632BE59BD9B4E019)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer."""
    x = x + _GAMMA
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _unit(key: np.ndarray) -> np.ndarray:
    return (_mix64(key) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def pagerank_reference(
    graph: CSRGraph,
    num_walks: int,
    seed: int,
    length: int,
    restart_prob: float,
) -> np.ndarray:
    """Visit counts of counter-RNG PageRank walks, all stepped together.

    Walk ``k`` starts at vertex ``k mod |V|``.  Its ``d``-th draw at step
    ``s`` hashes ``(seed, k, s, d)``; per step it draws a neighbour pick,
    a restart coin and a restart target, and a dead end forces a restart.
    Walks never leave the one whole-graph array, so no partition,
    scheduler, walk pool or device shard takes part.
    """
    n = graph.num_vertices
    offsets = graph.offsets.astype(np.int64)
    targets = graph.targets.astype(np.int64)
    ids = np.arange(num_walks, dtype=np.int64)
    vertices = ids % n
    counts = np.bincount(vertices, minlength=n).astype(np.int64)
    with np.errstate(over="ignore"):
        base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _mix64(
            ids.astype(np.uint64)
        )
        for step in range(length):
            key = base + _mix64(
                np.full(num_walks, step, dtype=np.uint64) + _STEP_SALT
            )
            pick, coin, jump = (
                _unit(key + np.uint64(draw) * _GAMMA) for draw in range(3)
            )
            first = offsets[vertices]
            degree = offsets[vertices + 1] - first
            dead = degree == 0
            chosen = first + np.minimum(
                (pick * degree).astype(np.int64), degree - 1
            )
            neighbour = np.where(dead, vertices, targets[np.where(dead, 0, chosen)])
            restart = (coin < restart_prob) | dead
            vertices = np.where(restart, (jump * n).astype(np.int64), neighbour)
            counts += np.bincount(vertices, minlength=n)
    return counts


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
class _FinishClock:
    """Real time, since the run started, at which each walk finished.

    Times are read from ``speed``'s clock, which it ticks at the start of
    every engine iteration.
    """

    def __init__(self, speed) -> None:
        self.speed = speed
        self.started = 0.0
        self.times: List[float] = []
        self.counts: List[int] = []

    def start(self) -> None:
        self.times, self.counts = [], []
        self.started = self.speed.clock()

    def on_iteration_started(self, event: IterationStarted) -> None:
        self.speed.tick()

    def on_walk_finished(self, event: WalkFinished) -> None:
        self.times.append(self.speed.clock() - self.started)
        self.counts.append(event.count)

    def latencies_ms(self) -> np.ndarray:
        """One latency per finished walk."""
        return np.repeat(np.asarray(self.times) * 1e3, self.counts)


class BatchCase:
    """One engine, run to completion once per repetition.

    Every run is gated on its step and finish counts, PageRank runs also
    on their visit counts.
    """

    def __init__(
        self, graph: CSRGraph, algorithm_name: str, config, walks: int,
        speed=NoSpeed,
    ) -> None:
        self.graph = graph
        self.walks = self.operations = walks
        self.algorithm = make_algorithm(algorithm_name)
        self.config = config
        self.check_visits = algorithm_name == "pagerank"
        self._finishes = _FinishClock(speed)
        bus = EventBus()
        bus.attach(self._finishes)
        self.engine = LightTrafficEngine(
            graph, self.algorithm, config, bus=bus
        )
        self._reference: Optional[np.ndarray] = None

    def reference(self) -> np.ndarray:
        if self._reference is None:
            self._reference = pagerank_reference(
                self.graph,
                self.walks,
                self.config.seed,
                self.algorithm.length,
                self.algorithm.restart_prob,
            )
        return self._reference

    def run_once(self) -> Outcome:
        self._finishes.start()
        stats = self.engine.run(self.walks)
        wall = self._finishes.speed.clock() - self._finishes.started
        visits = (
            self.algorithm.visit_counts.copy() if self.check_visits else None
        )
        shape = {
            "partitions": stats.num_partitions,
            "iterations": stats.iterations,
            "explicit_copies": stats.explicit_copies,
            "zero_copy_serves": stats.zero_copy_iterations,
            "hit_rate": round(stats.graph_pool_hit_rate, 4),
            "walks_migrated": stats.walks_migrated,
        }
        return Outcome(
            wall=wall,
            operations=self.walks,
            steps=stats.total_steps,
            sim_seconds=stats.total_time,
            latencies_ms=self._finishes.latencies_ms(),
            sim_latency_p90_ms=stats.total_time * 1e3,
            shape=shape,
            fingerprint=digest(
                stats.total_steps, stats.total_time, sorted(shape.items()),
                sorted(stats.breakdown.items()), visits,
            ),
            detail=(stats, visits, sum(self._finishes.counts)),
        )

    def check(self, outcome: Outcome) -> None:
        stats, visits, finished = outcome.detail
        if self.check_visits:
            if not np.array_equal(visits, self.reference()):
                wrong = int(np.count_nonzero(visits != self.reference()))
                raise GateFailed(
                    f"visit counts differ from the whole-graph reference "
                    f"at {wrong} vertices"
                )
        expected = self.walks * self.algorithm.length
        if stats.total_steps != expected:
            raise GateFailed(
                f"{stats.total_steps} steps taken, expected "
                f"{self.walks} walks x {self.algorithm.length}"
            )
        if finished != self.walks:
            raise GateFailed(f"{finished} of {self.walks} walks finished")


# ----------------------------------------------------------------------
def prepare(workload: str, seed: int, speed=NoSpeed):
    """Set a workload up exactly as the program's entry point would.

    ``speed`` (a :class:`hostspeed.HostSpeed`) is ticked during every
    repetition and times it; by default repetitions take plain real time.
    """
    if workload == "serve-closed":
        import serving

        return serving.ServeCase(seed, speed=speed)
    platform = default_platform()
    if workload == "batch-fit":
        graph = load_dataset("tw-sim")
        config = standard_config(graph, platform, seed=seed)
        return BatchCase(graph, "uniform", config, standard_walks(graph),
                         speed)
    if workload == "batch-oocore":
        graph = load_dataset("uk-sim")
        config = standard_config(
            graph, platform, num_walks=OOCORE_WALKS, seed=seed,
            rng_mode="counter",
        )
        return BatchCase(graph, "pagerank", config, OOCORE_WALKS, speed)
    if workload == "cluster-2dev":
        # The multi-device engine, imported lazily by the first run.
        import repro.core.cluster  # noqa: F401

        graph = load_dataset("tw-sim")
        config = standard_config(
            graph, platform, seed=seed, rng_mode="counter", devices=2,
            peer_interconnect="nvlink", topology="all-pairs",
        )
        return BatchCase(graph, "pagerank", config, standard_walks(graph),
                         speed)
    raise ValueError(f"unknown workload {workload!r}")
