"""The ``serve-closed`` workload: a closed-loop serving session.

Kept apart from :mod:`cases` so that only this workload imports the
serving front-end and the runtime sanitizer it turns on, as
``repro serve`` does.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

import numpy as np

# The session's sanitizer pulls the analysis package in on first use;
# import it here to count it as set-up.
import repro.analysis  # noqa: F401
from repro.bench.harness import bench_engine_config
from repro.graph import generators
from repro.serve import ServeSession, default_workload, make_vertex_types
from repro.serve.batch import run_standalone

from cases import GateFailed, Outcome, digest
from hostspeed import NoSpeed

#: Session size: far more than the 100 requests that put ten samples
#: beyond p90, and large enough that the simulated figures of different
#: query streams (seeds) stay within a few percent.
SERVE_QUERIES = 256
SERVE_CLIENTS = 8
SERVE_MAX_BATCH_WALKS = 512
#: The resident serving graph is fixed (``repro serve``'s defaults); only
#: the engine seed and the query stream follow the workload seed.
SERVE_GRAPH = dict(scale=10, edge_factor=8, seed=7)


class _TimedSession(ServeSession):
    """Records the real start and end of every batch the session runs.

    Times are read from ``speed``'s clock, which it ticks before every
    batch.
    """

    batch_walls: List[Tuple[float, float]]
    speed = NoSpeed

    def _execute(self, batch, batch_index):
        self.speed.tick()
        started = self.speed.clock()
        try:
            return super()._execute(batch, batch_index)
        finally:
            self.batch_walls.append((started, self.speed.clock()))


def request_timing(report, batch_walls) -> Tuple[List[float], List[float]]:
    """Real latency and queue wait of every request of one session (ms).

    The front-end first sees a request just before the first batch whose
    simulated start is at or after the request's simulated arrival; the
    request waits until its own batch starts and is answered when that
    batch returns.
    """
    sim_start = [0.0] * report.batches
    for result in report.results:
        sim_start[result.batch] = result.arrival + result.queue_seconds
    latencies, waits = [], []
    for result in report.results:
        seen = batch_walls[bisect_left(sim_start, result.arrival)][0]
        start, end = batch_walls[result.batch]
        latencies.append((end - seen) * 1e3)
        waits.append((start - seen) * 1e3)
    return latencies, waits


class ServeCase:
    """A closed-loop session of simulated clients over one resident graph."""

    def __init__(
        self, seed: int, queries: int = SERVE_QUERIES, speed=NoSpeed
    ) -> None:
        self.graph = generators.rmat(**SERVE_GRAPH)
        self.vertex_types = make_vertex_types(self.graph, SERVE_GRAPH["seed"])
        self.config = bench_engine_config(seed, quick=False)
        self.queries = default_workload(self.graph, queries=queries, seed=seed)
        self.operations = len(self.queries)
        self.session = _TimedSession(
            self.graph,
            self.config,
            workers=SERVE_CLIENTS,
            max_batch_walks=SERVE_MAX_BATCH_WALKS,
            vertex_types=self.vertex_types,
        )
        self.session.speed = speed
        self._parity_checked = False

    def run_once(self) -> Outcome:
        self.session.batch_walls = []
        started = self.session.speed.clock()
        report = self.session.run(self.queries)
        wall = self.session.speed.clock() - started
        latencies, waits = request_timing(report, self.session.batch_walls)
        members: Dict[int, int] = {}
        for result in report.results:
            members[result.batch] = members.get(result.batch, 0) + 1
        shape = {
            "batches": report.batches,
            "queries_per_batch": round(len(report.results) / report.batches, 4),
            "coalesced_queries": report.coalesced_queries,
            "solo_batches": sum(1 for m in members.values() if m == 1),
            "iterations": report.engine_iterations,
            "steps": report.engine_steps,
        }
        ordered = sorted(report.results, key=lambda r: r.request_id)
        return Outcome(
            wall=wall,
            operations=len(self.queries),
            steps=report.engine_steps,
            sim_seconds=report.makespan,
            latencies_ms=np.asarray(latencies),
            sim_latency_p90_ms=(
                report.latency_percentiles()["total_seconds"]["p90"] * 1e3
            ),
            shape=shape,
            fingerprint=digest(
                report.makespan, sorted(shape.items()),
                *[(r.request_id, r.batch, r.total_seconds) for r in ordered],
                *[r.final_vertices for r in ordered],
                *[r.steps_taken for r in ordered],
            ),
            queue_waits_ms=waits,
            detail=(report, members),
        )

    def check(self, outcome: Outcome) -> None:
        report, members = outcome.detail
        if report.sanitizer is None or not report.sanitizer.get("clean"):
            raise GateFailed("session sanitizer is not clean")
        if not report.engine_sanitizers_clean:
            raise GateFailed("a per-batch engine sanitizer is not clean")
        ids = sorted(r.request_id for r in report.results)
        if ids != list(range(len(self.queries))):
            raise GateFailed("requests were lost or answered twice")
        for result in report.results:
            want = result.query.walks
            if not (
                result.walks == want
                and result.final_vertices.shape == (want,)
                and result.steps_taken.shape == (want,)
            ):
                raise GateFailed(
                    f"request {result.request_id} got {result.walks} of "
                    f"{want} walks"
                )
        if self._parity_checked:
            return
        for result in report.results:
            if members[result.batch] < 2:
                continue
            alone = run_standalone(
                self.graph, result.query, result.seed, self.config,
                vertex_types=self.vertex_types,
            )
            if not (
                np.array_equal(alone.final_vertices, result.final_vertices)
                and np.array_equal(alone.steps_taken, result.steps_taken)
            ):
                raise GateFailed(
                    f"coalesced request {result.request_id} differs from "
                    "its standalone run"
                )
        self._parity_checked = True
