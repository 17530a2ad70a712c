"""Self-tests of the benchmark's gates, reference and tracer.

Usage: ``python3 perfbench/selftest.py`` (exit 0 when every check holds).

* A clean run passes each gate; one corrupted PageRank visit count, one
  dropped walk, one walk missing from a serve request and one coalesced
  request that differs from its standalone run each fail it, and the
  run's result then counts every operation failed (error rate 1.0).
* The whole-graph PageRank reference equals the engine on one and two
  devices for several seeds.
* The host-speed scale multiplies the real times and divides the real
  rates, leaves every other metric alone, and its helper process ends.
* The tracer's self times plus the unattributed time add up to the
  traced wall time, nested spans of one name count once, the attribution
  check fails on a negative self time or a root mismatch, and installing
  then removing the wrappers restores every original entry point.
"""

from __future__ import annotations

import json
import math
import sys
import time
import types

import pin

pin.pin_environment()

import numpy as np  # noqa: E402

import cases  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serving  # noqa: E402
from repro.core.config import EngineConfig  # noqa: E402
from repro.graph import generators  # noqa: E402
from tracing import Tracer  # noqa: E402

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


def _small_batch(algorithm: str, seed: int = 3, devices: int = 1,
                 speed=hostspeed.NoSpeed):
    graph = generators.rmat(scale=9, edge_factor=4, seed=3, name="selftest")
    config = EngineConfig(
        partition_bytes=2048, batch_walks=64, graph_pool_partitions=4,
        seed=seed, rng_mode="counter", devices=devices,
    )
    return cases.BatchCase(graph, algorithm, config, 700, speed)


def _expect_failure(case, corrupt) -> None:
    """``corrupt`` one repetition's outputs; the gate must fail the run."""
    clean = case.run_once

    def corrupted():
        outcome = clean()
        corrupt(outcome)
        return outcome

    case.run_once = corrupted
    try:
        run.repeat(case, 0.0, cases, min_reps=2)
    except cases.GateFailed as exc:
        result = run.failure_result(exc)
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] == case.operations
        assert result["failed"] / result["attempted"] == 1.0
        json.dumps(result)
    else:
        raise AssertionError("a corrupted output passed the gate")
    finally:
        case.run_once = clean


@check
def clean_runs_pass():
    for case in (_small_batch("pagerank"), _small_batch("uniform")):
        outcomes, attempted, rss = run.repeat(case, 0.0, cases, min_reps=2)
        assert attempted == 2 * case.operations and len(outcomes) == 2
        assert rss > 0


@check
def host_speed_scales_real_clock_only():
    with hostspeed.HostSpeed() as speed:
        case = _small_batch("pagerank", speed=speed)
        outcomes, __, rss = run.repeat(case, 0.0, cases, min_reps=2)
        assert len(speed.chunks) >= 2 and speed.paused > 0
        assert speed.scale() > 0 and speed.chunks == []
    assert speed._helper.returncode == 0
    base = run.end_to_end(outcomes, [0.5], rss)
    scaled = run.end_to_end(outcomes, [0.5], rss, setup_scale=2.0, scale=2.0)
    for name, value in base.items():
        factor = 1.0
        if name in run.REAL_CLOCK:
            factor = 0.5 if name.endswith("_per_s") or name == "qps" else 2.0
        assert math.isclose(scaled[name], factor * value), name


@check
def corrupted_visit_count_fails():
    def corrupt(outcome):
        visits = outcome.detail[1]
        visits[int(np.argmax(visits))] += 1

    _expect_failure(_small_batch("pagerank"), corrupt)


@check
def dropped_walk_fails():
    def corrupt(outcome):
        stats, visits, finished = outcome.detail
        stats.total_steps -= 80
        outcome.detail = (stats, visits, finished - 1)

    _expect_failure(_small_batch("uniform"), corrupt)


@check
def serve_gates_fail_on_lost_walk_and_parity():
    case = serving.ServeCase(seed=5, queries=16)
    outcome = case.run_once()
    case.check(outcome)
    report, members = outcome.detail
    coalesced = [r for r in report.results if members[r.batch] > 1]
    assert coalesced, "the small session coalesced nothing"

    def drop_walk(outcome):
        report = outcome.detail[0]
        result = report.results[0]
        report.results[0] = type(result)(
            **dict(vars(result), walks=result.walks - 1,
                   final_vertices=result.final_vertices[:-1])
        )

    def change_vertex(outcome):
        report, members = outcome.detail
        for result in report.results:
            if members[result.batch] > 1:
                result.final_vertices[0] += 1
                return

    case = serving.ServeCase(seed=5, queries=16)
    _expect_failure(case, drop_walk)
    case = serving.ServeCase(seed=5, queries=16)
    _expect_failure(case, change_vertex)


@check
def reference_matches_engine():
    for seed in (1, 7, 123456789):
        for devices in (1, 2):
            case = _small_batch("pagerank", seed=seed, devices=devices)
            case.check(case.run_once())


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@check
def self_times_add_up():
    tracer = Tracer(aggregated={"leaf"})
    leaf = tracer.wrap("leaf", lambda: _busy(0.01))
    inner = tracer.wrap("mid", lambda: _busy(0.005))

    def mid_body():
        _busy(0.01)
        leaf()
        leaf()
        inner()  # same name as its parent: one call, self time kept

    mid = tracer.wrap("mid", mid_body)
    tracer.region(lambda: (_busy(0.005), mid()))
    layered = sum(v for k, v in tracer.self_time.items() if k != Tracer.ROOT)
    assert abs(layered + tracer.unattributed() - tracer.wall) < 1e-9
    assert abs(tracer.self_time["leaf"] - 0.02) < 0.004
    assert abs(tracer.self_time["mid"] - 0.015) < 0.004
    assert tracer.unattributed() > 0.004
    assert tracer.calls["mid"] == 1 and tracer.calls["leaf"] == 2
    assert tracer.child_calls[("mid", "leaf")] == 2
    names = [span[0] for span in tracer.spans]
    assert "leaf" not in names and names.count("mid") == 2
    trace = json.loads(json.dumps(tracer.chrome_trace()))
    ids = {e["args"]["id"] for e in trace["traceEvents"] if e["ph"] == "X"}
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert event["args"]["parent"] in ids | {0}
    layers.check_attribution(tracer)
    for name, shift in (("mid", -0.02), (Tracer.ROOT, 0.01)):
        tracer.self_time[name] += shift
        try:
            layers.check_attribution(tracer)
        except RuntimeError:
            pass
        else:
            raise AssertionError(f"a {shift} s error in {name} passed")
        tracer.self_time[name] -= shift


@check
def install_restores_entry_points():
    import repro.core.engine as engine
    import repro.core.scheduler as scheduler
    import repro.graph.partition as partition

    before = (
        scheduler.Scheduler.select_partition,
        partition.partition_by_range,
        engine.partition_by_range,
        engine.LightTrafficEngine.run,
    )
    tracer = Tracer()
    tracer.install()
    assert engine.partition_by_range is not before[2]
    assert scheduler.Scheduler.select_partition is not before[0]
    # A module imported while the wrappers are installed.
    late = types.ModuleType("perfbench_late_import")
    late.partition_by_range = partition.partition_by_range
    sys.modules[late.__name__] = late
    try:
        tracer.uninstall()
        assert late.partition_by_range is before[1]
    finally:
        del sys.modules[late.__name__]
    after = (
        scheduler.Scheduler.select_partition,
        partition.partition_by_range,
        engine.partition_by_range,
        engine.LightTrafficEngine.run,
    )
    assert after == before


def main() -> int:
    failed = 0
    for fn in CHECKS:
        started = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # report every check, then fail
            failed += 1
            print(f"FAIL {fn.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__} ({time.perf_counter() - started:.1f} s)")
    print(f"{len(CHECKS) - failed}/{len(CHECKS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
