"""perfbench: the repository's end-to-end benchmark.

Usage::

    python3 perfbench/run.py --workload batch-fit --seed 1 --seconds 12 --trace 0

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``) from
the checkout's own ``src/`` tree, checks every repetition's outputs, and
prints a table of metrics followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: set-up time from fresh
interpreters, then repetitions of the workload with identical inputs for
at least ``--seconds`` of real time.  Real-clock figures are scaled to the
reference host speed of :mod:`hostspeed`, timed alongside.  ``--trace 1``
reports the per-layer metrics: one traced set-up plus repetition, then
untraced repetitions for the tracing overhead; it also writes a Chrome
trace and the per-layer table under ``.bench_build/perfbench/``.

Exit status: 0 when every gate passed, 1 when a gate failed or the
workload raised (the JSON then counts every operation failed), 2 when
the checkout or the environment cannot be benchmarked (no JSON).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pin

HERE = Path(__file__).resolve().parent
#: Set-up is timed in this many fresh interpreters (after one warm-up).
SETUP_PROBES = 5
#: Repetitions measured at least, however long ``--seconds`` is.
MIN_REPS = 3
#: End-to-end metrics on the real clock, which the host-speed scale applies to.
REAL_CLOCK = ("setup_s", "steps_per_s", "qps", "latency_p50_ms",
              "latency_p90_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(kind: str):
    """``{name: unit}`` of one metric list of ``BENCHMARK.json``."""
    with open(pin.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter (``probe.py``)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=pin.ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat(case, seconds: float, cases, first=None, min_reps=MIN_REPS):
    """Run ``case`` until ``seconds`` of repetitions (>= ``min_reps``) are done.

    Every repetition passes the gate and reproduces ``first`` (or the
    first repetition) exactly.  Returns ``(outcomes, operations attempted,
    peak RSS in MB after set-up and ``min_reps`` repetitions)``; the RSS
    high-water mark creeps up with allocator fragmentation, so it is read
    after a fixed amount of work.  Re-raises any failure with the
    attempted count attached.
    """
    outcomes, attempted, spent, rss = [], 0, 0.0, 0.0
    try:
        while spent < seconds or len(outcomes) < min_reps:
            attempted += case.operations
            outcome = case.run_once()
            case.check(outcome)
            first = first or outcome
            if outcome.fingerprint != first.fingerprint:
                raise cases.GateFailed(
                    "a repetition with identical inputs produced different "
                    "outputs or simulated figures"
                )
            outcomes.append(outcome)
            spent += outcome.wall
            if len(outcomes) == min_reps:
                rss = peak_rss_mb()
    except Exception as exc:
        exc.attempted = attempted
        raise
    return outcomes, attempted, rss


def print_table(title: str, metrics, units) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")


def result_line(correct: bool, attempted: int, failed: int, metrics, units):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def failure_result(exc: BaseException):
    """The result of a run that raised or failed a gate: all ops failed."""
    attempted = max(1, getattr(exc, "attempted", 0))
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def end_to_end(outcomes, setup_samples, rss_mb, setup_scale=1.0, scale=1.0):
    """The end-to-end metrics of one run's repetitions.

    Real-clock throughput is the run's total work over its total wall
    time, and a latency percentile is taken within each repetition and
    averaged over them: on a shared host whose speed swings over tens of
    seconds, figures over the whole run vary less between runs than the
    median repetition does.  Real times are multiplied, and real rates
    divided, by the host-speed ``scale`` (``setup_scale`` for set-up).
    """
    from repro.serve.session import nearest_rank

    def latency(percentile: int) -> float:
        return scale * statistics.fmean(
            nearest_rank(o.latencies_ms, percentile) for o in outcomes
        )

    first = outcomes[0]
    wall = scale * sum(o.wall for o in outcomes)
    return {
        "setup_s": setup_scale * statistics.median(setup_samples),
        "steps_per_s": sum(o.steps for o in outcomes) / wall,
        "sim_steps_per_s": first.steps / first.sim_seconds,
        "qps": sum(o.operations for o in outcomes) / wall,
        "latency_p50_ms": latency(50),
        "latency_p90_ms": latency(90),
        "sim_qps": first.operations / first.sim_seconds,
        "sim_latency_p90_ms": first.sim_latency_p90_ms,
        "peak_rss_mb": rss_mb,
    }


def measured_run(args, cases) -> int:
    import hostspeed

    units = declared_metrics("end_to_end")
    probe_setup(args.workload, args.seed)  # warms dataset cache and bytecode
    with hostspeed.HostSpeed() as speed:
        setup = []
        for _ in range(SETUP_PROBES):
            started = time.perf_counter()
            setup.append(probe_setup(args.workload, args.seed))
            speed.sample(time.perf_counter() - started)
        setup_chunks = len(speed.chunks)
        setup_scale = speed.scale(hostspeed.SETUP_REFERENCE_S)
        case = cases.prepare(args.workload, args.seed, speed)
        outcomes, attempted, rss_mb = repeat(case, args.seconds, cases)
        run_chunks, scale = len(speed.chunks), speed.scale()
    metrics = end_to_end(outcomes, setup, rss_mb, setup_scale, scale)
    unscaled = end_to_end(outcomes, setup, rss_mb)
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json")
    print("shape: " + json.dumps(outcomes[0].shape))
    print("repetition walls (s): "
          + " ".join(f"{o.wall:.3f}" for o in outcomes))
    print(f"repetitions: {len(outcomes)}, latency samples per repetition: "
          f"{len(outcomes[0].latencies_ms)}, set-up samples: {len(setup)}")
    print(f"host-speed scale: {scale:.4f} over {run_chunks} chunks, "
          f"set-up {setup_scale:.4f} over {setup_chunks} chunks")
    print("unscaled: " + " ".join(
        f"{name}={unscaled[name]:.6g}" for name in REAL_CLOCK
    ))
    print_table("end-to-end metrics", dict(metrics, error_rate=0.0),
                dict(units, error_rate="ratio"))
    print(result_line(True, attempted, 0, metrics, units))
    return 0


def traced_run(args, cases, env) -> int:
    import layers

    units = declared_metrics("per_layer")
    probe_setup(args.workload, args.seed)  # warms dataset cache and bytecode
    traced, collector, case, outcome = layers.traced_repetition(
        cases, args.workload, args.seed
    )
    try:
        case.check(outcome)
    except cases.GateFailed as exc:
        exc.attempted = case.operations
        raise
    untraced, attempted, __ = repeat(
        case, args.seconds - outcome.wall, cases, first=outcome, min_reps=1
    )
    metrics = layers.layer_metrics(traced, collector, outcome, untraced)
    if set(metrics) != set(units):
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json")
    layers.check_attribution(traced)
    out = pin.OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    meta = dict(env, workload=args.workload, seed=args.seed)
    traced.write_chrome_trace(out / f"trace-{stem}.json", meta)
    with open(out / f"layers-{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(meta, shape=outcome.shape, metrics=metrics), handle,
                  indent=2)
    print("shape: " + json.dumps(outcome.shape))
    print(f"traced wall {traced.wall:.4f} s, {len(traced.spans)} spans; "
          f"trace written to {out / f'trace-{stem}.json'}")
    print_table("per-layer metrics", metrics, units)
    print(result_line(True, attempted + case.operations, 0, metrics, units))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pin.pin_environment()
    except pin.EnvironmentRefused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import cases

    if args.workload not in cases.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    env = pin.describe()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env))
    started = time.perf_counter()
    try:
        if args.trace:
            status = traced_run(args, cases, env)
        else:
            status = measured_run(args, cases)
    except Exception as exc:  # the run's operations all count as failed
        traceback.print_exc()
        result = failure_result(exc)
        print(f"FAILED: {exc}")
        print(f"  {'error_rate':32s} "
              f"{result['failed'] / result['attempted']:>16.6g} ratio")
        print(json.dumps(result))
        return 1
    print(f"total {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
