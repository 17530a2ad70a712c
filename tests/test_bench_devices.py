"""The `repro bench devices` multi-device scaling benchmark harness."""

from repro.bench import devices as bench


class TestRunBench:
    def test_quick_run_structure(self):
        results = bench.run_bench(scale=9, edge_factor=5, quick=True)
        assert results["config"]["quick"] is True
        assert results["config"]["device_counts"] == [1, 2, 4]
        runs = results["runs"]
        assert set(runs) == {"1", "2", "4"}
        assert runs["1"]["speedup"] == 1.0
        assert runs["1"]["walks_migrated"] == 0
        for run in runs.values():
            assert run["total_time"] > 0
            assert run["sanitizer_clean"]
        # Shards exchange walks once there is more than one of them.
        assert runs["2"]["walks_migrated"] > 0
        assert runs["4"]["walks_migrated"] > 0
        checks = results["checks"]
        assert checks["conservation_ok"]
        # quick mode reports the speedup but does not enforce the floor.
        assert checks["speedup_enforced"] is False
        assert checks["all_ok"]

    def test_multi_device_runs_report_device_times(self):
        results = bench.run_bench(scale=9, edge_factor=5, quick=True)
        times = results["runs"]["4"]["device_times"]
        assert set(times) == {"0", "1", "2", "3"}
        assert all(t >= 0 for t in times.values())

    def test_summary_mentions_speedup_and_checks(self):
        results = bench.run_bench(scale=9, edge_factor=5, quick=True)
        text = bench.format_summary(results)
        assert "multi-device scaling benchmark" in text
        assert "speedup" in text
        assert "conservation_ok=True" in text

