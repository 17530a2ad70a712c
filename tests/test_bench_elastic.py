"""The `repro bench elastic` heterogeneity/failure benchmark harness."""

from repro.bench import elastic as bench


class TestRunBench:
    def test_quick_run_structure(self):
        results = bench.run_bench(scale=9, edge_factor=5, quick=True)
        config = results["config"]
        assert config["quick"] is True
        assert config["devices"] == 4
        assert config["capability_skew"] == [2.0, 1.0, 1.0, 0.5]
        runs = results["runs"]
        assert set(runs) == {
            "hetero_aware", "hetero_uniform", "baseline", "failure",
        }
        for run in runs.values():
            assert run["total_time"] > 0
            assert run["sanitizer_clean"]
            # Zero lost walks, exactly: fixed-length workload.
            assert run["total_steps"] == run["expected_steps"]
        checks = results["checks"]
        assert checks["conservation_ok"]
        assert checks["no_lost_walks"]
        assert checks["recovery_ok"]
        # quick mode reports the ratios but does not enforce the gates.
        assert checks["perf_enforced"] is False
        assert checks["all_ok"]

    def test_failure_run_recovers_walks(self):
        results = bench.run_bench(scale=9, edge_factor=5, quick=True)
        failure = results["runs"]["failure"]
        assert failure["device_failures"] == 1
        assert failure["walks_recovered"] > 0
        baseline = results["runs"]["baseline"]
        assert baseline["device_failures"] == 0
        assert results["failure_slowdown"] > 0

    def test_summary_mentions_ratios_and_checks(self):
        results = bench.run_bench(scale=9, edge_factor=5, quick=True)
        text = bench.format_summary(results)
        assert "elastic cluster benchmark" in text
        assert "hetero speedup" in text
        assert "failure slowdown" in text
        assert "conservation_ok=True" in text

