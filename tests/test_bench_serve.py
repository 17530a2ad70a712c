"""The `repro bench serve` sustained-load serving benchmark harness."""

import json

import pytest

from repro.bench import serve as bench


@pytest.fixture(scope="module")
def quick_results():
    return bench.run_bench(scale=8, edge_factor=5, quick=True)


class TestRunBench:
    def test_quick_run_structure(self, quick_results):
        config = quick_results["config"]
        assert config["quick"] is True
        assert config["worker_counts"] == [2, 8]
        assert config["kinds"] == ["ppr", "uniform", "metapath", "node2vec"]
        runs = quick_results["runs"]
        assert set(runs) == {
            "closed-w2", "closed-w8", "open-w2", "open-w8",
        }
        for name, run in runs.items():
            assert run["sanitizer_clean"], name
            assert run["engine_sanitizers_clean"], name
            assert run["queries_admitted"] == config["queries"]
            assert run["queries_completed"] == config["queries"]
            assert run["makespan"] > 0
            assert run["throughput"]["queries_per_second"] > 0
            for series in run["latency"].values():
                assert series["p50"] <= series["p90"] <= series["p99"]
        for name in ("open-w2", "open-w8"):
            assert runs[name]["arrival"] == "open"
            assert runs[name]["arrival_rate"] > 0
        checks = quick_results["checks"]
        assert checks["parity_ok"]
        assert checks["conservation_ok"]
        assert checks["latency_monotonic"]
        assert checks["coalescing_exercised"]
        # quick mode reports latency but does not enforce perf gates.
        assert checks["perf_enforced"] is False
        assert checks["all_ok"]

    def test_parity_gate_rechecks_requests(self, quick_results):
        parity = quick_results["parity"]
        assert parity["requests_checked"] > 0
        assert parity["mismatched_requests"] == []
        assert parity["ok"]

    def test_results_round_trip_as_json(self, quick_results):
        payload = json.loads(json.dumps(quick_results))
        assert payload["checks"]["all_ok"]

    def test_summary_mentions_gates_and_latency(self, quick_results):
        text = bench.format_summary(quick_results)
        assert "walk-serving benchmark" in text
        assert "parity gate" in text
        assert "conservation_ok=True" in text
        assert "p99" in text

