"""The `repro bench samplers` microbenchmark harness."""

import numpy as np

from repro.bench import samplers as bench


class TestRunBench:
    def test_quick_run_structure_and_parity(self):
        results = bench.run_bench(vertices=600, edge_factor=5, quick=True)
        assert results["alias_build"]["tables_bit_identical"]
        assert results["node2vec_step"]["acceptance_bit_identical"]
        assert results["checks"]["parity_ok"]
        assert results["checks"]["all_ok"]  # quick mode: parity gates only
        for entry in results["distribution_parity"].values():
            assert entry["ok"]
        rates = results["sampling_steps_per_second"]
        for name in ("uniform", "alias", "inverse", "rejection"):
            assert all(rate > 0 for rate in rates[name].values())

    def test_bench_graph_weights_are_integer_valued(self):
        g = bench.make_bench_graph(vertices=300, edge_factor=4)
        assert g.is_weighted
        assert np.array_equal(g.weights, np.floor(g.weights))
        assert (g.weights >= 1).all()

    def test_summary_mentions_speedups(self):
        results = bench.run_bench(vertices=400, edge_factor=4, quick=True)
        text = bench.format_summary(results)
        assert "alias build" in text
        assert "node2vec step" in text
        assert "parity" in text

