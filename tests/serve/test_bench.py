"""The serve benchmark harness and its acceptance gates."""

import pytest

from repro.obs.metrics import nearest_rank
from repro.serve.bench import check_bench, run_serve_bench


class TestPercentile:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert nearest_rank(samples, 0.5) == 3.0
        assert nearest_rank(samples, 0.99) == 5.0
        assert nearest_rank(samples, 0.0) == 1.0

    def test_order_independent(self):
        assert nearest_rank([3.0, 1.0, 2.0], 0.5) == \
            nearest_rank([1.0, 2.0, 3.0], 0.5)

    def test_empty_is_zero(self):
        assert nearest_rank([], 0.5, empty=0.0) == 0.0


@pytest.mark.slow
class TestServeBench:
    def test_small_bench_passes_its_own_gates(self, tmp_path):
        report = run_serve_bench(clients=6, requests=4, probe_every=2,
                                 root=tmp_path)
        assert check_bench(report, min_clients=6) == []
        assert report["bench"] == "BENCH_7"
        assert report["timescale"] == "wall"
        assert report["oracle"]["probes"] > 0
        assert report["oracle"]["disagreements"] == 0
        assert report["drain"]["lost"] == 0
        assert report["drain"]["wal_flushed"] is True
        assert report["cold"]["requests"] == report["warm"]["requests"] > 0

    def test_check_bench_catches_regressions(self, tmp_path):
        report = run_serve_bench(clients=4, requests=4, probe_every=2,
                                 root=tmp_path)
        assert check_bench(report, min_clients=4) == []
        # Too few clients for the gate.
        assert check_bench(report, min_clients=32)
        # A disagreement or a lost in-flight call must fail the gate.
        broken = {**report, "oracle": {**report["oracle"],
                                       "disagreements": 1}}
        assert any("disagree" in failure for failure in check_bench(
            broken, min_clients=4))
        dropped = {**report, "drain": {**report["drain"], "lost": 2}}
        assert any("lost" in failure for failure in check_bench(
            dropped, min_clients=4))
