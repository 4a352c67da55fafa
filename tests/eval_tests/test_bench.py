"""Tests for the headless top-k benchmark suite."""

import json

import pytest

from repro.eval import format_report, run_topk_suite, write_report


@pytest.fixture(scope="module")
def report():
    """One tiny suite run shared by the assertions below."""
    return run_topk_suite(num_users=50, num_queries=3, k=5, rounds=1,
                          algorithms=("exact", "social-first"))


class TestRunTopkSuite:
    def test_report_shape(self, report):
        assert report["suite"] == "topk"
        assert report["dataset"]["num_users"] == 50
        assert report["workload"]["k"] == 5
        assert "speedup_vectorized_exact" not in report

    def test_one_entry_per_requested_algorithm(self, report):
        assert [entry["algorithm"] for entry in report["entries"]] == [
            "exact", "social-first"]
        for entry in report["entries"]:
            assert "mode" not in entry

    def test_entries_carry_latency_summary(self, report):
        for entry in report["entries"]:
            assert entry["queries"] > 0
            assert entry["p50_ms"] >= 0.0
            assert entry["p95_ms"] >= entry["p50_ms"] - 1e-9
            assert entry["qps"] > 0.0

    def test_qps_is_queries_over_total_time(self, report):
        for entry in report["entries"]:
            total_s = entry["mean_ms"] * entry["queries"] / 1000.0
            assert entry["qps"] == pytest.approx(entry["queries"] / total_s)


class TestReportIO:
    def test_write_report_roundtrips(self, report, tmp_path):
        path = write_report(report, tmp_path / "results" / "BENCH_topk.json")
        assert path.exists()
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["suite"] == "topk"
        assert loaded["entries"] == report["entries"]

    def test_format_report_mentions_every_algorithm(self, report):
        text = format_report(report)
        assert "exact" in text
        assert "social-first" in text
        assert "scalar" not in text
