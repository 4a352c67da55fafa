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
        assert "speedup_vectorized_exact" in report

    def test_exact_measured_in_both_modes(self, report):
        modes = {(entry["algorithm"], entry["mode"])
                 for entry in report["entries"]}
        assert ("exact", "vectorized") in modes
        assert ("exact", "scalar") in modes
        assert ("social-first", "vectorized") in modes

    def test_entries_carry_latency_summary(self, report):
        for entry in report["entries"]:
            assert entry["queries"] > 0
            assert entry["p50_ms"] >= 0.0
            assert entry["p95_ms"] >= entry["p50_ms"] - 1e-9
            assert entry["qps"] > 0.0

    def test_speedup_is_qps_ratio(self, report):
        by_mode = {entry["mode"]: entry for entry in report["entries"]
                   if entry["algorithm"] == "exact"}
        expected = by_mode["vectorized"]["qps"] / by_mode["scalar"]["qps"]
        assert report["speedup_vectorized_exact"] == pytest.approx(expected)


class TestReportIO:
    def test_write_report_roundtrips(self, report, tmp_path):
        path = write_report(report, tmp_path / "results" / "BENCH_topk.json")
        assert path.exists()
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["suite"] == "topk"
        assert loaded["speedup_vectorized_exact"] == pytest.approx(
            report["speedup_vectorized_exact"])

    def test_format_report_mentions_every_algorithm(self, report):
        text = format_report(report)
        assert "exact" in text
        assert "scalar" in text
        assert "speedup" in text


@pytest.fixture(scope="module")
def updates_report():
    from repro.eval.bench import run_updates_suite

    return run_updates_suite(num_users=50, num_queries=4, k=5, rounds=1,
                             update_batches=2, actions_per_batch=15,
                             algorithms=("exact",), seed=5)


class TestUpdatesSuite:
    def test_report_shape(self, updates_report):
        assert updates_report["suite"] == "updates"
        assert updates_report["dataset"]["num_users"] == 50
        for key in ("pre_update", "post_update", "p50_ratio", "updates",
                    "equivalence", "equivalent"):
            assert key in updates_report

    def test_equivalence_gate_passes(self, updates_report):
        assert updates_report["equivalent"] is True
        assert updates_report["equivalence"]["num_mismatches"] == 0
        assert updates_report["equivalence"]["paths"] \
            == ["online", "materialized"]

    def test_updates_actually_applied(self, updates_report):
        updates = updates_report["updates"]
        assert updates["actions_added"] == 30
        assert updates["epoch"] == 1  # the mid-trace compaction ran
        assert updates["shard_rows"] == 50  # shards survived the churn

    def test_format_updates_report(self, updates_report):
        from repro.eval.bench import format_updates_report

        text = format_updates_report(updates_report)
        assert "post-update" in text
        assert "equivalence" in text

    def test_report_is_json_serialisable(self, updates_report, tmp_path):
        from repro.eval.bench import write_report

        path = write_report(updates_report, tmp_path / "BENCH_updates.json")
        assert json.loads(path.read_text())["suite"] == "updates"


class TestPathMismatches:
    """The one compare loop behind the four suites' equivalence gates."""

    def test_reports_exactly_the_divergent_path(self, engine, workload):
        from repro.eval.bench import _path_mismatches

        queries = list(workload)[:4]
        mismatches = _path_mismatches(
            engine, {"same": engine, "other-alpha": engine.with_alpha(0.9)},
            queries, ("exact", "social-first"), partitions=4)
        assert mismatches, "a different alpha must change some signature"
        assert {m["path"] for m in mismatches} == {"other-alpha"}
        for record in mismatches:
            assert record["partitions"] == 4  # labels ride along
            assert record["expected"] != record["got"]
            assert record["algorithm"] in ("exact", "social-first")
            assert record["query"] in [query.to_dict() for query in queries]
