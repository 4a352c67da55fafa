"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("demo", "generate", "query", "explain", "bench",
                        "serve", "build-arena", "profile"):
            assert command in text

    def test_serve_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.handler is not None
        assert args.port == 0
        assert args.cache_capacity == 1024
        assert args.ttl == 300.0
        assert args.warmup == 0
        assert args.arena is None

    def test_suite_flag_variants(self):
        parser = build_parser()
        assert parser.parse_args(["bench"]).suite is None
        assert parser.parse_args(["bench", "--suite"]).suite == "topk"
        assert parser.parse_args(["bench", "--suite", "proximity"]).suite \
            == "proximity"
        assert parser.parse_args(["bench", "--suite", "partitioned"]).suite \
            == "partitioned"
        args = parser.parse_args(["bench", "--suite", "scale",
                                  "--scale-sizes", "2500,10000",
                                  "--chunk-size", "50000",
                                  "--target-p50-ms", "25",
                                  "--rss-ceiling-mb", "2048",
                                  "--min-rss-ratio", "5"])
        assert args.suite == "scale"
        assert args.scale_sizes == "2500,10000"
        assert args.chunk_size == 50000
        assert args.target_p50_ms == 25.0
        assert args.rss_ceiling_mb == 2048.0
        assert args.min_rss_ratio == 5.0

    def test_removed_bench_spellings_are_argparse_errors(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["bench", "--suite", "landmark"]).suite \
            == "landmark"
        for argv in (["bench", "--suite", "anytime"],
                     ["bench", "--suite", "landmark", "--budgets", "64"]):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_partitions_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--partitions", "4"])
        assert args.partitions == 4
        assert parser.parse_args(["explain", "3", "jazz"]).partitions == 1


class TestExplain:
    def test_explain_prints_plan_without_executing(self, capsys):
        assert main(["explain", "4", "tag-000", "tag-001", "--scale", "0.1",
                     "--algorithm", "exact", "--partitions", "4"]) == 0
        out = capsys.readouterr().out
        assert "executor:   partitioned-exact" in out
        assert "shard 0:" in out

    def test_explain_single_partition_routes_algorithm(self, capsys):
        assert main(["explain", "4", "tag-000", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "executor:   algorithm" in out
        assert "fan-out=1" in out

    def test_explain_analyze_prints_span_tree(self, tmp_path, capsys):
        import json

        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace_chrome.json"
        assert main(["explain", "4", "tag-000", "tag-001", "--scale", "0.1",
                     "--algorithm", "exact", "--partitions", "4",
                     "--analyze", "--trace-out", str(jsonl),
                     "--chrome-trace", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "engine.run" in out
        assert "executor.search" in out
        assert "scatter.sweep" in out
        assert "stage coverage:" in out
        # Exported spans round-trip as JSON and match the printed tree.
        spans = [json.loads(line) for line in
                 jsonl.read_text().strip().splitlines()]
        assert "engine.run" in {span["name"] for span in spans}
        chrome = json.loads(chrome.read_text())
        assert {event["ph"] for event in chrome["traceEvents"]} == {"X"}
        assert "engine.run" in {event["name"]
                                for event in chrome["traceEvents"]}

    def test_explain_analyze_leaves_global_tracer_alone(self, capsys):
        from repro.obs.trace import get_tracer

        assert main(["explain", "4", "tag-000", "--scale", "0.1",
                     "--analyze"]) == 0
        assert get_tracer() is None
        assert "EXPLAIN ANALYZE" in capsys.readouterr().out

    def test_bench_partitioned_suite_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_partitioned.json"
        assert main(["bench", "--suite", "partitioned", "--users", "80",
                     "--queries", "4", "--rounds", "1",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "partitioned scatter-gather suite" in out
        report = json.loads(path.read_text())
        assert report["suite"] == "partitioned"
        assert report["equivalent"] is True
        assert set(report["p50_by_partitions"]) == {"1", "2", "4"}

    def test_bench_landmark_suite_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_landmark.json"
        assert main(["bench", "--suite", "landmark", "--users", "80",
                     "--queries", "4", "--rounds", "1",
                     "--landmark-counts", "4,8", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "the landmark tier" in out
        report = json.loads(path.read_text())
        assert report["suite"] == "landmark"
        assert [point["num_landmarks"]
                for point in report["landmark_curve"]] == [4, 8]
        assert set(report["gate"]) == {"point", "speedup", "recall_at_k",
                                       "p50_ms", "recall_floor"}

    def test_bench_landmark_suite_min_recall_gate(self, capsys):
        # Recall cannot exceed 1, so the gate must flip the exit code
        # whatever --min-speedup says.
        assert main(["bench", "--suite", "landmark", "--users", "80",
                     "--queries", "4", "--rounds", "1",
                     "--landmark-counts", "4", "--min-recall", "1.01",
                     "--min-speedup", "0"]) == 1
        assert "no landmark point reaches recall@k" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs_and_prints_comparison(self, capsys):
        assert main(["demo", "--scale", "0.1", "--k", "3"]) == 0
        output = capsys.readouterr().out
        assert "algorithm" in output
        assert "social-first" in output
        assert "results:" in output


class TestGenerateAndQuery:
    def test_generate_then_query(self, tmp_path, capsys):
        snapshot = tmp_path / "snap"
        assert main(["generate", str(snapshot), "--users", "40", "--items", "80",
                     "--tags", "10", "--actions", "400", "--seed", "3"]) == 0
        generated = capsys.readouterr().out
        assert "wrote snapshot" in generated

        assert main(["query", str(snapshot), "1", "tag-000", "--k", "3"]) == 0
        queried = capsys.readouterr().out
        assert "query: seeker=1" in queried


class TestBench:
    def test_bench_prints_table(self, capsys):
        assert main(["bench", "--scale", "0.1", "--queries", "3", "--k", "3",
                     "--algorithms", "exact", "social-first"]) == 0
        output = capsys.readouterr().out
        assert "mean_latency_ms" in output
        assert "social-first" in output

    def test_bench_suite_writes_json(self, tmp_path, capsys):
        target = tmp_path / "BENCH_topk.json"
        assert main(["bench", "--suite", "--users", "40", "--queries", "2",
                     "--rounds", "1", "--json", str(target)]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output
        assert target.exists()

    def test_bench_suite_min_speedup_gate(self, tmp_path, capsys):
        # An impossible bar must flip the exit code (the CI smoke gate).
        assert main(["bench", "--suite", "--users", "40", "--queries", "2",
                     "--rounds", "1", "--min-speedup", "1e9"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_suite_honours_algorithm_selection(self, capsys):
        assert main(["bench", "--suite", "--users", "40", "--queries", "2",
                     "--rounds", "1", "--algorithms", "exact", "ta"]) == 0
        output = capsys.readouterr().out
        assert "ta" in output
        assert "social-first" not in output

    def test_bench_suite_rejects_scalar_flag(self, capsys):
        assert main(["bench", "--suite", "--scalar"]) == 1
        assert "no effect" in capsys.readouterr().out

    def test_scalar_flag_disables_vectorized_kernels(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--scalar"])
        assert args.scalar is True
        args = parser.parse_args(["query", "snap", "1", "tag"])
        assert args.scalar is False

    def test_bench_suite_instrumentation_block(self, tmp_path, capsys):
        import json

        target = tmp_path / "BENCH_topk.json"
        jsonl = tmp_path / "sample_trace.jsonl"
        assert main(["bench", "--suite", "--users", "40", "--queries", "3",
                     "--rounds", "1", "--algorithms", "exact",
                     "--json", str(target),
                     "--max-trace-overhead", "1e9",
                     "--trace-jsonl", str(jsonl)]) == 0
        output = capsys.readouterr().out
        assert "tracing overhead" in output
        report = json.loads(target.read_text())
        block = report["instrumentation"]
        for key in ("p50_off_ms", "p50_unsampled_ms", "p50_traced_ms",
                    "p50_disabled_check_ms", "overhead_disabled",
                    "overhead_unsampled", "overhead_traced"):
            assert key in block
        assert "engine.run" in block["stage_breakdown"]
        assert jsonl.exists()
        assert json.loads(jsonl.read_text().splitlines()[0])["trace_id"]

    def test_bench_suite_trace_overhead_gate(self, capsys):
        # An impossibly tight budget must flip the exit code: the
        # disabled-check p50 can never be 1e-9x the never-traced p50.
        assert main(["bench", "--suite", "--users", "40", "--queries", "2",
                     "--rounds", "1", "--algorithms", "exact",
                     "--max-trace-overhead", "1e-9"]) == 1
        assert "instrumentation budget" in capsys.readouterr().out

    def test_bench_proximity_suite_writes_json(self, tmp_path, capsys):
        target = tmp_path / "BENCH_proximity.json"
        assert main(["bench", "--suite", "proximity", "--users", "40",
                     "--queries", "3", "--rounds", "1",
                     "--json", str(target)]) == 0
        output = capsys.readouterr().out
        assert "cold seeker" in output
        assert "equivalence   OK" in output
        assert target.exists()

    def test_bench_proximity_suite_min_speedup_gate(self, capsys):
        assert main(["bench", "--suite", "proximity", "--users", "40",
                     "--queries", "3", "--rounds", "1",
                     "--min-speedup", "1e9"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestBuildArena:
    def test_build_arena_then_serve_dataset(self, tmp_path, capsys):
        snapshot = tmp_path / "snap"
        arena = tmp_path / "corpus.arena"
        assert main(["generate", str(snapshot), "--users", "40", "--items", "80",
                     "--tags", "10", "--actions", "400", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["build-arena", str(arena), "--snapshot", str(snapshot),
                     "--materialize", "--proximity", "ppr"]) == 0
        output = capsys.readouterr().out
        assert "materialized" in output
        assert "wrote arena" in output
        assert arena.exists()

        from repro.storage import Dataset, load_shards

        dataset = Dataset.from_arena(arena)
        assert dataset.num_users == 40
        assert load_shards(arena) is not None

    def test_build_arena_synthetic_default(self, tmp_path, capsys):
        arena = tmp_path / "synthetic.arena"
        assert main(["build-arena", str(arena), "--scale", "0.1"]) == 0
        assert "wrote arena" in capsys.readouterr().out


class TestProfile:
    def test_profile_prints_hotspots(self, tmp_path, capsys):
        from repro.workload import generate_workload, tiny_dataset
        from repro.config import WorkloadConfig
        from repro.workload.trace import save_queries

        # The synthetic profile corpus at --scale 0.1 shares tag names with
        # any tiny synthetic workload, so generate the trace from the same
        # shape of corpus.
        dataset = tiny_dataset()
        queries = generate_workload(dataset, WorkloadConfig(num_queries=4, seed=3))
        trace = tmp_path / "trace.jsonl"
        save_queries(queries, trace)
        assert main(["profile", str(trace), "--scale", "0.1",
                     "--rounds", "1", "--top", "5"]) == 0
        output = capsys.readouterr().out
        assert "cumulative" in output
        assert "profiled 4 queries" in output

    def test_profile_empty_trace_fails(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["profile", str(trace)]) == 1
        assert "no queries" in capsys.readouterr().out


class TestLibraryErrors:
    """A ``ReproError`` ends the command with exit 2, never a traceback."""

    @pytest.fixture
    def bad_seeker_trace(self, tmp_path):
        trace = tmp_path / "bad-seeker.jsonl"
        trace.write_text('{"seeker": 999999, "tags": ["tag-000"], "k": 3}\n')
        return str(trace)

    @pytest.mark.parametrize("argv", [
        ["profile", "<bad-seeker-trace>", "--scale", "0.1", "--rounds", "1"],
        ["demo", "--scale", "0.1", "--algorithm", "nope"],
        ["explain", "1", "x", "--scale", "0.1", "--algorithm", "nope",
         "--analyze"],
        ["query", "/nonexistent", "1", "x"],
        ["profile", "/nonexistent.jsonl"],
    ], ids=["unknown-user", "demo-unknown-algorithm",
            "explain-unknown-algorithm", "missing-snapshot", "missing-trace"])
    def test_exits_2_with_one_line_on_stderr(self, argv, bad_seeker_trace,
                                             capsys):
        argv = [bad_seeker_trace if arg == "<bad-seeker-trace>" else arg
                for arg in argv]
        assert main(argv) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("repro: error: ")
        assert len(stderr.strip().splitlines()) == 1
        assert "Traceback" not in stderr


class TestWarmupHelpers:
    def test_warmup_seekers_orders_by_frequency(self):
        from repro.cli import _warmup_seekers
        from repro.core.query import Query

        class FakeDataset:
            num_users = 100

        trace = ([Query(seeker=7, tags=("a",))] * 3
                 + [Query(seeker=2, tags=("a",))] * 2
                 + [Query(seeker=5, tags=("a",))])
        assert _warmup_seekers(FakeDataset(), trace, 2) == [7, 2]
        # Out-of-range ids (trace recorded against a bigger corpus) never
        # consume warm-up slots, even when they dominate the trace.
        trace = [Query(seeker=5000, tags=("a",))] * 10 + trace
        assert _warmup_seekers(FakeDataset(), trace, 2) == [7, 2]
        assert _warmup_seekers(FakeDataset(), trace, 10) == [7, 2, 5]


class TestStreamingCli:
    def test_build_arena_stream_writes_loadable_arena(self, tmp_path, capsys):
        from repro.storage.dataset import Dataset

        target = tmp_path / "streamed.arena"
        assert main(["build-arena", str(target), "--stream",
                     "--users", "300", "--chunk-size", "512",
                     "--seed", "23"]) == 0
        assert "streamed" in capsys.readouterr().out
        dataset = Dataset.from_arena(target)
        assert dataset.num_users == 300

    def test_build_arena_stream_matches_in_memory_build(self, tmp_path,
                                                        capsys):
        from repro.storage.arena import build_arena
        from repro.workload.datasets import scaled_dataset

        streamed = tmp_path / "streamed.arena"
        assert main(["build-arena", str(streamed), "--stream",
                     "--users", "200", "--seed", "23"]) == 0
        capsys.readouterr()
        reference = build_arena(scaled_dataset(200, seed=23),
                                tmp_path / "reference.arena")
        assert streamed.read_bytes() == reference.read_bytes()

    def test_build_arena_stream_rejects_snapshot(self, tmp_path, capsys):
        assert main(["build-arena", str(tmp_path / "x.arena"), "--stream",
                     "--snapshot", str(tmp_path)]) == 1
        assert "--stream" in capsys.readouterr().out

    def test_bench_scale_suite_writes_json(self, tmp_path, capsys):
        target = tmp_path / "BENCH_scale.json"
        assert main(["bench", "--suite", "scale",
                     "--scale-sizes", "300", "--queries", "3",
                     "--rounds", "1", "--chunk-size", "512",
                     "--json", str(target)]) == 0
        output = capsys.readouterr().out
        assert "corpus scale suite" in output
        assert "equivalence   OK" in output
        assert target.exists()

    def test_bench_scale_suite_min_rss_ratio_gate(self, capsys):
        # An impossible bar must flip the exit code (the CI smoke gate).
        assert main(["bench", "--suite", "scale",
                     "--scale-sizes", "300", "--queries", "2",
                     "--rounds", "1", "--chunk-size", "512",
                     "--min-rss-ratio", "1e9"]) == 1
        assert "FAIL" in capsys.readouterr().out
