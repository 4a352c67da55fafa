"""Tests for query workload generation and traces."""

import pytest

from repro.config import WorkloadConfig
from repro.core.query import Query
from repro.errors import PersistenceError, WorkloadError
from repro.workload import (
    QueryWorkloadGenerator,
    generate_workload,
    load_queries,
    queries_with_k,
    save_queries,
)


class TestQueryWorkloadGenerator:
    def test_generates_requested_number(self, synthetic_dataset):
        queries = generate_workload(synthetic_dataset,
                                    WorkloadConfig(num_queries=25, seed=1))
        assert len(queries) == 25

    def test_deterministic_under_seed(self, synthetic_dataset):
        a = generate_workload(synthetic_dataset, WorkloadConfig(num_queries=10, seed=3))
        b = generate_workload(synthetic_dataset, WorkloadConfig(num_queries=10, seed=3))
        assert a == b

    def test_queries_reference_dataset_entities(self, synthetic_dataset):
        tags = set(synthetic_dataset.tags())
        for query in generate_workload(synthetic_dataset,
                                       WorkloadConfig(num_queries=30, seed=2)):
            assert 0 <= query.seeker < synthetic_dataset.num_users
            assert set(query.tags) <= tags
            assert query.k == 10

    def test_k_override(self, synthetic_dataset):
        queries = generate_workload(synthetic_dataset,
                                    WorkloadConfig(num_queries=5, seed=2), k=3)
        assert all(query.k == 3 for query in queries)

    def test_profile_strategy_uses_seeker_tags(self, synthetic_dataset):
        config = WorkloadConfig(num_queries=40, seed=4, tag_strategy="profile",
                                tags_per_query=1.0)
        hits = 0
        total = 0
        for query in generate_workload(synthetic_dataset, config):
            profile = set(synthetic_dataset.tagging.tags_for_user(query.seeker))
            if profile:
                total += 1
                if set(query.tags) & profile:
                    hits += 1
        assert total > 0
        assert hits / total > 0.8

    def test_uniform_and_popular_strategies_run(self, synthetic_dataset):
        for strategy in ("uniform", "popular"):
            queries = generate_workload(
                synthetic_dataset,
                WorkloadConfig(num_queries=5, seed=6, tag_strategy=strategy),
            )
            assert len(queries) == 5

    def test_uniform_seeker_strategy(self, synthetic_dataset):
        queries = generate_workload(
            synthetic_dataset,
            WorkloadConfig(num_queries=10, seed=7, seeker_strategy="uniform"),
        )
        assert len(queries) == 10

    def test_invalid_count_rejected(self, synthetic_dataset):
        generator = QueryWorkloadGenerator(synthetic_dataset)
        with pytest.raises(WorkloadError):
            generator.generate(num_queries=0)

    def test_queries_with_k_rewrites_k(self, workload):
        rewritten = queries_with_k(workload, 3)
        assert all(query.k == 3 for query in rewritten)
        assert [q.tags for q in rewritten] == [q.tags for q in workload]


class TestQueryTrace:
    def test_roundtrip(self, workload, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = save_queries(workload, path)
        loaded = load_queries(path)
        assert written == len(workload)
        assert loaded == list(workload)

    def test_absent_k_defaults_to_ten(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seeker": 2, "tags": ["a", "b"]}\n')
        assert load_queries(path) == [Query(seeker=2, tags=("a", "b"), k=10)]

    def test_malformed_trace_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seeker": 1}\n')
        with pytest.raises(PersistenceError):
            load_queries(path)

    @pytest.mark.parametrize("record, named", [
        ('{"seeker": 1, "tags": ["a"], "k": 0}', "k"),
        ('{"seeker": -4, "tags": ["a"], "k": 3}', "seeker"),
        ('{"seeker": 1, "tags": [""], "k": 3}', "tag"),
        # The rule /query applies to HTTP bodies: strict integers, a list
        # of string tags, and no field a query does not have.
        ('{"seeker": 1.7, "tags": ["jazz"]}', "seeker"),
        ('{"seeker": true, "tags": ["jazz"], "k": 2}', "seeker"),
        ('{"seeker": 1, "tags": ["jazz"], "k": 2.9}', "'k'"),
        ('{"seeker": 1, "tags": ["jazz"], "k": 1e999}', "'k'"),
        ('{"seeker": 1, "tags": "jazz"}', "tags"),
        ('{"seeker": 1, "tags": [1, 2]}', "tags"),
        ('{"tags": ["jazz"]}', "seeker"),
        ('{"seeker": 1, "tags": ["a"], "k": 3, "effort": "fast"}', "effort"),
        ('{"seeker": 1, "tags": ["a"], "effort": "exact"}', "effort"),
        ('{"seeker": 1, "tags": ["a"], "algorithm": "exact"}', "algorithm"),
        ('[1, ["a"], 3]', "object"),
        ('{"seeker": 1, "tags": ["a"]', "line"),
    ])
    def test_invalid_query_line_names_file_line_and_field(
            self, tmp_path, record, named):
        # Every bad line gets the same path:lineno error, not a bare
        # InvalidQueryError and never a silently coerced query.
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seeker": 1, "tags": ["a"], "k": 3}\n\n'
                        + record + "\n")
        with pytest.raises(PersistenceError,
                           match=r"trace\.jsonl:3: ") as excinfo:
            load_queries(path)
        assert named in str(excinfo.value)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_queries(tmp_path / "missing.jsonl")


class TestHistogramDrivenGeneration:
    """The generator's sampling now runs off action histograms.

    The refactor must be invisible: for every strategy combination and
    seed, the histogram-driven generator draws the exact workload the
    per-user profile-scan construction used to draw (same RNG sequence,
    same probability arrays), so pinned seeds and committed benchmarks
    keep their workloads.
    """

    def _legacy_generator(self, dataset, config):
        import numpy as np

        from tagging_oracle import TaggingStore

        oracle = TaggingStore()
        oracle.add_many(dataset.tagging.actions())
        generator = QueryWorkloadGenerator.__new__(QueryWorkloadGenerator)
        generator._dataset = dataset
        generator._config = config
        generator._rng = np.random.default_rng(config.seed)
        generator._tags = dataset.tags()
        popularity = oracle.tag_popularity()
        weights = np.array([popularity.get(tag, 0) + 1.0
                            for tag in generator._tags], dtype=np.float64)
        generator._tag_probabilities = weights / weights.sum()
        generator._active_users = dataset.active_users()
        activity = np.array(
            [oracle.activity(user) + 1.0
             for user in generator._active_users], dtype=np.float64)
        generator._activity_probabilities = activity / activity.sum()
        return generator

    @pytest.mark.parametrize("seeker_strategy", ["active", "uniform"])
    @pytest.mark.parametrize("tag_strategy", ["profile", "popular", "uniform"])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_bit_identical_to_profile_scan_construction(
            self, synthetic_dataset, seeker_strategy, tag_strategy, seed):
        config = WorkloadConfig(seed=seed, seeker_strategy=seeker_strategy,
                                tag_strategy=tag_strategy,
                                num_queries=25, k=5)
        legacy = self._legacy_generator(synthetic_dataset, config).generate()
        current = QueryWorkloadGenerator(synthetic_dataset, config).generate()
        assert current == legacy

    def test_generator_distributions_rejects_misaligned_histograms(self):
        import numpy as np

        from repro.workload.sampler import generator_distributions

        with pytest.raises(WorkloadError):
            generator_distributions(["a", "b"], np.ones(3), np.ones(3))

    def test_generator_distributions_active_users_are_nonzero_rows(self):
        import numpy as np

        from repro.workload.sampler import generator_distributions

        activity = np.array([0.0, 2.0, 0.0, 5.0])
        _tag_probs, active, probs = generator_distributions(
            ["a"], activity, np.array([7.0]))
        assert active.tolist() == [1, 3]
        assert probs == pytest.approx([3.0 / 9.0, 6.0 / 9.0])
