"""End-to-end integration tests: generate → index → query → evaluate → persist."""

import pytest

from repro import (
    Dataset,
    DatasetConfig,
    EngineConfig,
    ProximityConfig,
    ScoringConfig,
    SocialSearchEngine,
    WorkloadConfig,
)
from repro.eval import ExperimentRunner
from repro.eval.quality import result_signature
from repro.storage import build_arena
from repro.workload import build_dataset, generate_workload


@pytest.fixture(scope="module")
def pipeline_dataset():
    config = DatasetConfig(
        name="pipeline",
        num_users=50,
        num_items=100,
        num_tags=12,
        num_actions=800,
        homophily=0.6,
        seed=11,
    )
    return build_dataset(config, holdout_fraction=0.2)


class TestFullPipeline:
    def test_generate_query_and_evaluate(self, pipeline_dataset):
        engine = SocialSearchEngine(pipeline_dataset)
        queries = generate_workload(pipeline_dataset,
                                    WorkloadConfig(num_queries=6, k=5, seed=2))
        runner = ExperimentRunner(engine)
        report = runner.run(queries, ["exact", "social-first", "global"])
        rows = {row["algorithm"]: row for row in report.rows()}
        # Social-first must agree perfectly with exact on returned score mass.
        assert rows["social-first"]["overlap_with_exact"] >= 0.99
        # Quality metrics exist because the dataset has a holdout.
        assert "ndcg_at_k" in rows["social-first"]

    def test_social_ranking_beats_random_on_homophilous_corpus(self, pipeline_dataset):
        engine = SocialSearchEngine(pipeline_dataset)
        queries = generate_workload(pipeline_dataset,
                                    WorkloadConfig(num_queries=12, k=10, seed=4))
        runner = ExperimentRunner(engine)
        report = runner.run(queries, ["social-first", "random"],
                            compare_to_reference=False)
        social = report.report("social-first").row()
        random_row = report.report("random").row()
        assert social["ndcg_at_k"] >= random_row["ndcg_at_k"]

    def test_persist_and_requery_gives_identical_results(self, pipeline_dataset, tmp_path):
        engine = SocialSearchEngine(pipeline_dataset)
        queries = generate_workload(pipeline_dataset,
                                    WorkloadConfig(num_queries=3, k=5, seed=6))
        before = [result_signature(engine.run(query, algorithm="exact"))
                  for query in queries]

        reloaded = Dataset.from_arena(
            build_arena(pipeline_dataset, tmp_path / "pipeline.arena"))
        assert len(reloaded.holdout) == len(pipeline_dataset.holdout) > 0
        engine_after = SocialSearchEngine(reloaded)
        after = [result_signature(engine_after.run(query, algorithm="exact"))
                 for query in queries]
        assert before == after

    def test_alternate_proximity_measures_run_end_to_end(self, pipeline_dataset):
        queries = generate_workload(pipeline_dataset,
                                    WorkloadConfig(num_queries=2, k=5, seed=8))
        for measure in ("ppr", "katz", "adamic-adar", "landmark"):
            config = EngineConfig(
                scoring=ScoringConfig(alpha=0.5),
                proximity=ProximityConfig(measure=measure),
            )
            engine = SocialSearchEngine(pipeline_dataset, config)
            for query in queries:
                exact = engine.run(query, algorithm="exact")
                social = engine.run(query, algorithm="social-first")
                assert social.scores == pytest.approx(exact.scores, abs=1e-9)

    def test_query_results_are_stable_across_runs(self, pipeline_dataset):
        engine = SocialSearchEngine(pipeline_dataset)
        queries = generate_workload(pipeline_dataset,
                                    WorkloadConfig(num_queries=4, k=5, seed=9))
        first = [engine.run(query).item_ids for query in queries]
        second = [engine.run(query).item_ids for query in queries]
        assert first == second
