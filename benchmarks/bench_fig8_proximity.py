"""Experiment F8 (Figure 8): effect of the proximity measure.

Runs the same workload with every proximity measure (path-based, PageRank,
Katz, neighbourhood-overlap, landmark sketch) and reports latency and the
quality of the resulting ranking against the holdout ground truth.  Expected
shape: the graph-aware measures (shortest-path, PPR, Katz) produce similar
quality; the myopic one-hop measures are cheaper but can miss relevant items
endorsed by friends-of-friends; the landmark sketch trades a little quality
for much cheaper per-query proximity.
"""

from __future__ import annotations

from repro.eval import ExperimentRunner, format_table

from conftest import make_engine, make_workload, write_result

MEASURES = ["shortest-path", "ppr", "katz", "adamic-adar", "jaccard", "landmark"]

#: Fresh-engine passes per measure; each measure reports its fastest.
ROUNDS = 3


def test_fig8_proximity_measures(benchmark, delicious_dataset):
    """Compare proximity measures on latency and holdout quality."""

    workload = make_workload(delicious_dataset, num_queries=8, k=10, seed=17)

    def run():
        rows = []
        for measure in MEASURES:
            # A fresh engine per pass keeps every pass cold; the minimum
            # over passes keeps one stall on a shared host from deciding
            # the latency comparison below.  Rankings are deterministic, so
            # the quality columns are the same in every pass.
            passes = [
                ExperimentRunner(make_engine(delicious_dataset, alpha=0.5,
                                             measure=measure))
                .run(workload, ["social-first"], compare_to_reference=False)
                .rows()[0]
                for _ in range(ROUNDS)]
            row = dict(min(passes, key=lambda row: row["mean_latency_ms"]))
            row["measure"] = measure
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        rows,
        columns=["measure", "mean_latency_ms", "users_visited_per_query",
                 "precision_at_k", "ndcg_at_k", "early_termination_rate"],
        title="Figure 8 — effect of the proximity measure "
              f"(social-first, alpha=0.5, k=10, fastest of {ROUNDS} passes)",
    )
    write_result("fig8_proximity", table)

    by_measure = {row["measure"]: row for row in rows}
    for measure in MEASURES:
        assert 0.0 <= by_measure[measure]["ndcg_at_k"] <= 1.0
        assert 0.0 <= by_measure[measure]["precision_at_k"] <= 1.0
        assert by_measure[measure]["mean_latency_ms"] > 0.0
        # Every measure drives some social exploration at alpha=0.5.
        assert by_measure[measure]["users_visited_per_query"] > 0.0
    # The landmark sketch exists to be cheap: its fastest pass must not be
    # drastically slower than PPR's fastest.
    assert by_measure["landmark"]["mean_latency_ms"] <= \
        by_measure["ppr"]["mean_latency_ms"] * 2.0
