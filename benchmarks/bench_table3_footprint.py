"""Experiment T3 (Table 3): index footprint and build time.

Reports, per corpus: the time to build the derived indexes (inverted +
social; the inverted index reads its lists off the dataset's endorser
index, whose build is not counted), their memory footprint, and the
footprint of fully materialising per-user proximity vectors (the
"unlimited precomputation" baseline).  The
point of the table: materialising proximity for every user costs far more
memory than the on-line algorithms' indexes, which is why the paper-family
computes proximity at query time.
"""

from __future__ import annotations

import time

from repro.baselines import MaterializedBaseline
from repro.config import EngineConfig
from repro.eval import format_table
from repro.proximity import ShortestPathProximity
from repro.storage import InvertedIndex, SocialIndex

from conftest import write_result


def _footprint_row(dataset):
    started = time.perf_counter()
    inverted = InvertedIndex.build(dataset.endorser_index)
    social = SocialIndex.build(dataset.tagging)
    build_seconds = time.perf_counter() - started

    proximity = ShortestPathProximity(dataset.graph)
    baseline = MaterializedBaseline(dataset, proximity, EngineConfig())
    started = time.perf_counter()
    baseline.materialise()
    materialise_seconds = time.perf_counter() - started

    return {
        "dataset": dataset.name,
        "users": dataset.num_users,
        "actions": dataset.num_actions,
        "index_build_ms": build_seconds * 1000.0,
        "inverted_index_bytes": inverted.memory_bytes(),
        "social_index_bytes": social.memory_bytes(),
        "graph_bytes": dataset.graph.memory_bytes(),
        "materialised_proximity_entries": baseline.num_entries(),
        "materialised_proximity_bytes": baseline.memory_bytes(),
        "materialise_ms": materialise_seconds * 1000.0,
    }


def test_table3_index_footprint(benchmark, delicious_dataset, flickr_dataset):
    """Measure index build cost vs full proximity materialisation."""
    rows = benchmark.pedantic(
        lambda: [_footprint_row(delicious_dataset), _footprint_row(flickr_dataset)],
        rounds=1, iterations=1,
    )
    text = format_table(
        rows,
        columns=["dataset", "users", "actions", "index_build_ms",
                 "inverted_index_bytes", "social_index_bytes", "graph_bytes",
                 "materialised_proximity_entries", "materialised_proximity_bytes",
                 "materialise_ms"],
        title="Table 3 — index footprint and build time vs full proximity "
              "materialisation",
    )
    write_result("table3_footprint", text)

    for row in rows:
        assert row["inverted_index_bytes"] > 0
        assert row["social_index_bytes"] > 0
        # Materialising every user's proximity vector costs more memory than
        # the query-time indexes combined — the motivation for on-line
        # computation.
        assert row["materialised_proximity_bytes"] > 0
        assert row["materialise_ms"] > row["index_build_ms"] * 0.1
