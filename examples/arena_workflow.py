"""Arena workflow: generate once, write an arena, reopen it, query offline.

Run with::

    python examples/arena_workflow.py [arena-file]

Demonstrates the storage layer's one persisted form, which is how benchmark
corpora are shared between machines: build a synthetic dataset, write it as
a memory-mapped index arena, reopen it the way a fresh process would and
verify that query answers — rankings, scores and access accounting — are
identical.  ``repro generate`` / ``repro query`` do the same from the shell.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    Dataset,
    DatasetConfig,
    SocialSearchEngine,
    WorkloadConfig,
)
from repro.eval.quality import result_signature
from repro.storage import build_arena
from repro.workload import build_dataset, generate_workload


def main() -> None:
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="repro-arena-")) / "corpus.arena"

    # 1. Build a corpus with explicit generation parameters.
    config = DatasetConfig(
        name="offline-corpus",
        num_users=150,
        num_items=450,
        num_tags=40,
        num_actions=4000,
        homophily=0.6,
        seed=21,
    )
    dataset = build_dataset(config, holdout_fraction=0.2)
    print("built:   ", dataset.describe())

    # 2. Write it as an arena (holdout included).
    path = build_arena(dataset, target)
    print(f"wrote {path} ({path.stat().st_size} bytes)")

    # 3. Reopen it (this is what a benchmark machine would do): the index
    #    arrays are memory-mapped, not rebuilt.
    reopened = Dataset.from_arena(path)
    print("reopened:", reopened.describe())

    # 4. Same queries, same answers — the arena is faithful.
    queries = generate_workload(dataset, WorkloadConfig(num_queries=5, k=10, seed=2))
    engine_before = SocialSearchEngine(dataset)
    engine_after = SocialSearchEngine(reopened)
    matches = sum(
        result_signature(engine_before.run(query))
        == result_signature(engine_after.run(query))
        for query in queries)
    print(f"identical answers for {matches}/{len(queries)} queries")


if __name__ == "__main__":
    main()
