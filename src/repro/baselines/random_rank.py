"""Random-ranking baseline.

Returns a uniformly random sample of the items matching the query tags.
Its only purpose is to anchor the quality metrics: any ranking that does not
clearly beat it carries no signal.  Deterministic under a fixed seed.
"""

from __future__ import annotations

import time
from typing import Optional, Set

import numpy as np

from ..config import EngineConfig
from ..core.accounting import AccessAccountant
from ..core.query import Query, QueryResult, ScoredItem
from ..core.topk.base import TopKAlgorithm, register_algorithm
from ..proximity.base import ProximityMeasure
from ..storage.dataset import Dataset


@register_algorithm("random")
class RandomRank(TopKAlgorithm):
    """Uniformly random ranking of the items matching the query tags."""

    def __init__(self, dataset: Dataset, proximity: ProximityMeasure,
                 config: Optional[EngineConfig] = None, seed: int = 97) -> None:
        super().__init__(dataset, proximity, config)
        self._seed = int(seed)

    def search(self, query: Query) -> QueryResult:
        """Sample ``k`` matching items uniformly at random (seeded)."""
        self._validate(query)
        started_at = time.perf_counter()
        accountant = AccessAccountant()

        candidates: Set[int] = set()
        for tag in query.tags:
            bundle = self._dataset.endorser_index.for_tag(tag)
            if bundle is not None:
                candidates.update(bundle.item_ids.tolist())
            accountant.charge_sequential(self._dataset.inverted_index.list_length(tag))
        accountant.charge_candidate(len(candidates))

        ordered = sorted(candidates)
        rng = np.random.default_rng(self._seed + query.seeker)
        rng.shuffle(ordered)
        chosen = ordered[: query.k]

        items = [
            ScoredItem(item_id=item_id, score=(len(chosen) - rank) / max(1, len(chosen)),
                       textual=0.0, social=0.0)
            for rank, item_id in enumerate(chosen)
        ]
        return QueryResult(
            query=query,
            items=items,
            algorithm=self.name,
            latency_seconds=time.perf_counter() - started_at,
            accounting=accountant,
            terminated_early=False,
        )
