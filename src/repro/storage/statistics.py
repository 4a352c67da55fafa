"""Dataset-level descriptive statistics (the Table-1 numbers)."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

import numpy as np

from ..graph.statistics import compute_statistics as compute_graph_statistics
from .dataset import Dataset


@dataclass(frozen=True)
class DatasetStatistics:
    """Corpus statistics of a dataset, as reported in dataset tables."""

    name: str
    num_users: int
    num_edges: int
    avg_degree: float
    num_items: int
    num_tags: int
    num_actions: int
    avg_actions_per_user: float
    avg_tags_per_item: float
    avg_items_per_tag: float
    max_tag_frequency: int
    inverted_index_postings: int
    social_index_entries: int
    index_memory_bytes: int

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view for result tables."""
        return asdict(self)


def compute_dataset_statistics(dataset: Dataset) -> DatasetStatistics:
    """Compute the full :class:`DatasetStatistics` summary of a dataset."""
    tags = dataset.tagging.tags()
    # Linear passes only: actions per user from the log's histogram, items
    # per tag and tags per item from the endorser bundles.
    _, activity, _ = dataset.tagging.action_histograms(dataset.num_users)
    actions_per_user = activity[activity > 0]
    bundles = [dataset.endorser_index.for_tag(tag) for tag in tags]
    bundles = [bundle for bundle in bundles if bundle is not None]
    items_per_tag = np.array([len(bundle) for bundle in bundles],
                             dtype=np.float64)
    items, tags_per_item = np.unique(
        np.concatenate([bundle.item_ids for bundle in bundles]
                       or [np.zeros(0, dtype=np.int64)]),
        return_counts=True)

    max_tag_frequency = max(
        (dataset.inverted_index.max_frequency(tag) for tag in tags), default=0
    )

    index_memory = dataset.inverted_index.memory_bytes() + dataset.social_index.memory_bytes() \
        + dataset.endorser_index.memory_bytes() + dataset.graph.memory_bytes()

    return DatasetStatistics(
        name=dataset.name,
        num_users=dataset.num_users,
        num_edges=dataset.graph.num_edges,
        avg_degree=float(dataset.graph.degrees().mean()) if dataset.num_users else 0.0,
        num_items=int(items.shape[0]),
        num_tags=len(tags),
        num_actions=dataset.num_actions,
        avg_actions_per_user=float(actions_per_user.mean()) if actions_per_user.size else 0.0,
        avg_tags_per_item=float(tags_per_item.mean()) if tags_per_item.size else 0.0,
        avg_items_per_tag=float(items_per_tag.mean()) if items_per_tag.size else 0.0,
        max_tag_frequency=int(max_tag_frequency),
        inverted_index_postings=dataset.inverted_index.num_postings(),
        social_index_entries=dataset.social_index.num_entries(),
        index_memory_bytes=int(index_memory),
    )


def graph_statistics_row(dataset: Dataset) -> Dict[str, object]:
    """Graph-level statistics of the dataset's social network as a table row."""
    stats = compute_graph_statistics(dataset.graph)
    row = stats.to_dict()
    row["name"] = dataset.name
    return row
