"""Reference arena build: the per-(tag, user) loops the arena build replaced.

``build_arena`` now derives the social section from the action log's arrays
with one ``lexsort`` of the columns, reads an arena store's action columns without
materialising it, and compacts the social overlay by re-sorting triples.
This module keeps the code they replaced, verbatim, as the exact-equality
oracle of ``tests/property/test_arena_oracle.py``:

* :func:`build_arena` — the whole builder as it was, with the social section
  assembled by one ``items_for`` call per (tag, user) and the records
  encoded by ``dataclasses.asdict``;
* :func:`_action_arrays` — the action section read through
  ``TaggingStore.actions()`` (which materialises an arena-backed store);
* :func:`stage_compact` — ``ArenaSocialIndex.stage_compact`` over the
  ``_merged_staging`` profile dict.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.proximity.materialized import MaterializedProximity
from repro.storage.arena import (
    ARENA_VERSION,
    ArenaSocialIndex,
    PathLike,
    _concat,
    _SocialArrays,
    write_arena,
)
from repro.storage.dataset import Dataset
from repro.storage.tagging import TaggingStore


def _action_arrays(store: TaggingStore, tag_ids: Dict[str, int]
                   ) -> Dict[str, np.ndarray]:
    actions = store.actions()
    return {
        "user_ids": np.array([a.user_id for a in actions], dtype=np.int64),
        "item_ids": np.array([a.item_id for a in actions], dtype=np.int64),
        "tag_ids": np.array([tag_ids[a.tag] for a in actions], dtype=np.int64),
        "timestamps": np.array([a.timestamp for a in actions], dtype=np.int64),
    }


def build_arena(dataset: Dataset, path: PathLike,
                proximity: Optional[MaterializedProximity] = None) -> Path:
    """Serialise ``dataset`` (and optional built shards) into an arena file."""
    tags = dataset.tagging.tags()
    tag_ids = {tag: index for index, tag in enumerate(tags)}
    arrays: Dict[str, np.ndarray] = {}

    offsets, neighbours, weights = dataset.graph.csr_arrays()
    arrays["graph.offsets"] = offsets
    arrays["graph.neighbours"] = neighbours
    arrays["graph.weights"] = weights

    # Inverted index: frequency-ordered posting lists, concatenated in tag
    # order with a per-tag offsets array.
    inv_offsets = np.zeros(len(tags) + 1, dtype=np.int64)
    inv_items: List[np.ndarray] = []
    inv_freqs: List[np.ndarray] = []
    for index, tag in enumerate(tags):
        postings = dataset.inverted_index.arrays(tag)
        inv_items.append(postings.item_ids)
        inv_freqs.append(postings.frequencies)
        inv_offsets[index + 1] = inv_offsets[index] + len(postings)
    arrays["inverted.offsets"] = inv_offsets
    arrays["inverted.item_ids"] = _concat(inv_items, np.int64)
    arrays["inverted.frequencies"] = _concat(inv_freqs, np.int64)

    # Endorser index: per-tag item -> tagger CSR, flattened with a global
    # per-(tag, item) segment-offsets array.
    end_item_offsets = np.zeros(len(tags) + 1, dtype=np.int64)
    end_items: List[np.ndarray] = []
    end_freqs: List[np.ndarray] = []
    end_taggers: List[np.ndarray] = []
    segment_lengths: List[np.ndarray] = []
    for index, tag in enumerate(tags):
        bundle = dataset.endorser_index.for_tag(tag)
        if bundle is None:
            end_item_offsets[index + 1] = end_item_offsets[index]
            continue
        end_items.append(bundle.item_ids)
        end_freqs.append(bundle.frequencies)
        end_taggers.append(bundle.taggers)
        segment_lengths.append(np.diff(bundle.offsets))
        end_item_offsets[index + 1] = end_item_offsets[index] + len(bundle)
    lengths = _concat(segment_lengths, np.int64)
    segment_offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=segment_offsets[1:])
    arrays["endorser.item_offsets"] = end_item_offsets
    arrays["endorser.item_ids"] = _concat(end_items, np.int64)
    arrays["endorser.frequencies"] = _concat(end_freqs, np.int64)
    arrays["endorser.segment_offsets"] = segment_offsets
    arrays["endorser.taggers"] = _concat(end_taggers, np.int64)

    # Social index: per-tag user -> item CSR (the frontier expansion path).
    soc_user_offsets = np.zeros(len(tags) + 1, dtype=np.int64)
    soc_users: List[int] = []
    soc_lengths: List[int] = []
    soc_items: List[int] = []
    all_users = dataset.social_index.users()
    for index, tag in enumerate(tags):
        with_tag = 0
        for user in all_users:  # ascending, so each tag segment is sorted
            items = dataset.social_index.items_for(user, tag)
            if not items:
                continue
            soc_users.append(user)
            soc_lengths.append(len(items))
            soc_items.extend(items)
            with_tag += 1
        soc_user_offsets[index + 1] = soc_user_offsets[index] + with_tag
    soc_segment_offsets = np.zeros(len(soc_users) + 1, dtype=np.int64)
    np.cumsum(np.array(soc_lengths, dtype=np.int64), out=soc_segment_offsets[1:])
    arrays["social.user_offsets"] = soc_user_offsets
    arrays["social.user_ids"] = np.array(soc_users, dtype=np.int64)
    arrays["social.segment_offsets"] = soc_segment_offsets
    arrays["social.item_ids"] = np.array(soc_items, dtype=np.int64)

    for name, array in _action_arrays(dataset.tagging, tag_ids).items():
        arrays[f"actions.{name}"] = array
    if dataset.holdout is not None:
        holdout_tags = sorted(set(tag_ids) | set(dataset.holdout.tags()))
        holdout_ids = {tag: index for index, tag in enumerate(holdout_tags)}
        for name, array in _action_arrays(dataset.holdout, holdout_ids).items():
            arrays[f"holdout.{name}"] = array
        holdout_table: Optional[List[str]] = holdout_tags
    else:
        holdout_table = None

    materialized_meta: Optional[Dict[str, object]] = None
    if proximity is not None and proximity.built:
        shards = sorted(proximity.shards(), key=lambda shard: shard.cluster_id)
        member_offsets = np.zeros(len(shards) + 1, dtype=np.int64)
        row_lengths: List[np.ndarray] = []
        for index, shard in enumerate(shards):
            member_offsets[index + 1] = member_offsets[index] + len(shard)
            row_lengths.append(np.diff(shard.offsets))
        flat_lengths = _concat(row_lengths, np.int64)
        row_offsets = np.zeros(flat_lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(flat_lengths, out=row_offsets[1:])
        arrays["materialized.labels"] = np.array(proximity.labels(), dtype=np.int64)
        arrays["materialized.cluster_ids"] = np.array(
            [shard.cluster_id for shard in shards], dtype=np.int64)
        arrays["materialized.member_offsets"] = member_offsets
        arrays["materialized.members"] = _concat(
            [shard.members for shard in shards], np.int64)
        arrays["materialized.row_offsets"] = row_offsets
        arrays["materialized.row_user_ids"] = _concat(
            [shard.user_ids for shard in shards], np.int64)
        arrays["materialized.row_values"] = _concat(
            [shard.values for shard in shards], np.float64)
        materialized_meta = {
            "measure": proximity.inner.name,
            "num_clusters": len(shards),
            "num_rows": proximity.num_rows(),
            "num_entries": proximity.num_entries(),
        }

    meta: Dict[str, object] = {
        "format": "repro-arena",
        "format_version": ARENA_VERSION,
        "name": dataset.name,
        "num_users": dataset.num_users,
        "num_actions": dataset.num_actions,
        "tags": tags,
        "holdout_tags": holdout_table,
        "users": [asdict(user) for user in dataset.users],
        "items": [asdict(item) for item in dataset.items],
        "has_holdout": dataset.holdout is not None,
        "materialized": materialized_meta,
    }
    return write_arena(path, meta, arrays)


def stage_compact(social: ArenaSocialIndex
                  ) -> Optional[Tuple[_SocialArrays, int]]:
    """Build the next epoch's arrays without mutating anything.

    Returns ``None`` when the overlay is empty, else ``(arrays,
    folded)`` to hand to :meth:`commit_compact`.  Staging performs all
    the work that can fail (allocation, merging); the commit is then a
    pure attribute swap, which is what gives
    :meth:`~repro.storage.updates.DatasetUpdater.compact` its
    failure atomicity — an exception mid-compaction leaves the old
    epoch fully intact.
    """
    if not social._overlay:
        return None
    staging = social._merged_staging()
    tags = sorted({tag for profile in staging.values() for tag in profile})
    tag_ids = {tag: index for index, tag in enumerate(tags)}
    ordered_users = sorted(staging)
    user_offsets = np.zeros(len(tags) + 1, dtype=np.int64)
    users: List[int] = []
    lengths: List[int] = []
    items: List[int] = []
    for index, tag in enumerate(tags):
        with_tag = 0
        for user in ordered_users:
            row = staging[user].get(tag)
            if not row:
                continue
            users.append(user)
            lengths.append(len(row))
            items.extend(row)
            with_tag += 1
        user_offsets[index + 1] = user_offsets[index] + with_tag
    segment_offsets = np.zeros(len(users) + 1, dtype=np.int64)
    np.cumsum(np.array(lengths, dtype=np.int64), out=segment_offsets[1:])
    arrays = _SocialArrays(
        tag_ids, user_offsets,
        np.array(users, dtype=np.int64), segment_offsets,
        np.array(items, dtype=np.int64))
    return arrays, len(social._overlay)
