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
  ``TaggingStore.actions()`` (one Python object per action);
* :func:`stage_compact` — ``SocialIndex.stage_compact`` over the
  :func:`_merged_staging` profile dict.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.storage.arena import ARENA_VERSION, PathLike, _concat, write_arena
from repro.storage.dataset import Dataset
from repro.storage.social_index import SocialIndex, _SocialArrays
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


def build_arena(dataset: Dataset, path: PathLike) -> Path:
    """Serialise ``dataset`` into an arena file."""
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
    all_users = dataset.tagging.users()
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
        "materialized": None,
    }
    return write_arena(path, meta, arrays)


def _merged_staging(social: SocialIndex
                    ) -> Dict[int, Dict[str, Tuple[int, ...]]]:
    base = social._base
    staging: Dict[int, Dict[str, Tuple[int, ...]]] = {}
    for tag, tag_index in base.tag_ids.items():
        start = int(base.user_offsets[tag_index])
        end = int(base.user_offsets[tag_index + 1])
        for position in range(start, end):
            user = int(base.user_ids[position])
            row_start = int(base.segment_offsets[position])
            row_end = int(base.segment_offsets[position + 1])
            staging.setdefault(user, {})[tag] = tuple(
                int(i) for i in base.item_ids[row_start:row_end])
    for (user, tag), row in social._overlay.items():
        staging.setdefault(user, {})[tag] = row
    return staging


def stage_compact(social: SocialIndex
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
    staging = _merged_staging(social)
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
