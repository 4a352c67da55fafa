"""Delta-merge kernels of the live-update write path.

The array-backed hot structures (posting lists, the per-tag endorser CSR,
the per-tag social CSR, the arena tagging store) are frozen once built:
their numpy arrays — often read-only ``np.ndarray`` views of the mapped
index arena — are never mutated in place.  Live updates therefore work on
**delta overlays**: a small in-memory delta accumulates the new facts and
reads merge it with the frozen base, until a **compaction** folds the delta
back into fresh contiguous arrays.

This module holds the merge kernels shared by those structures.  Every
kernel reproduces, entry for entry, the layout the corresponding
``*.build`` constructor would produce from the merged relation — same sort
keys, same tie-breaks, same dtypes — so a delta-merged read is
indistinguishable from a from-scratch rebuild (the property
``tests/property/test_update_equivalence.py`` pins down).

The deltas themselves are plain dictionaries produced by
:meth:`repro.storage.updates.DatasetUpdater.add_actions` from the batch of
*newly recorded* (already deduplicated) actions:

* ``tag -> item -> [new taggers]`` for the endorser CSR,
* ``tag -> item -> extra distinct-endorser count`` for posting lists,
* ``(user, tag) -> [new items]`` for the social index.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .endorser_index import TagEndorsers
from .inverted_index import PostingList

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


def merge_sorted_disjoint(base: np.ndarray, extra: Sequence[int]) -> np.ndarray:
    """Merge an ascending array with a disjoint ascending sequence.

    The store-level deduplication guarantees the two sides never share an
    element, so a concatenate + sort is an exact merge.  Returns ``base``
    itself (zero-copy) when ``extra`` is empty.
    """
    if not len(extra):
        return base
    merged = np.concatenate([np.asarray(base, dtype=np.int64),
                             np.asarray(extra, dtype=np.int64)])
    merged.sort()
    return merged


def merged_counts(base: Optional[PostingList],
                  extra_counts: Mapping[int, int]) -> Dict[int, int]:
    """One tag's ``item -> frequency`` map with increments applied."""
    counts: Dict[int, int] = {}
    if base is not None and len(base):
        counts = dict(zip(base.item_ids.tolist(), base.frequencies.tolist()))
    for item_id, extra in extra_counts.items():
        counts[item_id] = counts.get(item_id, 0) + int(extra)
    return counts


def posting_list_from_counts(counts: Mapping[int, int]
                             ) -> Tuple[PostingList, int]:
    """Build ``(postings, max_frequency)`` from an ``item -> frequency`` map.

    Ordered by decreasing frequency with ties broken by ascending item id —
    byte-identical to what :meth:`InvertedIndex.build` produces from the
    merged tagging store.
    """
    entries = sorted(counts.items(), key=lambda entry: (-entry[1], entry[0]))
    if not entries:
        return PostingList(_EMPTY_IDS, _EMPTY_IDS), 0
    item_ids = np.array([item_id for item_id, _ in entries], dtype=np.int64)
    frequencies = np.array([frequency for _, frequency in entries],
                           dtype=np.int64)
    return PostingList(item_ids, frequencies), int(frequencies[0])


def merged_tag_endorsers(tag: str, base: Optional[TagEndorsers],
                         added: Mapping[int, Sequence[int]]) -> TagEndorsers:
    """One tag's endorser CSR with new ``item -> taggers`` pairs merged in.

    Items stay ascending, taggers stay ascending within each segment, and
    segments stay non-empty — the invariants ``reduceat``-based scoring and
    the binary-search lookups rely on.  The base arrays are left untouched
    (they may be read-only arena views); every merged segment is a fresh
    array, untouched segments are reused by reference.
    """
    segments: Dict[int, np.ndarray] = {}
    if base is not None:
        item_list = base.item_ids.tolist()
        offsets = base.offsets
        for position, item_id in enumerate(item_list):
            segments[item_id] = base.taggers[int(offsets[position]):
                                             int(offsets[position + 1])]
    for item_id, taggers in added.items():
        if not len(taggers):
            continue
        segments[int(item_id)] = merge_sorted_disjoint(
            segments.get(int(item_id), _EMPTY_IDS), sorted(taggers))
    items = sorted(segments)
    offsets = np.zeros(len(items) + 1, dtype=np.int64)
    parts: List[np.ndarray] = []
    for position, item_id in enumerate(items):
        segment = segments[item_id]
        parts.append(segment)
        offsets[position + 1] = offsets[position] + segment.shape[0]
    taggers_flat = np.concatenate(parts) if parts else _EMPTY_IDS
    return TagEndorsers(
        tag=tag,
        item_ids=np.array(items, dtype=np.int64),
        frequencies=np.diff(offsets),
        offsets=offsets,
        taggers=np.ascontiguousarray(taggers_flat, dtype=np.int64),
    )


def posting_deltas(by_tag: Mapping[str, Mapping[int, Sequence[int]]]
                   ) -> Dict[str, Dict[int, int]]:
    """Collapse an endorser delta into per-item frequency increments."""
    return {
        tag: {item_id: len(taggers) for item_id, taggers in items.items()}
        for tag, items in by_tag.items()
    }


__all__ = [
    "merge_sorted_disjoint",
    "merged_counts",
    "merged_tag_endorsers",
    "posting_deltas",
    "posting_list_from_counts",
]
