"""Delta-merge kernels of the live-update write path.

The array-backed hot structures (posting lists, the per-tag endorser CSR,
the per-tag social CSR, the tagging store's columns) are frozen once built:
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

A batch costs what it touches: :func:`merged_tag_endorsers` folds one
tag's new ``(item, tagger)`` pairs into its CSR bundle with a
``searchsorted`` and one ``np.insert`` per array, never visiting the tag's
untouched items in Python.  The posting list of a tag is the merged
bundle's ``(item_ids, frequencies)`` reordered by ``(-frequency,
item_id)`` (see :meth:`repro.storage.inverted_index.InvertedIndex.apply_delta`).
The deltas come from
:meth:`repro.storage.updates.DatasetUpdater.add_actions`, built from the
batch of *newly recorded* (already deduplicated) actions:

* ``tag -> ([items], [taggers])`` pairs for the endorser CSR and, through
  the merged bundles, the posting lists;
* ``(user, tag) -> [new items]`` for the social index.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .endorser_index import TagEndorsers

_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_NO_SEGMENTS = np.zeros(1, dtype=np.int64)


def merged_tag_endorsers(tag: str, base: Optional[TagEndorsers],
                         items: Sequence[int],
                         taggers: Sequence[int]) -> TagEndorsers:
    """One tag's endorser CSR with new ``(item, tagger)`` pairs merged in.

    ``items[i]`` was endorsed by ``taggers[i]``; no pair may already be in
    ``base`` (the tagging store deduplicates).  Items stay ascending,
    taggers stay ascending within each segment, and segments stay non-empty
    — the invariants ``reduceat``-based scoring and the binary-search
    lookups rely on.  The base arrays are left untouched (they may be
    read-only arena views); the result is a fresh bundle.

    The sorted pairs are located with ``searchsorted``: an item already in
    the tag inserts each new tagger at its rank inside the item's segment,
    a new item inserts all of its taggers in front of the next item's
    segment.  One ``np.insert`` each then builds ``taggers``, ``item_ids``
    and the per-item counts, and ``offsets`` is their ``cumsum``.
    """
    pair_items = np.asarray(items, dtype=np.int64)
    pair_taggers = np.asarray(taggers, dtype=np.int64)
    order = np.lexsort((pair_taggers, pair_items))
    pair_items = pair_items[order]
    pair_taggers = pair_taggers[order]
    if base is None:
        base_items, base_counts = _EMPTY_IDS, _EMPTY_IDS
        base_offsets, base_taggers = _NO_SEGMENTS, _EMPTY_IDS
    else:
        base_items = np.asarray(base.item_ids, dtype=np.int64)
        base_counts = np.asarray(base.frequencies, dtype=np.int64)
        base_offsets = np.asarray(base.offsets, dtype=np.int64)
        base_taggers = np.asarray(base.taggers, dtype=np.int64)

    touched, added_counts = np.unique(pair_items, return_counts=True)
    slots = np.searchsorted(base_items, touched)
    existing = slots < base_items.shape[0]
    existing[existing] = base_items[slots[existing]] == touched[existing]

    # Where each pair's tagger lands in the base tagger column.
    pair_slots = np.repeat(slots, added_counts)
    positions = base_offsets[pair_slots]
    for pair in np.flatnonzero(np.repeat(existing, added_counts)):
        start = positions[pair]
        end = base_offsets[pair_slots[pair] + 1]
        positions[pair] = start + np.searchsorted(base_taggers[start:end],
                                                  pair_taggers[pair])
    # Equal positions keep the pairs' (item, tagger) order, so a new item's
    # taggers follow any tagger appended to the segment in front of it.
    merged_taggers = np.insert(base_taggers, positions, pair_taggers)

    counts = base_counts.copy()
    counts[slots[existing]] += added_counts[existing]
    fresh = ~existing
    counts = np.insert(counts, slots[fresh], added_counts[fresh])
    item_ids = np.insert(base_items, slots[fresh], touched[fresh])
    offsets = np.zeros(item_ids.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return TagEndorsers(tag=tag, item_ids=item_ids, frequencies=counts,
                        offsets=offsets, taggers=merged_taggers)


__all__ = [
    "merged_tag_endorsers",
]
