"""Reference delta merge: the dict-and-sort per-tag rebuilds the kernels replaced.

``repro.storage.delta.merged_tag_endorsers`` folds a batch's ``(item,
tagger)`` pairs into a tag's CSR bundle with ``searchsorted`` +
``np.insert``, and ``InvertedIndex.apply_delta`` reads each posting list off
the merged bundle with one ``lexsort``.  This module keeps the code they
replaced, verbatim, as the exact-equality oracle of
``tests/property/test_delta_kernels.py``:

* :func:`merged_tag_endorsers` — every segment of the tag collected into a
  dict, the touched ones merged, the whole CSR re-assembled;
* :func:`merged_counts` + :func:`posting_list_from_counts` — the tag's
  posting list turned into an ``item -> frequency`` dict, incremented and
  re-sorted;
* :func:`posting_deltas` — the endorser delta collapsed into those
  increments;
* :func:`merge_sorted_disjoint` — the concatenate-and-sort merge of two
  disjoint ascending id runs these rebuilds use.

It also keeps the graph update the friendship path replaced:
:func:`builder_with_edges` re-adds every existing edge, then the batch, to a
:class:`~repro.graph.SocialGraphBuilder` (the oracle of
``SocialGraph.with_edges``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph import SocialGraph, SocialGraphBuilder
from repro.storage.endorser_index import TagEndorsers
from repro.storage.inverted_index import PostingList

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


def builder_with_edges(graph: SocialGraph,
                       edges: Iterable[Tuple[int, int, float]]
                       ) -> Tuple[SocialGraph, int]:
    """``graph`` plus ``edges`` through the builder, and the edges it added."""
    builder = SocialGraphBuilder(graph.num_users)
    for u, v, w in graph.iter_edges():
        builder.add_edge(u, v, w)
    before = builder.num_edges
    for u, v, w in edges:
        builder.add_edge(u, v, w)
    return builder.build(), builder.num_edges - before


def builder_with_users(graph: SocialGraph, count: int) -> SocialGraph:
    """``graph`` plus ``count`` isolated users through the builder."""
    builder = SocialGraphBuilder(graph.num_users + count)
    for u, v, w in graph.iter_edges():
        builder.add_edge(u, v, w)
    return builder.build()
