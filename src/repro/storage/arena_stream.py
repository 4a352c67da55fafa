"""Out-of-core arena construction: chunked generation + memmap fill passes.

:func:`repro.storage.arena.build_arena` serialises an already-built
:class:`~repro.storage.dataset.Dataset` — which means the whole corpus has
been materialised in Python objects first (one per action, plus the
tagging store's hash indexes).  At the 2,500-user benchmark
scale that is irrelevant; at the 100k–1M-user scale the ROADMAP targets it
is the difference between a few hundred MB and many GB of peak RSS.

This module builds the **same arena file** without ever materialising the
corpus in Python objects:

1. the social graph is generated normally (its CSR arrays are a few MB even
   at 1M users) and the tagging stream is consumed chunk-at-a-time from
   :meth:`TaggingModel.generate_chunks` — bounded numpy record batches;
2. actions are **deduplicated** against a sorted array of packed
   ``(user, item, tag)`` keys (merged LSM-style as chunks arrive) and the
   surviving first-occurrence rows are spilled to flat column files in a
   scratch directory;
3. every index section (inverted, endorser, social, action log) is then
   produced by count-then-fill passes over the spilled columns: composite
   integer sort keys, one global ``argsort`` per section, and blocked
   gathers into ``np.memmap`` outputs — 8 bytes per row instead of a
   Python object per row;
4. :func:`~repro.storage.arena.write_arena` streams the memmap-backed
   arrays to the target file in bounded slices.

The result is **byte-identical** to ``build_arena(build_dataset(config))``
at every seed (property-gated in ``tests/property``): the generator chunks
are the same action stream, deduplication keeps the same first occurrences,
and each fill pass reproduces the exact ordering the in-memory index
builders produce (frequency-ordered posting lists, ascending endorser and
social segments).
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DatasetConfig
from ..errors import StorageError
from ..graph import generate_graph
from ..workload.tagging_model import TaggingModel
from .arena import (
    ARENA_VERSION,
    LazyRecordList,
    PathLike,
    _release_mapped_pages,
    write_arena,
)
from .social_index import _offsets_from_counts, _social_rows

#: default number of actions per generated chunk.
DEFAULT_CHUNK_SIZE = 100_000
#: rows moved per blocked gather / fill slice.
_BLOCK_ROWS = 1 << 20
#: merge the pending dedup runs into the base array once this many accumulate.
_MAX_PENDING_RUNS = 16

_COLUMNS = ("user_ids", "item_ids", "tag_ranks", "timestamps")


def _contains_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean membership of ``needles`` in the sorted array ``haystack``."""
    if haystack.shape[0] == 0:
        return np.zeros(needles.shape[0], dtype=bool)
    positions = np.searchsorted(haystack, needles)
    positions = np.minimum(positions, haystack.shape[0] - 1)
    return haystack[positions] == needles


class _TripleDeduper:
    """Sorted-base + pending-runs membership structure over packed triples.

    Each accepted chunk contributes one sorted run of fresh keys; runs are
    folded into the base array geometrically (every ``_MAX_PENDING_RUNS``
    chunks) so per-chunk cost stays near O(chunk · log N) instead of
    re-sorting the full key set on every chunk.
    """

    def __init__(self) -> None:
        self._base = np.zeros(0, dtype=np.int64)
        self._runs: List[np.ndarray] = []

    def fresh_mask(self, sorted_keys: np.ndarray) -> np.ndarray:
        """Which of the (sorted, unique) keys have never been seen."""
        fresh = ~_contains_sorted(self._base, sorted_keys)
        for run in self._runs:
            if fresh.any():
                fresh &= ~_contains_sorted(run, sorted_keys)
        return fresh

    def add_run(self, sorted_keys: np.ndarray) -> None:
        """Record freshly accepted keys (already sorted and unique)."""
        if sorted_keys.shape[0] == 0:
            return
        self._runs.append(sorted_keys)
        if len(self._runs) >= _MAX_PENDING_RUNS:
            self._base = np.sort(
                np.concatenate([self._base] + self._runs), kind="stable")
            self._runs = []


class _ColumnSpill:
    """Append-only flat int64 column files in the scratch directory."""

    def __init__(self, directory: Path, columns: Sequence[str]) -> None:
        self._directory = directory
        self._columns = tuple(columns)
        self._handles = {
            column: (directory / f"log.{column}.i64").open("wb")
            for column in self._columns
        }
        self.rows = 0

    def append(self, batch: Dict[str, np.ndarray]) -> None:
        rows = None
        for column in self._columns:
            values = np.ascontiguousarray(batch[column], dtype=np.int64)
            if rows is None:
                rows = values.shape[0]
            self._handles[column].write(values.tobytes())
        self.rows += int(rows or 0)

    def close(self) -> Dict[str, np.ndarray]:
        """Flush and reopen every column as a read-only memmap."""
        for handle in self._handles.values():
            handle.close()
        if self.rows == 0:
            return {column: np.zeros(0, dtype=np.int64)
                    for column in self._columns}
        return {
            column: np.memmap(self._directory / f"log.{column}.i64",
                              dtype=np.int64, mode="r", shape=(self.rows,))
            for column in self._columns
        }


def _scratch_memmap(directory: Path, name: str, rows: int,
                    dtype=np.int64) -> np.ndarray:
    """A writable scratch memmap (plain zero-length array when empty)."""
    if rows == 0:
        return np.zeros(0, dtype=dtype)
    return np.memmap(directory / f"{name}.mm", dtype=dtype, mode="w+",
                     shape=(rows,))


def _gather_into(out: np.ndarray, source: np.ndarray,
                 order: np.ndarray) -> np.ndarray:
    """``out[:] = source[order]`` in bounded blocks (the memmap fill pass)."""
    for start in range(0, order.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        out[start:stop] = np.asarray(source[order[start:stop]])
    return out


def _group_sorted(keys_sorted: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(unique_keys, counts)`` of an already-sorted key array (one pass)."""
    if keys_sorted.shape[0] == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    ends = np.concatenate([boundaries,
                           np.array([keys_sorted.shape[0]], dtype=np.int64)])
    return np.asarray(keys_sorted[starts]), ends - starts


def build_arena_streaming(config: DatasetConfig, path: PathLike,
                          chunk_size: int = DEFAULT_CHUNK_SIZE,
                          scratch_dir: Optional[PathLike] = None) -> Path:
    """Build the arena for ``config`` without materialising the corpus.

    Parameters
    ----------
    config:
        The dataset parameters; must describe a corpus without holdout
        (holdout splitting is a cold evaluation path that inherently
        materialises per-user action lists — build those in memory).
    path:
        Target arena file; written atomically like every arena.
    chunk_size:
        Maximum number of actions per generated batch; bounds the Python
        footprint of the generation phase.
    scratch_dir:
        Directory for spill files and fill-pass memmaps; defaults to
        ``<path>.build`` next to the target and is removed afterwards.

    Returns the arena path.  The file is byte-identical to
    ``build_arena(build_dataset(config))`` at the same seed.
    """
    if chunk_size < 1:
        raise StorageError(f"chunk_size must be >= 1, got {chunk_size}")
    num_users = config.num_users
    num_items = config.num_items
    num_tags = config.num_tags
    if num_users * num_items * num_tags >= 2 ** 63:
        raise StorageError(
            "corpus domain too large to pack (user, item, tag) into int64 "
            f"keys: {num_users} x {num_items} x {num_tags}")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(scratch_dir) if scratch_dir is not None \
        else path.with_name(path.name + ".build")
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _build_into(config, path, chunk_size, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _build_into(config: DatasetConfig, path: Path, chunk_size: int,
                scratch: Path) -> Path:
    num_users = config.num_users
    num_items = config.num_items
    num_tags = config.num_tags

    graph = generate_graph(config.graph_model, num_users, config.avg_degree,
                           seed=config.seed)
    model = TaggingModel(graph, config)

    # ------------------------------------------------------------------ #
    # Phase 1: stream, deduplicate, spill the surviving action log.
    # ------------------------------------------------------------------ #
    deduper = _TripleDeduper()
    spill = _ColumnSpill(scratch, _COLUMNS)
    for batch in model.generate_chunks(chunk_size):
        keys = (batch["user_ids"] * num_items + batch["item_ids"]) * num_tags \
            + batch["tag_ranks"]
        unique_keys, first_positions = np.unique(keys, return_index=True)
        fresh = deduper.fresh_mask(unique_keys)
        deduper.add_run(unique_keys[fresh])
        # Keep accepted rows in chunk order = first-occurrence order, the
        # first-occurrence order TaggingStore.from_actions keeps.
        accepted = np.sort(first_positions[fresh], kind="stable")
        spill.append({column: batch[column][accepted] for column in _COLUMNS})
    log = spill.close()
    total = spill.rows
    if total == 0:
        raise StorageError("streaming build produced no actions")

    users_log = log["user_ids"]
    items_log = log["item_ids"]
    ranks_log = log["tag_ranks"]

    # ------------------------------------------------------------------ #
    # Phase 2: tag table + arena-local tag ids.
    # ------------------------------------------------------------------ #
    # Tag names are zero-padded, so sorted names == sorted vocabulary ranks:
    # the arena tag table is the sorted distinct ranks mapped to names.
    present_ranks = np.unique(np.asarray(ranks_log))
    vocabulary = model.tags
    tags = [vocabulary[rank] for rank in present_ranks.tolist()]
    tag_ids_log = _scratch_memmap(scratch, "tag_ids", total)
    for start in range(0, total, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        tag_ids_log[start:stop] = np.searchsorted(
            present_ranks, np.asarray(ranks_log[start:stop]))

    arrays: Dict[str, np.ndarray] = {}
    offsets, neighbours, weights = graph.csr_arrays()
    arrays["graph.offsets"] = offsets
    arrays["graph.neighbours"] = neighbours
    arrays["graph.weights"] = weights

    # ------------------------------------------------------------------ #
    # Phase 3: endorser + inverted sections from one (tag, item, user) sort.
    # ------------------------------------------------------------------ #
    key_tiu = (np.asarray(tag_ids_log) * num_items + np.asarray(items_log)) \
        * num_users + np.asarray(users_log)
    # Keys are distinct triples, so stability cannot change the result —
    # but kind="stable" pins the permutation across numpy versions.
    order = np.argsort(key_tiu, kind="stable")
    taggers = _scratch_memmap(scratch, "endorser.taggers", total)
    _gather_into(taggers, users_log, order)
    # Not read again until the final write; keep its pages off the RSS bill.
    _release_mapped_pages(taggers)
    # Group the sorted rows by (tag, item): counts are the per-item
    # distinct-endorser frequencies (rows are distinct triples).
    pair_keys, pair_counts = _group_sorted(key_tiu[order] // num_users)
    del key_tiu, order
    pair_tags = pair_keys // num_items
    pair_items = pair_keys % num_items
    per_tag_items = np.bincount(pair_tags, minlength=len(tags))

    # Inverted index first (matching build_arena's manifest order): the
    # (tag, item, frequency) relation re-ordered per tag by
    # (-frequency, item id) — the posting-list layout.
    posting_order = np.lexsort((pair_items, -pair_counts, pair_tags))
    arrays["inverted.offsets"] = _offsets_from_counts(per_tag_items, len(tags))
    arrays["inverted.item_ids"] = pair_items[posting_order]
    arrays["inverted.frequencies"] = pair_counts[posting_order]
    del posting_order

    arrays["endorser.item_offsets"] = _offsets_from_counts(
        per_tag_items, len(tags))
    arrays["endorser.item_ids"] = pair_items
    arrays["endorser.frequencies"] = pair_counts
    arrays["endorser.segment_offsets"] = _offsets_from_counts(
        pair_counts, pair_counts.shape[0])
    arrays["endorser.taggers"] = taggers

    # ------------------------------------------------------------------ #
    # Phase 4: social section from one (tag, user, item) sort, the same
    # layout build_arena uses; only the item column is gathered to disk.
    # ------------------------------------------------------------------ #
    order, user_offsets, row_users, segment_offsets = _social_rows(
        tag_ids_log, users_log, items_log, len(tags))
    social_items = _scratch_memmap(scratch, "social.item_ids", order.shape[0])
    _gather_into(social_items, items_log, order)
    _release_mapped_pages(social_items)
    del order
    arrays["social.user_offsets"] = user_offsets
    arrays["social.user_ids"] = row_users
    arrays["social.segment_offsets"] = segment_offsets
    arrays["social.item_ids"] = social_items

    # ------------------------------------------------------------------ #
    # Phase 5: the deduplicated action log + meta, then the atomic write.
    # ------------------------------------------------------------------ #
    arrays["actions.user_ids"] = users_log
    arrays["actions.item_ids"] = items_log
    arrays["actions.tag_ids"] = tag_ids_log
    arrays["actions.timestamps"] = log["timestamps"]

    # Every fill pass is done: evict the phases' resident pages so the
    # header-encoding and write phase start from a near-empty RSS (the
    # writer re-faults each array in bounded slices and drops it again).
    for array in arrays.values():
        _release_mapped_pages(array)
    for column in log.values():
        _release_mapped_pages(column)

    # The user and item records are lazy: at 100k users / 300k items the
    # eager dicts alone would dwarf every array buffer in this build.
    # write_arena serialises them record-at-a-time into the same bytes.
    item_prefix = f"{config.name}-item-"
    meta: Dict[str, object] = {
        "format": "repro-arena",
        "format_version": ARENA_VERSION,
        "name": config.name,
        "num_users": num_users,
        "num_actions": total,
        "tags": tags,
        "holdout_tags": None,
        "users": LazyRecordList(
            num_users,
            lambda user_id: {"user_id": user_id, "name": f"user-{user_id}",
                             "attributes": {}}),
        "items": LazyRecordList(
            num_items,
            lambda item_id: {"item_id": item_id,
                             "title": f"{item_prefix}{item_id}",
                             "url": None, "attributes": {}}),
        "has_holdout": False,
        "materialized": None,
    }
    return write_arena(path, meta, arrays)


__all__ = ["DEFAULT_CHUNK_SIZE", "build_arena_streaming"]
