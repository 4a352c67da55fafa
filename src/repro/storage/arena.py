"""Memory-mapped index arena: every hot structure in one on-disk file.

The arena is the one persisted form of a dataset.  Building a
:class:`Dataset` from its actions *rebuilds* every derived index — sorting
posting lists, grouping endorser segments — which makes cold start scale
with corpus size.  The arena removes that rebuild entirely: all the
array-backed hot structures are serialised **in their query-ready layout**
into a single versioned file and opened with ``np.memmap``, so a process
serves its first query after little more than an ``open`` + header parse:

* the social graph's CSR arrays (used as-is by :class:`SocialGraph`);
* the inverted index's frequency-ordered posting-list arrays;
* the endorser index's per-tag item → tagger CSR;
* the social index's per-tag user → item CSR;
* the raw tagging actions (tag names interned through a small tag table).

Older arenas may also carry ``materialized.*`` sections (per-cluster
proximity rows of a removed shard store); readers ignore them, and the next
checkpoint rewrites the file without them.

File layout (little-endian)::

    magic "RPRARENA" | uint32 version | uint64 header_length
    header JSON  (meta + array manifest: name, dtype, shape, offset)
    64-byte-aligned raw array payloads

The scalar-path structures that are *not* arrays (the tagging store's hash
indexes, user/item profiles) are served by thin array-backed subclasses
that answer the hot lookups by binary search over the mapped arrays and
fall back to materialising the full Python store only when a cold path
(workload generation, holdout splitting) actually asks for it.

**Live updates** never invalidate the mapped arrays wholesale.  Each
array-backed view keeps a small in-memory **delta overlay** — new tagging
actions land in a plain :class:`TaggingStore` delta, new social-profile
entries in an overlay dict — and reads merge the frozen base with the
delta (see :mod:`repro.storage.delta`).  A **compaction** step folds the
delta back into fresh contiguous arrays once it grows past a threshold
(:meth:`repro.storage.updates.DatasetUpdater.compact`); because a merged
read and a compacted read are value-identical, the swap is safe to run
concurrently with lock-free readers: the frozen state lives in one holder
object replaced atomically.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import PersistenceError, StorageError
from ..graph import SocialGraph
from ..obs.faults import fault_point
from .dataset import Dataset
from .delta import merge_sorted_disjoint
from .endorser_index import EndorserIndex, TagEndorsers
from .inverted_index import InvertedIndex, PostingList
from .items import Item, ItemStore
from .social_index import SocialIndex
from .tagging import TaggingAction, TaggingStore
from .users import User, UserStore

PathLike = Union[str, Path]

MAGIC = b"RPRARENA"
ARENA_VERSION = 1
_ALIGNMENT = 64
_PREAMBLE = struct.Struct("<8sIQ")
#: bytes written per chunk when streaming array payloads to disk; bounds the
#: writer's transient allocations regardless of array size.
_WRITE_CHUNK_BYTES = 16 * 1024 * 1024


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _release_mapped_pages(array: np.ndarray) -> None:
    """Evict a memmap-backed array's resident pages (data stays on disk).

    The streaming builder hands :func:`write_arena` scratch ``np.memmap``
    arrays whose touched pages would otherwise stay resident until process
    exit, so a large build's peak RSS would grow with the whole arena even
    though each page is needed only once.  ``madvise(MADV_DONTNEED)`` on a
    shared file mapping just unmaps the pages from this process — the page
    cache keeps the data and later reads fault it back in.  No-op for heap
    arrays, for the plain views :meth:`Arena.open` hands out (a checkpoint
    writing a new arena from an attached dataset must not drop the live
    mapping's pages), and on platforms without ``madvise``.
    """
    mapped = getattr(array, "_mmap", None)
    if mapped is None or not hasattr(mapped, "madvise"):
        return
    advice = getattr(mmap, "MADV_DONTNEED", None)
    if advice is None:
        return
    try:
        if getattr(array, "mode", "r") not in ("r", "c"):
            array.flush()
        mapped.madvise(advice)
    except (OSError, ValueError):
        pass


class LazyRecordList:
    """A ``(length, factory)`` stand-in for a list of JSON record dicts.

    ``meta["users"]`` / ``meta["items"]`` are hundreds of thousands of tiny
    dicts at the corpus sizes the streaming builder targets — materialising
    them costs more RSS than every array buffer combined.  The builder
    passes this instead; :func:`write_arena` serialises it record-at-a-time
    into the exact bytes ``json.dumps`` would produce for the eager list.
    """

    __slots__ = ("_length", "_factory")

    def __init__(self, length: int, factory) -> None:
        self._length = int(length)
        self._factory = factory

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int):
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._factory(index)

    def __iter__(self):
        return (self._factory(index) for index in range(self._length))


def _encode_header(header: Dict[str, object]) -> bytes:
    """``json.dumps(header, sort_keys=True)`` with lazy meta lists spliced.

    Each :class:`LazyRecordList` under ``header["meta"]`` is first encoded
    as ``[]`` and then replaced by its records serialised one at a time —
    ``json.dumps`` renders a list as ``[`` + ``", ".join(records)`` + ``]``
    with the default separators, so the spliced bytes are identical to the
    eager encoding while only one record dict is ever alive.
    """
    meta = header.get("meta")
    lazy = {key: value for key, value in meta.items()
            if isinstance(value, LazyRecordList)} \
        if isinstance(meta, dict) else {}
    if not lazy:
        return json.dumps(header, sort_keys=True).encode("utf-8")
    plain = dict(header)
    plain["meta"] = {key: ([] if key in lazy else value)
                     for key, value in meta.items()}
    encoded = json.dumps(plain, sort_keys=True)
    for key, records in lazy.items():
        placeholder = json.dumps(key) + ": []"
        if encoded.count(placeholder) != 1:
            raise PersistenceError(
                f"cannot splice lazy meta entry {key!r} into the header")
        body = ", ".join(json.dumps(record, sort_keys=True)
                         for record in records)
        encoded = encoded.replace(
            placeholder, json.dumps(key) + ": [" + body + "]")
    return encoded.encode("utf-8")


def _write_array_chunked(handle, array: np.ndarray) -> None:
    """Write ``array``'s bytes in bounded slices.

    ``array.tobytes()`` materialises a full in-RAM copy of the payload —
    for a memmap-backed array that is exactly the allocation the streaming
    build works to avoid.  Writing ``_WRITE_CHUNK_BYTES``-sized slices keeps
    the writer's footprint constant while producing identical file bytes.
    """
    flat = array.reshape(-1)
    step = max(1, _WRITE_CHUNK_BYTES // max(1, array.dtype.itemsize))
    for start in range(0, flat.shape[0], step):
        handle.write(flat[start:start + step].tobytes())


# --------------------------------------------------------------------- #
# Low-level format
# --------------------------------------------------------------------- #

def write_arena(path: PathLike, meta: Dict[str, object],
                arrays: Dict[str, np.ndarray]) -> Path:
    """Write ``meta`` + named arrays in the arena format; returns the path.

    The write is **atomic**: the bytes go to ``<path>.tmp``, are fsynced,
    and only then renamed over the target with ``os.replace``.  An
    interrupted build can therefore never leave a half-written arena at
    the target path — readers see either the previous complete file or
    the new complete file, which is what lets compaction publish fresh
    generations while queries keep memory-mapping the old one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    manifest: List[Dict[str, object]] = []
    ordered: List[Tuple[str, np.ndarray]] = []
    for name, array in arrays.items():
        # Memmap-backed arrays from the streaming builder are already
        # contiguous; copying them into RAM here would defeat the bounded
        # write path, so only non-contiguous inputs are materialised.
        if not array.flags["C_CONTIGUOUS"]:
            array = np.ascontiguousarray(array)
        ordered.append((name, array))
        manifest.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        })
    header: Dict[str, object] = {"meta": meta, "arrays": manifest}
    # Two-pass offset computation: the header length depends on the offsets
    # only through their decimal width, so size the header once without
    # them and reserve generous room (32 bytes per offset entry).
    encoded = _encode_header(header)
    data_start = _align(_PREAMBLE.size + len(encoded) + 32 * len(manifest) + 64)
    offset = data_start
    for entry, (_name, array) in zip(manifest, ordered):
        entry["offset"] = offset
        offset = _align(offset + array.nbytes)
    encoded = _encode_header(header)
    if _PREAMBLE.size + len(encoded) > data_start:
        raise PersistenceError("arena header overflowed its reserved space")
    try:
        with tmp_path.open("wb") as handle:
            handle.write(_PREAMBLE.pack(MAGIC, ARENA_VERSION, len(encoded)))
            handle.write(encoded)
            for entry, (_name, array) in zip(manifest, ordered):
                handle.seek(int(entry["offset"]))
                _write_array_chunked(handle, array)
                _release_mapped_pages(array)
            # Pad the file to the last aligned boundary so every mapped view
            # is in bounds.
            handle.seek(0, 2)
            if handle.tell() < offset:
                handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("arena.before_replace")
        os.replace(tmp_path, path)
    except BaseException:
        # Never leave a stray .tmp behind a failed/killed build; the real
        # kill case (power loss) is covered by the rename being last.
        if tmp_path.exists():
            try:
                tmp_path.unlink()
            except OSError:
                pass
        raise
    _fsync_directory(path.parent)
    return path


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory so renames in it are durable."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class Arena:
    """An opened arena: parsed meta plus zero-copy array views.

    The backing buffer is an ``np.memmap`` in read-only mode; every array in
    :attr:`arrays` is a read-only, typed plain ``np.ndarray`` view into it.
    """

    def __init__(self, path: Path, meta: Dict[str, object],
                 arrays: Dict[str, np.ndarray], buffer: np.memmap) -> None:
        self.path = path
        self.meta = meta
        self.arrays = arrays
        self._buffer = buffer

    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def array(self, name: str) -> np.ndarray:
        """The named array view (raises for unknown names)."""
        try:
            return self.arrays[name]
        except KeyError:
            raise PersistenceError(f"arena {self.path} has no array {name!r}") from None

    @classmethod
    def open(cls, path: PathLike) -> "Arena":
        """Map an arena file; raises :class:`PersistenceError` on mismatch.

        A damaged file — cut short, a header that is not UTF-8 JSON, or a
        manifest entry with a missing field or an unknown dtype — is a
        :class:`PersistenceError` naming ``path``, never a raw decode error.
        """
        path = Path(path)
        try:
            with path.open("rb") as handle:
                preamble = handle.read(_PREAMBLE.size)
                if len(preamble) < _PREAMBLE.size:
                    raise PersistenceError(f"{path}: truncated arena preamble")
                magic, version, header_length = _PREAMBLE.unpack(preamble)
                if magic != MAGIC:
                    raise PersistenceError(f"{path}: not an arena file (bad magic)")
                if version != ARENA_VERSION:
                    raise PersistenceError(
                        f"{path}: unsupported arena version {version} "
                        f"(expected {ARENA_VERSION})")
                # Checked before reading so a corrupt length cannot ask for
                # an allocation the size of the whole length field.
                if header_length > os.fstat(handle.fileno()).st_size - _PREAMBLE.size:
                    raise PersistenceError(f"{path}: truncated arena header")
                encoded = handle.read(header_length)
        except OSError as exc:
            raise PersistenceError(f"failed to read arena {path}: {exc}") from exc
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
        arrays: Dict[str, np.ndarray] = {}
        try:
            header = json.loads(encoded.decode("utf-8"))
            for entry in header["arrays"]:
                dtype = np.dtype(str(entry["dtype"]))
                shape = tuple(int(dim) for dim in entry["shape"])
                count = int(np.prod(shape)) if shape else 1
                start = int(entry["offset"])
                end = start + count * dtype.itemsize
                if end > buffer.shape[0]:
                    raise PersistenceError(
                        f"{path}: array {entry['name']!r} overruns the file")
                # A plain ndarray view (not an np.memmap subclass) over the
                # same mapped bytes: slicing it on the query path then skips
                # memmap's per-slice __array_finalize__, and nothing that
                # releases scratch memmap pages can mistake it for one.
                arrays[str(entry["name"])] = buffer[start:end].view(
                    dtype=dtype, type=np.ndarray).reshape(shape)
            meta = dict(header["meta"])
        except (ValueError, KeyError, TypeError) as exc:
            # UnicodeDecodeError and JSONDecodeError are ValueErrors.
            raise PersistenceError(
                f"{path}: malformed arena header: {exc!r}") from exc
        return cls(path, meta, arrays, buffer)


# --------------------------------------------------------------------- #
# Building an arena from a dataset
# --------------------------------------------------------------------- #

def _concat(parts: Sequence[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=dtype)
    return np.concatenate([np.asarray(part, dtype=dtype) for part in parts]) \
        if len(parts) > 1 else np.asarray(parts[0], dtype=dtype)


def _offsets_from_counts(counts: np.ndarray, length: int) -> np.ndarray:
    offsets = np.zeros(length + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _social_rows(tag_ids: np.ndarray, user_ids: np.ndarray,
                 item_ids: np.ndarray, num_tags: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lay ``(tag, user, item)`` triples out as the social section.

    Returns ``(order, user_offsets, user_ids, segment_offsets)``.  ``order``
    picks one row per distinct triple, ascending by tag, then user, then
    item — each tag's users ascending and each segment's items ascending,
    the layout ``SocialIndex.items_for`` answers from — so
    ``item_ids[order]`` is the section's item column.  The columns are
    sorted as they are (one ``lexsort``), so any int64 ids work.
    """
    order = np.lexsort((item_ids, user_ids, tag_ids))
    tags = np.asarray(tag_ids)[order]
    users = np.asarray(user_ids)[order]
    items = np.asarray(item_ids)[order]
    new_row = np.ones(order.shape[0], dtype=bool)
    new_row[1:] = (tags[1:] != tags[:-1]) | (users[1:] != users[:-1])
    distinct = new_row.copy()
    distinct[1:] |= items[1:] != items[:-1]
    del tags, users, items
    order = order[distinct]
    starts = np.flatnonzero(new_row[distinct])
    rows = order[starts]
    return (
        order,
        _offsets_from_counts(np.bincount(np.asarray(tag_ids)[rows],
                                         minlength=num_tags), num_tags),
        np.asarray(user_ids)[rows],
        np.append(starts, order.shape[0]),
    )


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
    segment_offsets = _offsets_from_counts(lengths, lengths.shape[0])
    arrays["endorser.item_offsets"] = end_item_offsets
    arrays["endorser.item_ids"] = _concat(end_items, np.int64)
    arrays["endorser.frequencies"] = _concat(end_freqs, np.int64)
    arrays["endorser.segment_offsets"] = segment_offsets
    arrays["endorser.taggers"] = _concat(end_taggers, np.int64)

    # Social index: per-tag user -> item CSR (the frontier expansion path).
    # It is the action log pivoted, so it is built from the log's arrays.
    actions = dataset.tagging.action_arrays(tag_ids)
    (order, arrays["social.user_offsets"], arrays["social.user_ids"],
     arrays["social.segment_offsets"]) = _social_rows(
        actions["tag_ids"], actions["user_ids"], actions["item_ids"],
        len(tags))
    arrays["social.item_ids"] = actions["item_ids"][order]

    for name, array in actions.items():
        arrays[f"actions.{name}"] = array
    if dataset.holdout is not None:
        holdout_tags = sorted(set(tag_ids) | set(dataset.holdout.tags()))
        holdout_ids = {tag: index for index, tag in enumerate(holdout_tags)}
        for name, array in dataset.holdout.action_arrays(holdout_ids).items():
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
        "users": [user.to_dict() for user in dataset.users],
        "items": [item.to_dict() for item in dataset.items],
        "has_holdout": dataset.holdout is not None,
        # Kept (always null) so the header stays byte-identical to files
        # written while the arena could also carry proximity shards.
        "materialized": None,
    }
    return write_arena(path, meta, arrays)


# --------------------------------------------------------------------- #
# Array-backed store views
# --------------------------------------------------------------------- #

class ArenaInvertedIndex(InvertedIndex):
    """Inverted index whose posting lists are views into the arena.

    Random-access ``frequency`` lookups are answered by binary search over
    the endorser index's ascending item arrays instead of the eager
    ``(tag, item) -> frequency`` dict the in-memory build materialises.
    """

    def __init__(self, endorsers: EndorserIndex) -> None:
        super().__init__()
        self._endorsers = endorsers

    def frequency(self, item_id: int, tag: str) -> int:
        bundle = self._endorsers.for_tag(tag)
        if bundle is None or len(bundle) == 0:
            return 0
        position = int(np.searchsorted(bundle.item_ids, item_id))
        if position >= len(bundle) or int(bundle.item_ids[position]) != item_id:
            return 0
        return int(bundle.frequencies[position])


class _SocialArrays:
    """Frozen per-tag user → items CSR arrays (one atomically swapped unit)."""

    __slots__ = ("tag_ids", "user_offsets", "user_ids", "segment_offsets",
                 "item_ids")

    def __init__(self, tag_ids: Dict[str, int], user_offsets: np.ndarray,
                 user_ids: np.ndarray, segment_offsets: np.ndarray,
                 item_ids: np.ndarray) -> None:
        self.tag_ids = tag_ids
        self.user_offsets = user_offsets
        self.user_ids = user_ids
        self.segment_offsets = segment_offsets
        self.item_ids = item_ids


class ArenaSocialIndex(SocialIndex):
    """Social index answering ``items_for`` from the arena's per-tag CSR.

    The cold paths (full profiles, entry iteration) materialise the dict
    form lazily on first use.  Live updates land in a small ``(user, tag) →
    items`` overlay consulted before the frozen arrays; :meth:`compact`
    folds the overlay back into fresh arrays.
    """

    def __init__(self, tags: Sequence[str], user_offsets: np.ndarray,
                 user_ids: np.ndarray, segment_offsets: np.ndarray,
                 item_ids: np.ndarray) -> None:
        super().__init__()
        self._base = _SocialArrays(
            {tag: index for index, tag in enumerate(tags)},
            user_offsets, user_ids, segment_offsets, item_ids)
        self._overlay: Dict[Tuple[int, str], Tuple[int, ...]] = {}
        self._overlay_extra = 0
        self._profiles_built = False

    def _base_items_for(self, base: _SocialArrays, user_id: int,
                        tag: str) -> Tuple[int, ...]:
        tag_index = base.tag_ids.get(tag)
        if tag_index is None:
            return ()
        start = int(base.user_offsets[tag_index])
        end = int(base.user_offsets[tag_index + 1])
        position = start + int(base.user_ids[start:end].searchsorted(user_id))
        if position >= end or int(base.user_ids[position]) != user_id:
            return ()
        row_start = int(base.segment_offsets[position])
        row_end = int(base.segment_offsets[position + 1])
        return tuple(base.item_ids[row_start:row_end].tolist())

    def items_for(self, user_id: int, tag: str) -> Tuple[int, ...]:
        if self._overlay:
            merged = self._overlay.get((user_id, tag))
            if merged is not None:
                return merged
        return self._base_items_for(self._base, user_id, tag)

    # -- delta overlay -------------------------------------------------- #

    def apply_delta(self, added: Mapping[Tuple[int, str], Sequence[int]]
                    ) -> None:
        """Merge new ``(user, tag) -> [items]`` pairs into the overlay.

        The frozen arrays stay untouched; each touched entry's overlay
        tuple holds the *merged* item set, so a read needs no union pass.
        """
        for (user_id, tag), items in added.items():
            current = self.items_for(user_id, tag)
            merged = tuple(sorted(set(current) | set(items)))
            self._overlay_extra += len(merged) - len(current)
            self._overlay[(user_id, tag)] = merged
            if self._profiles_built:
                self._profiles.setdefault(user_id, {})[tag] = merged

    @property
    def overlay_size(self) -> int:
        """Number of ``(user, tag)`` entries pending compaction."""
        return len(self._overlay)

    def stage_compact(self) -> Optional[Tuple[_SocialArrays, int]]:
        """Build the next epoch's arrays without mutating anything.

        Returns ``None`` when the overlay is empty, else ``(arrays,
        folded)`` to hand to :meth:`commit_compact`.  Staging performs all
        the work that can fail (allocation, merging); the commit is then a
        pure attribute swap, which is what gives
        :meth:`~repro.storage.updates.DatasetUpdater.compact` its
        failure atomicity — an exception mid-compaction leaves the old
        epoch fully intact.
        """
        if not self._overlay:
            return None
        base = self._base
        users_per_tag = np.diff(base.user_offsets)
        # A tag survives when it still has a row; an overlay entry keeps its
        # tag in the table even when its row is empty.
        tags = sorted({tag for tag, index in base.tag_ids.items()
                       if users_per_tag[index]}
                      | {tag for _user, tag in self._overlay})
        tag_ids = {tag: index for index, tag in enumerate(tags)}
        remap = np.zeros(users_per_tag.shape[0], dtype=np.int64)
        for tag, index in base.tag_ids.items():
            remap[index] = tag_ids.get(tag, 0)
        # The base CSR expanded back into (tag, user, item) triples, plus the
        # overlay's rows.  Every overlay row is a superset of the base row it
        # shadows (apply_delta merges into the current row), so the union of
        # the two collapses to exactly the merged read.
        row_lengths = np.diff(base.segment_offsets)
        row_tags = np.repeat(remap, users_per_tag)
        overlay_tags: List[int] = []
        overlay_users: List[int] = []
        overlay_items: List[int] = []
        for (user, tag), row in self._overlay.items():
            overlay_tags.extend([tag_ids[tag]] * len(row))
            overlay_users.extend([user] * len(row))
            overlay_items.extend(row)
        items = np.concatenate([base.item_ids,
                                np.array(overlay_items, dtype=np.int64)])
        order, user_offsets, users, segment_offsets = _social_rows(
            np.concatenate([np.repeat(row_tags, row_lengths),
                            np.array(overlay_tags, dtype=np.int64)]),
            np.concatenate([np.repeat(base.user_ids, row_lengths),
                            np.array(overlay_users, dtype=np.int64)]),
            items, len(tags))
        arrays = _SocialArrays(tag_ids, user_offsets, users, segment_offsets,
                               items[order])
        return arrays, len(self._overlay)

    def commit_compact(self, staged: Optional[Tuple[_SocialArrays, int]]
                       ) -> int:
        """Install staged arrays; pure attribute swaps that cannot raise.

        A merged read and a compacted read are value-identical, so the
        single-attribute swap of the frozen-array holder is safe against
        concurrent lock-free readers; the overlay is cleared only after the
        new arrays are in place (a reader seeing both gets the same items).
        Returns the number of overlay entries folded.
        """
        if staged is None:
            return 0
        arrays, folded = staged
        self._base = arrays
        self._overlay = {}
        self._overlay_extra = 0
        return folded

    def compact(self) -> int:
        """Fold the overlay into fresh arrays (stage + commit in one step)."""
        return self.commit_compact(self.stage_compact())

    # -- cold paths ----------------------------------------------------- #

    def _merged_staging(self) -> Dict[int, Dict[str, Tuple[int, ...]]]:
        base = self._base
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
        for (user, tag), row in self._overlay.items():
            staging.setdefault(user, {})[tag] = row
        return staging

    def _ensure_profiles(self) -> None:
        if self._profiles_built:
            return
        self._profiles.update(self._merged_staging())
        self._profiles_built = True

    def __contains__(self, user_id: int) -> bool:
        self._ensure_profiles()
        return super().__contains__(user_id)

    def __len__(self) -> int:
        self._ensure_profiles()
        return super().__len__()

    def users(self) -> List[int]:
        self._ensure_profiles()
        return super().users()

    def profile(self, user_id: int) -> Dict[str, Tuple[int, ...]]:
        self._ensure_profiles()
        return super().profile(user_id)

    def tags_for(self, user_id: int) -> Tuple[str, ...]:
        self._ensure_profiles()
        return super().tags_for(user_id)

    def num_entries(self) -> int:
        return int(self._base.item_ids.shape[0]) + self._overlay_extra

    def iter_entries(self) -> Iterator[Tuple[int, str, int]]:
        self._ensure_profiles()
        return super().iter_entries()


class _TaggingState:
    """One frozen epoch of the arena tagging store (atomically swapped).

    ``bundles`` is a :meth:`EndorserIndex.snapshot` taken when the epoch was
    frozen: the live endorser index keeps absorbing deltas in place, so the
    store's *base* reads must come from this decoupled snapshot or a merged
    read would count the same delta twice.
    """

    __slots__ = ("tag_table", "users", "items", "tags", "timestamps",
                 "bundles")

    def __init__(self, tag_table: List[str], users: np.ndarray,
                 items: np.ndarray, tags: np.ndarray, timestamps: np.ndarray,
                 bundles: Dict[str, TagEndorsers]) -> None:
        self.tag_table = tag_table
        self.users = users
        self.items = items
        self.tags = tags
        self.timestamps = timestamps
        self.bundles = bundles

    def __len__(self) -> int:
        return int(self.users.shape[0])

    def segment(self, item_id: int, tag: str) -> np.ndarray:
        bundle = self.bundles.get(tag)
        if bundle is None:
            return _EMPTY_SEGMENT
        return bundle.taggers_of(item_id)


_EMPTY_SEGMENT = np.zeros(0, dtype=np.int64)


class ArenaTaggingStore(TaggingStore):
    """Tagging store whose hot lookups run over the arena arrays.

    ``taggers_sorted`` / ``tag_frequency`` / ``items_for_tag`` — the paths
    every query touches — are answered from the endorser CSR without
    building any Python dict.  Everything else (per-user profiles, holdout
    splitting, iteration) replays the stored actions into the regular
    in-memory store on first use.

    **Mutations** (live updates adding actions) land in a small in-memory
    :class:`TaggingStore` **delta**; reads merge the frozen arrays with the
    delta (the two sides are disjoint by deduplication, so counts add and
    sorted segments merge).  While the delta is empty every hot path is the
    pure zero-copy array read; :meth:`compact` folds the delta back into
    fresh frozen arrays.  The all-or-nothing handover of earlier revisions
    — first ``add`` replayed the whole log and retired the arrays — is
    gone: an update-heavy workload keeps its array-speed reads.

    Mutations, cold-path materialisation and delta-merged reads are
    serialised by one re-entrant lock; the delta-empty fast path is
    lock-free (it touches only the frozen state holder, which compaction
    swaps atomically).
    """

    def __init__(self, endorsers: EndorserIndex, tag_table: Sequence[str],
                 user_ids: np.ndarray, item_ids: np.ndarray,
                 tag_ids: np.ndarray, timestamps: np.ndarray) -> None:
        super().__init__()
        self._state = _TaggingState(list(tag_table), user_ids, item_ids,  # guarded-by: _lock
                                    tag_ids, timestamps, endorsers.snapshot())
        self._delta = TaggingStore()  # guarded-by: _lock
        self._delta_len = 0  # guarded-by: _lock
        self._materialised = False  # guarded-by: _lock
        self._lock = threading.RLock()

    # -- mutation: the delta overlay absorbs new actions ---------------- #

    def add(self, action: TaggingAction) -> bool:
        with self._lock:
            if self.contains(action.user_id, action.item_id, action.tag):
                return False
            self._delta.add(action)
            if self._materialised:
                # Keep the cold-path store in sync so materialised reads
                # (profiles, holdout splits) see the delta too.
                super().add(action)
            self._delta_len += 1
            return True

    @property
    def delta_size(self) -> int:
        """Number of delta actions pending compaction."""
        return self._delta_len

    def stage_compact(self, endorsers: EndorserIndex
                      ) -> Optional[Tuple[_TaggingState, int]]:
        """Build the next epoch's frozen state without mutating anything.

        ``endorsers`` must be the live endorser index *after* incremental
        maintenance folded the same delta into it (the normal state when
        every mutation goes through
        :class:`~repro.storage.updates.DatasetUpdater`); its snapshot
        becomes the next epoch's base.  Returns ``None`` when the delta is
        empty, else ``(state, folded)`` for :meth:`commit_compact`.  All
        validation and allocation happens here; an exception leaves the
        store byte-for-byte on its old epoch.  Stage and commit must run
        under the same writer lock (the updater's mutate lock) so no add
        lands between them.
        """
        with self._lock:
            if not self._delta_len:
                return None
            state = self._state
            if endorsers.num_entries() != len(state) + self._delta_len:
                raise StorageError(
                    "refusing to compact the arena tagging store: the "
                    "endorser index does not reflect the delta (mutations "
                    "must go through DatasetUpdater)")
            tag_table = list(state.tag_table)
            tag_ids = {tag: index for index, tag in enumerate(tag_table)}
            for tag in self._delta.tags():
                if tag not in tag_ids:
                    tag_ids[tag] = len(tag_table)
                    tag_table.append(tag)
            columns = self.action_arrays(tag_ids)
            staged = _TaggingState(
                tag_table, columns["user_ids"], columns["item_ids"],
                columns["tag_ids"], columns["timestamps"],
                endorsers.snapshot(),
            )
            return staged, self._delta_len

    def commit_compact(self, staged: Optional[Tuple[_TaggingState, int]]
                       ) -> int:
        """Install a staged epoch; pure attribute swaps that cannot raise.

        The swap is a single attribute store, so lock-free fast-path
        readers see either the old epoch (and a non-empty delta) or the
        new one — never a mix.  Returns the number of actions folded.
        """
        if staged is None:
            return 0
        state, folded = staged
        with self._lock:
            self._state = state
            self._delta_len = 0
            self._delta = TaggingStore()
            return folded

    def compact(self, endorsers: EndorserIndex) -> int:
        """Fold the delta into fresh arrays (stage + commit in one step)."""
        return self.commit_compact(self.stage_compact(endorsers))

    def action_arrays(self, tag_ids: Mapping[str, int]
                      ) -> Dict[str, np.ndarray]:
        """The frozen log's columns plus the delta's, without materialising.

        Row order is :meth:`actions` order (frozen rows, then the delta in
        insertion order); ``state.tags`` is re-interned through ``tag_ids``
        with one table lookup per distinct tag.
        """
        with self._lock:
            state = self._state
            remap = np.array([tag_ids[tag] for tag in state.tag_table],
                             dtype=np.int64)
            delta = self._delta.action_arrays(tag_ids)
            return {
                "user_ids": np.concatenate([state.users, delta["user_ids"]]),
                "item_ids": np.concatenate([state.items, delta["item_ids"]]),
                "tag_ids": np.concatenate([remap[state.tags],
                                           delta["tag_ids"]]),
                "timestamps": np.concatenate([state.timestamps,
                                              delta["timestamps"]]),
            }

    # -- array-served hot paths (delta-merged) -------------------------- #
    #
    # Read discipline: check ``_delta_len`` *before* capturing ``_state``.
    # A zero counter means any state captured afterwards already contains
    # every compacted delta; a non-zero counter routes through the lock,
    # where compaction cannot run concurrently.  (The 0 -> 1 transition of
    # an in-flight ``add`` simply linearises the read before the update.)

    def __len__(self) -> int:
        if not self._delta_len:
            return len(self._state)
        with self._lock:
            return len(self._state) + self._delta_len

    def num_distinct_triples(self) -> int:
        # The arena stores the deduplicated action log and the delta only
        # accepts unseen triples, so every row is a distinct triple.
        return len(self)

    def tags(self) -> List[str]:
        if not self._delta_len:
            # Compaction appends new tags to the id table; re-sort on read.
            return sorted(self._state.tag_table)
        with self._lock:
            return sorted(set(self._state.tag_table) | set(self._delta.tags()))

    def taggers_sorted(self, item_id: int, tag: str) -> Sequence[int]:
        if not self._delta_len:
            return self._state.segment(item_id, tag)
        with self._lock:
            return merge_sorted_disjoint(
                self._state.segment(item_id, tag),
                self._delta.taggers_sorted(item_id, tag))

    def taggers(self, item_id: int, tag: str) -> FrozenSet[int]:
        return frozenset(int(u) for u in self.taggers_sorted(item_id, tag))

    def tag_frequency(self, item_id: int, tag: str) -> int:
        if not self._delta_len:
            return int(self._state.segment(item_id, tag).shape[0])
        with self._lock:
            return int(self._state.segment(item_id, tag).shape[0]) \
                + self._delta.tag_frequency(item_id, tag)

    def _base_items_for_tag(self, tag: str) -> FrozenSet[int]:
        bundle = self._state.bundles.get(tag)
        if bundle is None:
            return frozenset()
        return frozenset(int(i) for i in bundle.item_ids)

    def items_for_tag(self, tag: str) -> FrozenSet[int]:
        if not self._delta_len:
            return self._base_items_for_tag(tag)
        with self._lock:
            return self._base_items_for_tag(tag) | self._delta.items_for_tag(tag)

    def contains(self, user_id: int, item_id: int, tag: str) -> bool:
        if self._delta_len:
            with self._lock:
                if self._delta.contains(user_id, item_id, tag):
                    return True
        segment = self._state.segment(item_id, tag)
        position = int(np.searchsorted(segment, user_id))
        return position < segment.shape[0] and int(segment[position]) == user_id

    def _base_popularity(self) -> Dict[str, int]:
        state = self._state
        counts = np.bincount(state.tags, minlength=len(state.tag_table))
        return {tag: int(counts[index])
                for index, tag in enumerate(state.tag_table)}

    def tag_popularity(self) -> Dict[str, int]:
        if not self._delta_len:
            return self._base_popularity()
        with self._lock:
            popularity = self._base_popularity()
            for tag, count in self._delta.tag_popularity().items():
                popularity[tag] = popularity.get(tag, 0) + count
            return popularity

    def action_histograms(self, num_users: int
                          ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """``(tag_table, activity, popularity)`` from the mapped arrays.

        ``np.bincount`` over the frozen action log plus a dict merge of the
        delta overlay: no per-user Python structures and no
        materialisation, so sampling a workload from a 100k-user arena
        stays array-speed.  Output follows the shared histogram contract
        (sorted tags, ``float64`` counts), so it is bit-identical to the
        in-memory store's answer for the same actions.
        """
        with self._lock:
            state = self._state
            activity = np.bincount(state.users,
                                   minlength=num_users).astype(np.float64)
            base_counts = np.bincount(state.tags,
                                      minlength=len(state.tag_table))
            counts: Dict[str, int] = {
                tag: int(base_counts[index])
                for index, tag in enumerate(state.tag_table)
            }
            if self._delta_len:
                for tag, count in self._delta.tag_popularity().items():
                    counts[tag] = counts.get(tag, 0) + count
                _, delta_activity, _ = self._delta.action_histograms(num_users)
                if delta_activity.shape[0] < activity.shape[0]:
                    delta_activity = np.concatenate([
                        delta_activity,
                        np.zeros(activity.shape[0] - delta_activity.shape[0],
                                 dtype=np.float64),
                    ])
                activity = activity + delta_activity
        tag_table = sorted(counts)
        popularity = np.array([float(counts[tag]) for tag in tag_table],
                              dtype=np.float64)
        return tag_table, activity, popularity

    # -- cold paths: replay into the in-memory store -------------------- #

    def _materialise(self) -> None:  # lock-held: _lock
        if self._materialised:
            return
        state = self._state
        for position in range(len(state)):
            # super().add keeps the secondary hash indexes consistent and
            # re-interns the tag strings.
            super().add(TaggingAction(
                user_id=int(state.users[position]),
                item_id=int(state.items[position]),
                tag=state.tag_table[int(state.tags[position])],
                timestamp=int(state.timestamps[position]),
            ))
        for action in self._delta.actions():
            super().add(action)
        self._materialised = True

    def actions(self) -> List[TaggingAction]:
        with self._lock:
            self._materialise()
            return super().actions()

    def __iter__(self) -> Iterator[TaggingAction]:
        with self._lock:
            self._materialise()
            return super().__iter__()

    def items_for_user_tag(self, user_id: int, tag: str) -> FrozenSet[int]:
        with self._lock:
            self._materialise()
            return super().items_for_user_tag(user_id, tag)

    def items_for_user(self, user_id: int) -> FrozenSet[int]:
        with self._lock:
            self._materialise()
            return super().items_for_user(user_id)

    def tags_for_user(self, user_id: int) -> Dict[str, int]:
        with self._lock:
            self._materialise()
            return super().tags_for_user(user_id)

    def users(self) -> List[int]:
        with self._lock:
            self._materialise()
            return super().users()

    def items(self) -> List[int]:
        with self._lock:
            self._materialise()
            return super().items()

    def activity(self, user_id: int) -> int:
        with self._lock:
            self._materialise()
            return super().activity(user_id)

    def filter(self, predicate) -> TaggingStore:
        with self._lock:
            self._materialise()
            return super().filter(predicate)

    def split_holdout(self, fraction: float, seed: int = 0
                      ) -> Tuple[TaggingStore, TaggingStore]:
        with self._lock:
            self._materialise()
            return super().split_holdout(fraction, seed=seed)


# --------------------------------------------------------------------- #
# Loading a dataset back
# --------------------------------------------------------------------- #

def _load_endorser_index(arena: Arena, tags: Sequence[str]) -> EndorserIndex:
    item_offsets = arena.array("endorser.item_offsets")
    item_ids = arena.array("endorser.item_ids")
    frequencies = arena.array("endorser.frequencies")
    segment_offsets = arena.array("endorser.segment_offsets")
    taggers = arena.array("endorser.taggers")
    index = EndorserIndex()
    for position, tag in enumerate(tags):
        start = int(item_offsets[position])
        end = int(item_offsets[position + 1])
        if start == end:
            continue
        base = int(segment_offsets[start])
        local_offsets = np.asarray(segment_offsets[start:end + 1]) - base
        index._tags[tag] = TagEndorsers(
            tag=tag,
            item_ids=item_ids[start:end],
            frequencies=frequencies[start:end],
            offsets=local_offsets,
            taggers=taggers[base:int(segment_offsets[end])],
        )
    return index


def _load_inverted_index(arena: Arena, tags: Sequence[str],
                         endorsers: EndorserIndex) -> ArenaInvertedIndex:
    offsets = arena.array("inverted.offsets")
    item_ids = arena.array("inverted.item_ids")
    frequencies = arena.array("inverted.frequencies")
    index = ArenaInvertedIndex(endorsers)
    for position, tag in enumerate(tags):
        start = int(offsets[position])
        end = int(offsets[position + 1])
        postings = PostingList(item_ids[start:end], frequencies[start:end])
        index._lists[tag] = postings
        index._max_frequency[tag] = int(frequencies[start]) if end > start else 0
    return index


def _load_holdout(arena: Arena) -> Optional[TaggingStore]:
    if not arena.meta.get("has_holdout"):
        return None
    table = arena.meta.get("holdout_tags") or arena.meta["tags"]
    store = TaggingStore()
    user_ids = arena.array("holdout.user_ids")
    item_ids = arena.array("holdout.item_ids")
    tag_ids = arena.array("holdout.tag_ids")
    timestamps = arena.array("holdout.timestamps")
    for position in range(int(user_ids.shape[0])):
        store.add(TaggingAction(
            user_id=int(user_ids[position]),
            item_id=int(item_ids[position]),
            tag=str(table[int(tag_ids[position])]),
            timestamp=int(timestamps[position]),
        ))
    return store


def load_dataset_from_arena(source: Union[PathLike, Arena]) -> Dataset:
    """Reassemble a query-ready :class:`Dataset` from an arena (zero-copy)."""
    arena = source if isinstance(source, Arena) else Arena.open(source)
    meta = arena.meta
    tags = [str(tag) for tag in meta["tags"]]

    graph = SocialGraph(
        int(meta["num_users"]),
        arena.array("graph.offsets"),
        arena.array("graph.neighbours"),
        arena.array("graph.weights"),
    )
    endorsers = _load_endorser_index(arena, tags)
    inverted = _load_inverted_index(arena, tags, endorsers)
    social = ArenaSocialIndex(
        tags,
        arena.array("social.user_offsets"),
        arena.array("social.user_ids"),
        arena.array("social.segment_offsets"),
        arena.array("social.item_ids"),
    )
    tagging = ArenaTaggingStore(
        endorsers, tags,
        arena.array("actions.user_ids"),
        arena.array("actions.item_ids"),
        arena.array("actions.tag_ids"),
        arena.array("actions.timestamps"),
    )
    users = UserStore()
    users.add_many(User.from_dict(record) for record in meta.get("users", []))
    items = ItemStore()
    items.add_many(Item.from_dict(record) for record in meta.get("items", []))
    return Dataset(
        name=str(meta.get("name", "arena")),
        graph=graph,
        users=users,
        items=items,
        tagging=tagging,
        inverted_index=inverted,
        social_index=social,
        endorser_index=endorsers,
        holdout=_load_holdout(arena),
    )


# Re-exported niceties ------------------------------------------------- #

__all__ = [
    "Arena",
    "ArenaInvertedIndex",
    "ArenaSocialIndex",
    "ArenaTaggingStore",
    "build_arena",
    "load_dataset_from_arena",
    "write_arena",
]
