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

The derived indexes and the tagging store load into the same classes an
in-memory build makes (:class:`EndorserIndex`, :class:`InvertedIndex`,
:class:`SocialIndex`, :class:`TaggingStore`), with the mapped arrays as
their storage: the store answers every read from its columns, and no
path replays the log into Python dicts.

**Live updates** never invalidate the mapped arrays wholesale.  New
tagging actions land in the tagging store's append tail, merged endorser
bundles replace the touched tags' mapped ones, and new social-index rows
sit in the social index's overlay (see :mod:`repro.storage.delta`).  A
**compaction** step folds the tail and the overlay into fresh contiguous
arrays once the tail grows past a threshold
(:meth:`repro.storage.updates.DatasetUpdater.compact`); because a merged
read and a compacted read are value-identical, the swap is safe to run
concurrently with readers.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import PersistenceError
from ..graph import SocialGraph
from ..obs.faults import fault_point
from .dataset import Dataset
from .endorser_index import EndorserIndex, TagEndorsers
from .inverted_index import InvertedIndex, PostingList
from .items import Item, ItemStore
from .social_index import SocialIndex, _offsets_from_counts, _social_rows
from .tagging import TaggingStore
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
                         endorsers: EndorserIndex) -> InvertedIndex:
    offsets = arena.array("inverted.offsets")
    item_ids = arena.array("inverted.item_ids")
    frequencies = arena.array("inverted.frequencies")
    lists: Dict[str, PostingList] = {}
    for position, tag in enumerate(tags):
        start = int(offsets[position])
        end = int(offsets[position + 1])
        lists[tag] = PostingList(item_ids[start:end], frequencies[start:end])
    return InvertedIndex(endorsers, lists)


def _load_holdout(arena: Arena) -> Optional[TaggingStore]:
    if not arena.meta.get("has_holdout"):
        return None
    return TaggingStore(
        arena.meta.get("holdout_tags") or arena.meta["tags"],
        arena.array("holdout.user_ids"),
        arena.array("holdout.item_ids"),
        arena.array("holdout.tag_ids"),
        arena.array("holdout.timestamps"),
    )


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
    social = SocialIndex(
        tags,
        arena.array("social.user_offsets"),
        arena.array("social.user_ids"),
        arena.array("social.segment_offsets"),
        arena.array("social.item_ids"),
    )
    tagging = TaggingStore(
        tags,
        arena.array("actions.user_ids"),
        arena.array("actions.item_ids"),
        arena.array("actions.tag_ids"),
        arena.array("actions.timestamps"),
        endorsers=endorsers,
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
    "build_arena",
    "load_dataset_from_arena",
    "write_arena",
]
