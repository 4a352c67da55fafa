"""Durable store: atomic arena generations + WAL-based crash recovery.

This module ties the two durability primitives together into the on-disk
layout a durable deployment actually runs on:

* :mod:`repro.storage.arena` provides the frozen, memory-mapped snapshot
  format (now written atomically via ``.tmp`` + ``os.replace``);
* :mod:`repro.storage.wal` provides the append-only log of every update
  acknowledged since that snapshot.

A durable directory holds **generations**::

    MANIFEST.json        <- names the current generation (atomic swap point)
    gen-<n>.arena        <- arena snapshot of generation n
    wal-<n>.log          <- updates acknowledged after gen-<n> was built

The manifest is the single source of truth.  It is replaced atomically
(tmp + fsync + ``os.replace``), so every crash window resolves cleanly:

* *before* the manifest swap, the old manifest still names the old arena
  and the old WAL — which together hold every acknowledged update; any
  half-published ``gen-<n+1>`` / ``wal-<n+1>`` files are unreferenced
  strays that recovery garbage-collects;
* *after* the swap, the new generation's arena already contains every
  update the old WAL held (the checkpoint runs under the updater's mutate
  lock, so nothing can be acknowledged into the old segment once the new
  arena is built), and the old files are strays.

A half-written generation is therefore **never visible**: readers open
whatever complete arena the manifest names, and in-process queries are
untouched by a checkpoint entirely — they keep reading the live dataset,
whose delta-fold swap is value-identical by construction.

Crash recovery (:meth:`DurableStore.open`) is *replay to epoch*: open the
manifest's arena, then re-apply the WAL records through the exact same
incremental :class:`~repro.storage.updates.DatasetUpdater` path that
acknowledged them originally, tolerating (and truncating) a torn final
record.  Replay runs with the WAL detached — the records are already
durable — and the log is only re-attached for new appends afterwards.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..config import DurabilityConfig
from ..errors import PersistenceError
from ..obs.faults import fault_point
from ..obs.metrics import get_registry
from ..obs.trace import span as obs_span
from .arena import _fsync_directory, build_arena, load_dataset_from_arena
from .dataset import Dataset
from .updates import DatasetUpdater
from .wal import WAL_MAGIC, WriteAheadLog, scan_wal, truncate_torn_tail

PathLike = Union[str, Path]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-durable"
MANIFEST_VERSION = 1

_GENERATION_FILE = re.compile(r"^(gen|wal)-(\d+)\.(arena|log)(\.tmp)?$")


def read_manifest(directory: PathLike) -> Dict[str, object]:
    """Parse and validate ``MANIFEST.json``; raises when absent/invalid."""
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PersistenceError(
            f"{path} not found: not an initialised durable store "
            "(use DurableStore.initialise)") from None
    except (OSError, ValueError) as exc:
        raise PersistenceError(f"failed to read manifest {path}: {exc}") from exc
    if manifest.get("format") != MANIFEST_FORMAT:
        raise PersistenceError(f"{path}: not a durable-store manifest")
    for key in ("generation", "arena", "wal", "epoch"):
        if key not in manifest:
            raise PersistenceError(f"{path}: manifest is missing {key!r}")
    return manifest


def write_manifest(directory: PathLike, manifest: Dict[str, object]) -> Path:
    """Atomically publish a manifest (tmp + fsync + ``os.replace``)."""
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    tmp = directory / (MANIFEST_NAME + ".tmp")
    encoded = json.dumps(manifest, indent=2, sort_keys=True)
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(encoded)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(directory)
    return path


@dataclass
class RecoveryReport:
    """What one :meth:`DurableStore.open` replay actually did."""

    generation: int = 0
    epoch: int = 0
    records_replayed: int = 0
    actions_replayed: int = 0
    edges_replayed: int = 0
    users_replayed: int = 0
    items_replayed: int = 0
    epoch_markers: int = 0
    torn_tail_bytes: int = 0
    strays_removed: List[str] = field(default_factory=list)
    duration_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view for ``repro recover`` output and stats()."""
        return {
            "generation": self.generation,
            "epoch": self.epoch,
            "records_replayed": self.records_replayed,
            "actions_replayed": self.actions_replayed,
            "edges_replayed": self.edges_replayed,
            "users_replayed": self.users_replayed,
            "items_replayed": self.items_replayed,
            "epoch_markers": self.epoch_markers,
            "torn_tail_bytes": self.torn_tail_bytes,
            "strays_removed": list(self.strays_removed),
            "duration_seconds": self.duration_seconds,
        }


class DurableStore:
    """A dataset whose acknowledged updates survive crashes.

    Construct via :meth:`initialise` (bootstrap a directory from a built
    dataset) or :meth:`open` (recover after a restart or crash); both
    return a store whose :attr:`updater` has the WAL attached, so every
    update flowing through it is logged before it is acknowledged.
    """

    def __init__(self, directory: Path, config: DurabilityConfig,
                 manifest: Dict[str, object], dataset: Dataset,
                 updater: DatasetUpdater, wal: WriteAheadLog,
                 recovery: RecoveryReport) -> None:
        self.directory = directory
        self.config = config
        self.manifest = manifest
        self.dataset = dataset
        self.updater = updater
        self.recovery = recovery
        self._wal = wal
        self._closed = False
        self.checkpoints = 0
        self.generations_gcd = 0
        registry = get_registry()
        self._published_metric = registry.counter(
            "durable_generations_published_total",
            "Arena generations atomically published.")
        self._gc_metric = registry.counter(
            "durable_generations_gc_total",
            "Superseded generation files garbage-collected.")
        self._checkpoint_histogram = registry.histogram(
            "durable_checkpoint_seconds",
            "End-to-end latency of durable checkpoints.")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def initialise(cls, dataset: Dataset, directory: PathLike,
                   config: Optional[DurabilityConfig] = None,
                   proximity=None) -> "DurableStore":
        """Bootstrap a durable directory from a built dataset.

        Writes ``gen-0.arena``, an empty ``wal-0.log`` and the manifest,
        then opens the store normally (so the returned dataset is the
        memory-mapped arena view, identical to what a recovery would
        serve).  Refuses to overwrite an existing store.
        """
        directory = Path(directory)
        if (directory / MANIFEST_NAME).exists():
            raise PersistenceError(
                f"{directory} already holds a durable store; "
                "open it instead of initialising")
        directory.mkdir(parents=True, exist_ok=True)
        config = config or DurabilityConfig(directory=str(directory))
        build_arena(dataset, directory / "gen-0.arena", proximity)
        WriteAheadLog(directory / "wal-0.log", fsync="always").close()
        write_manifest(directory, {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "generation": 0,
            "arena": "gen-0.arena",
            "wal": "wal-0.log",
            "epoch": 0,
        })
        return cls.open(directory, config=config)

    @classmethod
    def open(cls, directory: PathLike,
             config: Optional[DurabilityConfig] = None) -> "DurableStore":
        """Open (and if needed crash-recover) a durable directory.

        This *is* the recovery path — a clean shutdown is just the case
        where the WAL replay has nothing torn.  The manifest's arena is
        memory-mapped, its WAL segment replayed record by record through
        the incremental update path (WAL detached, so nothing is
        re-appended), a torn final record is truncated, and unreferenced
        generation files from interrupted checkpoints are removed.
        """
        directory = Path(directory)
        config = config or DurabilityConfig(directory=str(directory))
        manifest = read_manifest(directory)
        report = RecoveryReport(generation=int(manifest["generation"]))
        started = time.perf_counter()
        registry = get_registry()
        with obs_span("durable.recover", directory=str(directory),
                      generation=report.generation) as recover_span:
            arena_path = directory / str(manifest["arena"])
            wal_path = directory / str(manifest["wal"])
            dataset = load_dataset_from_arena(arena_path)
            updater = DatasetUpdater(dataset)
            scan = scan_wal(wal_path)
            if scan.torn:
                report.torn_tail_bytes = truncate_torn_tail(wal_path)
            for record in scan.records:
                if record.kind == "actions":
                    actions = record.actions()
                    updater.add_actions(actions)
                    report.actions_replayed += len(actions)
                elif record.kind == "friendships":
                    edges = record.friendships()
                    updater.add_friendships(edges)
                    report.edges_replayed += len(edges)
                elif record.kind == "users":
                    count = int(record.payload.get("count", 0))
                    updater.add_users(count)
                    report.users_replayed += count
                elif record.kind == "items":
                    items = record.items()
                    updater.add_items(items)
                    report.items_replayed += len(items)
                elif record.kind == "epoch":
                    report.epoch_markers += 1
                report.records_replayed += 1
            # Epoch continuity: the manifest records the updater epoch at
            # publish; every marker replayed is one compaction since.
            report.epoch = int(manifest["epoch"]) + report.epoch_markers
            updater.restore_epoch(report.epoch)
            wal = WriteAheadLog(
                wal_path, fsync=config.wal_fsync,
                fsync_interval_seconds=config.wal_fsync_interval_seconds)
            updater.attach_wal(wal)
            report.duration_seconds = time.perf_counter() - started
            recover_span.set(records=report.records_replayed,
                             torn_bytes=report.torn_tail_bytes)
        registry.histogram(
            "durable_replay_seconds",
            "WAL replay duration during recovery.").observe(
                report.duration_seconds)
        registry.counter(
            "durable_records_replayed_total",
            "WAL records replayed during recovery.").inc(
                report.records_replayed)
        store = cls(directory, config, manifest, dataset, updater, wal,
                    report)
        report.strays_removed = store.gc()
        return store

    # ------------------------------------------------------------------ #
    # Checkpointing: publish a new generation atomically
    # ------------------------------------------------------------------ #

    def checkpoint(self, proximity=None, force: bool = False
                   ) -> Dict[str, object]:
        """Compact, publish a fresh arena generation and rotate the WAL.

        Runs under the updater's mutate lock end to end: writers block for
        the duration (readers do not — in-process queries keep using the
        live dataset, and the fold they race is value-identical), and no
        update can be acknowledged into the *old* WAL segment after the
        new arena was built, which is what makes the manifest swap safe.

        Returns a summary dict; ``published`` is ``False`` when there was
        nothing to checkpoint (no pending delta and an empty WAL segment)
        and ``force`` was not set.
        """
        if self._closed:
            raise PersistenceError("checkpoint on a closed durable store")
        started = time.perf_counter()
        with self.updater.mutate_lock, obs_span(
                "durable.publish",
                generation=int(self.manifest["generation"])) as publish_span:
            pending = self.updater.pending_delta()
            segment_dirty = self._wal.path.stat().st_size > len(WAL_MAGIC)
            if not force and not pending and not segment_dirty:
                return {"published": False,
                        "generation": int(self.manifest["generation"]),
                        "folded": 0}
            folded = self.updater.compact()
            generation = int(self.manifest["generation"]) + 1
            arena_name = f"gen-{generation}.arena"
            wal_name = f"wal-{generation}.log"
            build_arena(self.dataset, self.directory / arena_name, proximity)
            fault_point("publish.after_arena")
            new_wal = WriteAheadLog(
                self.directory / wal_name, fsync=self.config.wal_fsync,
                fsync_interval_seconds=self.config.wal_fsync_interval_seconds)
            try:
                fault_point("publish.before_manifest")
                manifest = {
                    "format": MANIFEST_FORMAT,
                    "version": MANIFEST_VERSION,
                    "generation": generation,
                    "arena": arena_name,
                    "wal": wal_name,
                    "epoch": self.updater.epoch,
                }
                write_manifest(self.directory, manifest)
            except BaseException:
                # Crash or failure before the swap: the old manifest still
                # names the old arena + full old WAL, so nothing acked is
                # lost; drop the unpublished segment handle and leave its
                # file as a stray for gc().
                new_wal.close()
                raise
            # The swap is published; everything below is post-commit.
            old_wal = self._wal
            self._wal = new_wal
            self.updater.attach_wal(new_wal)
            self.manifest = manifest
            old_wal.close()
            self.checkpoints += 1
            self._published_metric.inc()
            publish_span.set(new_generation=generation, folded=folded)
        removed = self.gc()
        duration = time.perf_counter() - started
        self._checkpoint_histogram.observe(duration)
        return {"published": True, "generation": generation,
                "folded": folded, "gc_removed": removed,
                "duration_seconds": duration}

    def gc(self) -> List[str]:
        """Remove generation files the manifest no longer references.

        Keeps the current generation plus ``config.keep_generations``
        predecessors; deletes older arenas, consumed WAL segments, strays
        from interrupted checkpoints (files *newer* than the manifest) and
        leftover ``.tmp`` files.  Returns the removed file names.
        """
        current = int(self.manifest["generation"])
        keep_from = current - self.config.keep_generations
        removed: List[str] = []
        for entry in sorted(self.directory.iterdir()):
            match = _GENERATION_FILE.match(entry.name)
            if match is None:
                continue
            if match.group(4):  # a .tmp stray from an interrupted write
                pass
            else:
                number = int(match.group(2))
                if keep_from <= number <= current:
                    continue
            try:
                entry.unlink()
                removed.append(entry.name)
            except OSError:
                continue
        if removed:
            self.generations_gcd += len(removed)
            self._gc_metric.inc(len(removed))
            _fsync_directory(self.directory)
        return removed

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #

    @property
    def wal(self) -> WriteAheadLog:
        """The live WAL segment."""
        return self._wal

    @property
    def generation(self) -> int:
        """The currently published generation number."""
        return int(self.manifest["generation"])

    def stats(self) -> Dict[str, object]:
        """Durability block for ``QueryService.stats()`` / ``/stats``."""
        return {
            "directory": str(self.directory),
            "generation": self.generation,
            "epoch": self.updater.epoch,
            "checkpoints": self.checkpoints,
            "generations_gcd": self.generations_gcd,
            "wal": self._wal.stats(),
            "recovery": self.recovery.to_dict(),
        }

    def close(self) -> None:
        """Sync and close the WAL (idempotent); the store stays readable."""
        if self._closed:
            return
        self._closed = True
        self.updater.attach_wal(None)
        self._wal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = [
    "MANIFEST_NAME",
    "DurableStore",
    "RecoveryReport",
    "read_manifest",
    "write_manifest",
]
