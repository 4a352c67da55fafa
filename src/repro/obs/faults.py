"""Fault-injection harness for the durable write path.

Durability claims ("an acknowledged update survives any crash") are only as
good as the crash schedule they were tested under, so the write path is
instrumented with **named injection points** — :func:`fault_point` calls at
every window where a kill or an I/O failure has a distinct observable
outcome.  Tests *arm* a point with an exception (or a callback) and drive
the write path until it fires; simulating the crash is then just
discarding every in-memory object and re-opening the durable directory,
exactly what a restarted process would do.  The kill matrix in
``tests/property/test_crash_recovery.py`` covers every point below, and
fails when a new point is added without it.

Design constraints, in order:

1. **Disarmed cost ~zero.**  The injection points are compiled into the
   production write path (that is the point — the tested code *is* the
   shipped code), so a disarmed :func:`fault_point` must be one module
   attribute read and a falsy check, the same discipline as
   :mod:`repro.obs.trace`'s disabled path.
2. **Kills are not exceptions.**  :class:`InjectedCrash` derives from
   :class:`BaseException`: nothing in the stack may accidentally swallow a
   simulated kill with a broad ``except Exception`` and carry on as if the
   process had survived.  I/O failures (a failing ``fsync``) are armed with
   ordinary ``OSError`` instead, because the write path is *supposed* to
   handle those.
3. **Deterministic schedules.**  A fault arms with ``after=N`` (skip the
   first N hits) and ``times=M`` (fire M times then disarm), so "kill at
   every record boundary" is a loop over ``after``.

Injection points on the write path (see the referencing modules):

========================== ====================================================
``wal.before_append``       before the record bytes reach the log file
``wal.after_append``        record written + synced, acknowledgement not yet
                            returned to the caller
``wal.fsync``               inside the fsync call (arm with ``OSError``)
``compact.stage``           delta fold staged, nothing committed yet
``compact.commit``          between the staged fold and the epoch advance
``publish.after_arena``     new arena generation on disk, manifest still old
``publish.before_manifest`` new WAL segment created, manifest swap pending
``arena.before_replace``    arena bytes in the ``.tmp`` file, final rename
                            pending
========================== ====================================================
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "FaultRegistry",
    "InjectedCrash",
    "InjectedFault",
    "armed",
    "fault_point",
    "faults",
    "tear_final_record",
]


class InjectedCrash(BaseException):
    """A simulated process kill raised by an armed injection point.

    Deliberately **not** an :class:`Exception`: recovery code under test
    must never catch-and-continue past a kill, and broad ``except
    Exception`` handlers in the serving stack must not turn a simulated
    crash into a handled error.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at fault point {point!r}")
        self.point = point


class InjectedFault(Exception):
    """A recoverable injected failure (the default non-crash payload)."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class _ArmedFault:
    """One armed injection point: what to raise/run and when."""

    __slots__ = ("point", "exc", "callback", "after", "times", "fired")

    def __init__(self, point: str, exc: Optional[BaseException],
                 callback: Optional[Callable[[str], None]],
                 after: int, times: int) -> None:
        self.point = point
        self.exc = exc
        self.callback = callback
        self.after = after
        self.times = times
        self.fired = 0


class FaultRegistry:
    """Registry of named injection points and the faults armed on them.

    The registry is process-global (:data:`faults`) so a test can arm a
    point without plumbing a handle through every layer, mirroring how a
    real chaos agent attaches to a running process.  All methods are
    thread-safe; :meth:`fire` itself raises *outside* the lock so an
    injected exception can never deadlock a re-entrant write path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: Dict[str, _ArmedFault] = {}  # guarded-by: _lock
        self._hits: Dict[str, int] = {}  # guarded-by: _lock
        #: Read lock-free by :func:`fault_point`: True only while at least
        #: one fault is armed, keeping the disarmed hot path to one check.
        self.active = False  # guarded-by: _lock

    # -- arming -------------------------------------------------------- #

    def arm(self, point: str, exc: Optional[BaseException] = None,
            callback: Optional[Callable[[str], None]] = None,
            after: int = 0, times: int = 1) -> None:
        """Arm ``point``: after ``after`` passes, fire ``times`` times.

        ``exc`` is raised at the call site (default: :class:`InjectedCrash`
        when no ``callback`` is given); ``callback`` runs instead of — or,
        when both are given, before — raising.  Negative ``after`` or
        non-positive ``times`` are rejected.
        """
        if after < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if exc is None and callback is None:
            exc = InjectedCrash(point)
        with self._lock:
            self._armed[point] = _ArmedFault(point, exc, callback, after, times)
            self.active = True

    def disarm(self, point: str) -> None:
        """Remove any fault armed on ``point`` (no-op when absent)."""
        with self._lock:
            self._armed.pop(point, None)
            self.active = bool(self._armed)

    def reset(self) -> None:
        """Disarm everything and zero the hit counters."""
        with self._lock:
            self._armed.clear()
            self._hits.clear()
            self.active = False

    # -- introspection -------------------------------------------------- #

    def hits(self, point: str) -> int:
        """How many times ``point`` was reached while any fault was armed."""
        with self._lock:
            return self._hits.get(point, 0)

    def armed_points(self) -> List[str]:
        """Names of the currently armed points (sorted)."""
        with self._lock:
            return sorted(self._armed)

    # -- the write path calls this -------------------------------------- #

    def fire(self, point: str) -> None:
        """Count a hit on ``point`` and fire its armed fault, if due."""
        to_raise: Optional[BaseException] = None
        callback: Optional[Callable[[str], None]] = None
        with self._lock:
            self._hits[point] = self._hits.get(point, 0) + 1
            fault = self._armed.get(point)
            if fault is None:
                return
            if fault.after > 0:
                fault.after -= 1
                return
            fault.fired += 1
            if fault.fired >= fault.times:
                self._armed.pop(point, None)
                self.active = bool(self._armed)
            callback = fault.callback
            to_raise = fault.exc
        if callback is not None:
            callback(point)
        if to_raise is not None:
            raise to_raise


#: Process-global registry; tests arm points here, the write path fires them.
faults = FaultRegistry()


def fault_point(name: str) -> None:
    """Hit the named injection point (near-free while nothing is armed)."""
    if faults.active:
        faults.fire(name)


class armed:
    """Context manager arming one point and guaranteeing cleanup.

    ::

        with armed("wal.after_append"):
            with pytest.raises(InjectedCrash):
                updater.add_actions([...])
    """

    def __init__(self, point: str, exc: Optional[BaseException] = None,
                 callback: Optional[Callable[[str], None]] = None,
                 after: int = 0, times: int = 1) -> None:
        self._point = point
        self._kwargs = dict(exc=exc, callback=callback, after=after,
                            times=times)

    def __enter__(self) -> "armed":
        faults.arm(self._point, **self._kwargs)  # type: ignore[arg-type]
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        faults.disarm(self._point)
        return False


def tear_final_record(path: Union[str, Path], keep_bytes: int = 3) -> int:
    """Corrupt a log file the way a mid-write power cut does.

    Truncates the file so that only ``keep_bytes`` bytes of its final
    record's on-disk footprint survive — a *torn* record: the length
    prefix may be intact while the payload is short, or the prefix itself
    is cut.  Returns the number of bytes removed.  The file must hold at
    least one complete record (use plain truncation for the empty case).
    """
    from ..storage.wal import torn_tail_offset  # local: avoid import cycle

    path = Path(path)
    size = path.stat().st_size
    last_start = torn_tail_offset(path)
    new_size = min(size, last_start + max(0, keep_bytes))
    if new_size >= size:
        raise ValueError(
            f"cannot tear {path}: keep_bytes={keep_bytes} keeps the final "
            "record intact")
    with path.open("rb+") as handle:
        handle.truncate(new_size)
    return size - new_size
