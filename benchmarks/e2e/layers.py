"""In-process replay of a workload, one span per layer (the traced run).

Layer = module.  For every op the layers are called **innermost first** —
proximity row, plan, service (whose worker calls the engine), serialise —
so that each later call finds the earlier result cached and its span covers
one layer only.  Where one layer calls the next on its own (the service
calls ``engine.run``, the updater calls the service's invalidation hook),
a thin proxy written here opens the child span, and the parent's self time
is what the parent layer itself cost.

The replay runs against its own freshly initialised durable store with the
server's default engine and service settings, except that background
compaction is off: compaction and checkpoint are called once, explicitly,
after the ops, again innermost first.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

from repro.config import DurabilityConfig, ServiceConfig
from repro.core.engine import SocialSearchEngine
from repro.core.query import Query
from repro.service import QueryService
from repro.storage.durable import DurableStore
from repro.storage.tagging import TaggingAction

from spans import SpanRecorder


class SpanningEngine:
    """The engine, with ``run`` recorded as the service span's child."""

    def __init__(self, engine: SocialSearchEngine,
                 recorder: SpanRecorder) -> None:
        self._engine = engine
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._engine, name)

    def run(self, query: Query, algorithm=None):
        with self._recorder.span("core.run"):
            return self._engine.run(query, algorithm=algorithm)


class SpanningUpdater:
    """The updater, with every observer call recorded as ``service.on_update``."""

    def __init__(self, updater, recorder: SpanRecorder) -> None:
        self._updater = updater
        self._recorder = recorder
        self._wrapped: dict = {}

    def __getattr__(self, name: str):
        return getattr(self._updater, name)

    def subscribe(self, observer):
        def spanned(summary):
            with self._recorder.span("service.on_update"):
                observer(summary)
        self._wrapped[observer] = spanned
        self._updater.subscribe(spanned)
        return observer

    def unsubscribe(self, observer) -> None:
        self._updater.unsubscribe(self._wrapped.pop(observer, observer))


def to_query(body: dict) -> Tuple[Query, str]:
    """The ``(Query, algorithm)`` the HTTP layer would parse from ``body``."""
    return (Query(seeker=int(body["seeker"]), tags=tuple(body["tags"]),
                  k=int(body["k"])), body.get("algorithm") or None)


def replay_query(recorder: SpanRecorder, service, engine, body: dict,
                 op_id: int):
    """One query, layer by layer; returns the served result."""
    query, algorithm = to_query(body)
    with recorder.span("op.query", op_id=op_id):
        # A peek that is charged to no counter: is the row cached already?
        cached = engine.proximity.frontier_bound(query.seeker) is not None
        with recorder.span("proximity.cached" if cached else "proximity.row"):
            # What QueryService.warm_proximity does: ranked stream, then
            # the dense row derived from it.
            next(iter(engine.proximity.iter_ranked(query.seeker)), None)
            engine.proximity.vector_array(query.seeker)
        with recorder.span("plan.route"):
            engine.explain_plan(query, algorithm=algorithm)
        with recorder.span("service.miss", adopt=True) as span:
            served = service.serve(query, algorithm=algorithm)
        if served.outcome == "hit":
            if span is not None:
                span.name = "service.hit"
        else:
            with recorder.span("service.hit"):
                served = service.serve(query, algorithm=algorithm)
        with recorder.span("http_api.serialise"):
            response = served.result.to_dict()
            response["outcome"] = served.outcome
            response["service_latency_seconds"] = served.latency_seconds
            json.dumps(response).encode("utf-8")
    return served


def replay_update(recorder: SpanRecorder, wal, updater, body: dict,
                  op_id: int) -> None:
    """One update: the WAL append, then the apply with the WAL detached."""
    actions = [TaggingAction.from_dict(entry) for entry in body["actions"]]
    friendships = [(int(u), int(v), float(w))
                   for u, v, w in body.get("friendships") or []]
    name = "updates.apply_friendship" if friendships else "updates.apply_actions"
    with recorder.span("op.update", op_id=op_id):
        with recorder.span("wal.append"):
            wal.append_actions(actions)
        with recorder.span(name):
            updater.apply(actions=actions, friendships=friendships or None)


@dataclass
class Target:
    """The program under replay: one store and the layers built on it."""

    store: DurableStore
    engine: SocialSearchEngine
    service: QueryService
    updater: SpanningUpdater
    wal: object


@contextmanager
def opened(dataset, directory: Path,
           recorder: SpanRecorder) -> Iterator[Target]:
    """A fresh durable store with the server's engine and service on it."""
    store = DurableStore.initialise(
        dataset, directory,
        config=DurabilityConfig(directory=str(directory), wal_fsync="always"))
    engine = SocialSearchEngine(store.dataset)
    service = QueryService(SpanningEngine(engine, recorder),
                           ServiceConfig(compact_threshold=0))
    try:
        wal = store.wal
        store.updater.attach_wal(None)
        updater = SpanningUpdater(store.updater, recorder)
        service.watch(updater)
        yield Target(store, engine, service, updater, wal)
    finally:
        service.close()
        store.close()


def replay_ops(target: Target, recorder: SpanRecorder, warmup: Sequence[dict],
               reads: Sequence[dict], rounds: Sequence[Tuple[dict, dict]]
               ) -> Tuple[float, List]:
    """Replay the ops; ``(wall seconds, served results of ``reads``)``.

    Op ids count up through ``warmup``, then ``reads``, then two per round
    (the update, then its read-back).
    """
    started = time.perf_counter()
    served = []
    for op_id, body in enumerate(list(warmup) + list(reads)):
        result = replay_query(recorder, target.service, target.engine, body,
                              op_id)
        if op_id >= len(warmup):
            served.append(result)
    first = len(warmup) + len(reads)
    for number, (update, read) in enumerate(rounds):
        replay_update(recorder, target.wal, target.updater, update,
                      first + 2 * number)
        replay_query(recorder, target.service, target.engine, read,
                     first + 2 * number + 1)
    return time.perf_counter() - started, served


def replay_checkpoint(target: Target, recorder: SpanRecorder) -> None:
    """Fold the delta, then publish a generation: innermost first again."""
    with recorder.span("updates.compact"):
        target.store.updater.compact()
    with recorder.span("durable.checkpoint"):
        target.store.checkpoint(force=True)
