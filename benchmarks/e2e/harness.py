"""One run of one workload against a real ``repro serve`` process.

Closed loop, one client, one connection: the callers of this service are a
web tier waiting for replies, and the host is effectively one CPU.  The
phases of a run, identical for every workload:

1. **set-up** — initialise the durable store from the generated corpus
   (3x, minimum), spawn the server until ``/health`` answers (3x, minimum),
   send the warm-up queries;
2. **reads** — the workload's cyclic query list for ``--seconds``
   (``mixed_rw`` has none);
3. **rounds** — ``POST /update`` then one read-back, a fixed count;
4. **kill-restart** — record ``num_actions`` and the verify answers,
   ``SIGKILL``, restart on the same directory, require both to match, then
   require an in-process engine over the recovered store to agree too.

The traced run (``--trace 1``) repeats set-up steps less, bounds the read
phase to the ops it then replays in-process (``layers.py``), and reports
layer metrics only; end-to-end numbers always come from a run with tracing
off.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DurabilityConfig
from repro.core.engine import SocialSearchEngine
from repro.storage.dataset import Dataset
from repro.storage.durable import DurableStore
from repro.workload import scaled_dataset

import layers
import ops
import stats
from server import Client, Server
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

USERS = 2000
SETUP_REPEATS = 3
TRACED_SETUP_REPEATS = 2  # one store stays clean for the cold-start probe
COLD_START_REPEATS = 5
#: Replies per read workload checked against an in-process engine.
CHECKED_REPLIES = 30
#: Ops of each kind that the traced run replays in-process.
REPLAY_READS = 150
REPLAY_ROUNDS = 60  # below the 64 rounds that trigger a server checkpoint
STALL_MS = 1000.0
#: A read phase goes on past ``--seconds`` until p90 has its ten samples
#: beyond it; only a host running at half its usual speed gets there.
MIN_READS = 110
#: Seeded think time before every request of a timed phase, uniform over one
#: kernel timer tick (HZ=250).  Without it a closed loop phase-locks to the
#: tick that fires the client's delayed ACK, every latency lands on a 4 ms
#: grid, and medians move in 5 % steps or not at all.
THINK_S = 0.004

Metric = Tuple[float, str, int]  # value, unit, samples behind it


@dataclass
class Report:
    """What one run prints."""

    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {why}", file=sys.stderr)

    def absorb(self, client: Client) -> None:
        self.attempted += client.attempted
        self.failed += client.failed
        client.close()


@dataclass
class Phase:
    """Client-side record of one phase."""

    wall: float = 0.0
    queries: List[Tuple[dict, float, Optional[dict], int]] = field(
        default_factory=list)  # body, latency ms, reply, reply bytes
    acks: List[float] = field(default_factory=list)

    @property
    def latencies(self) -> List[float]:
        return [latency for _, latency, _, _ in self.queries]


@dataclass
class Observed:
    """Everything a run observed; the metrics are computed from it."""

    dataset: object
    stream: ops.OpStream
    clean_store: Path
    arena: Dataset
    setup_s: float
    initialise_s: float
    generate_s: float
    attach_s: float
    read: Phase
    head: Phase  # the rounds the traced run replays (all, when untraced)
    rest: Phase
    stats: List[dict]  # /stats before reads, after reads, after head, at end
    cpu_s: float
    peak_rss_mb: float
    stored_bytes: int
    actions: int
    recovery: dict
    recover_s: float

    @property
    def wrote(self) -> Phase:
        """All rounds as one phase."""
        return Phase(self.head.wall + self.rest.wall,
                     self.head.queries + self.rest.queries,
                     self.head.acks + self.rest.acks)

    @property
    def main(self) -> Phase:
        """The phase whose queries are the workload's query metrics."""
        return self.read if self.stream.reads else self.wrote


def initialise_store(dataset, directory: Path) -> float:
    """Write ``dataset`` as a fresh durable store; seconds it took."""
    started = time.perf_counter()
    DurableStore.initialise(
        dataset, directory,
        config=DurabilityConfig(directory=str(directory),
                                wal_fsync="always")).close()
    return time.perf_counter() - started


def same_answer(reply: Optional[dict], result) -> bool:
    """Item ids equal and scores equal to 1e-9 (JSON carries them exactly)."""
    if reply is None:
        return False
    items = reply["items"]
    return (len(items) == len(result.items) and all(
        got["item_id"] == want.item_id
        and math.isclose(got["score"], want.score, rel_tol=1e-9, abs_tol=1e-12)
        for got, want in zip(items, result.items)))


def read_phase(client: Client, reads: Sequence[dict], seconds: float,
               max_ops: Optional[int], think: random.Random) -> Phase:
    """Cycle over ``reads`` for ``seconds`` (or ``max_ops``, if sooner)."""
    phase = Phase()
    started = time.perf_counter()
    deadline = started + seconds
    count = 0
    def more() -> bool:
        if max_ops is not None:
            return count < max_ops
        return time.perf_counter() < deadline or count < MIN_READS

    while reads and more():
        body = reads[count % len(reads)]
        time.sleep(think.random() * THINK_S)
        latency, reply, size = client.call("POST", "/query", body)
        phase.queries.append((body, latency, reply, size))
        count += 1
    phase.wall = time.perf_counter() - started
    return phase


def round_phase(client: Client, rounds: Sequence[Tuple[dict, dict]],
                report: Report, think: random.Random) -> Phase:
    """Every round: update, wait for the ack, read a just-written tag."""
    phase = Phase()
    started = time.perf_counter()
    for update, read in rounds:
        time.sleep(think.random() * THINK_S)
        latency, ack, _ = client.call("POST", "/update", update)
        phase.acks.append(latency)
        if ack is not None and (
                ack["actions_added"] != len(update["actions"])
                or ack["edges_added"] != len(update.get("friendships", ()))):
            report.fail(f"ack applied {ack['actions_added']} actions and "
                        f"{ack['edges_added']} edges of {update}")
        time.sleep(think.random() * THINK_S)
        latency, reply, size = client.call("POST", "/query", read)
        phase.queries.append((read, latency, reply, size))
    phase.wall = time.perf_counter() - started
    return phase


def observe(report: Report, seconds: float, workdir: Path,
            servers: List[Server]) -> Observed:
    """Set-up, the phases and the kill-restart check of one run."""
    traced, seed = report.traced, report.seed
    repeats = TRACED_SETUP_REPEATS if traced else SETUP_REPEATS

    # Inputs: corpus and op stream, both from the seed.
    started = time.perf_counter()
    dataset = scaled_dataset(USERS, seed)
    stream = ops.generate(report.workload, ops.Corpus.of(dataset), seed,
                          seconds)
    generate_s = time.perf_counter() - started
    initialises = []
    for attempt in range(repeats):
        directory = workdir / f"store-{attempt}"
        initialises.append(initialise_store(dataset, directory))
    split = REPLAY_ROUNDS if traced else len(stream.rounds)

    spawns = []
    for attempt in range(repeats):
        server = Server(directory, SRC)
        servers.append(server)
        spawns.append(server.wait_ready())
        if attempt < repeats - 1:
            server.stop()
    client = Client(server.port)
    started = time.perf_counter()
    for body in stream.warmup:
        client.call("POST", "/query", body)
    warmup_s = time.perf_counter() - started

    started = time.perf_counter()
    arena = Dataset.from_arena(directory / "gen-0.arena")
    attach_s = time.perf_counter() - started

    think = random.Random(seed)
    cpu_before = server.cpu_seconds()
    snapshots = [client.get("/stats")]
    read = read_phase(client, stream.reads, seconds,
                      REPLAY_READS if traced else None, think)
    snapshots.append(client.get("/stats"))
    head = round_phase(client, stream.rounds[:split], report, think)
    snapshots.append(client.get("/stats") if traced else snapshots[-1])
    rest = round_phase(client, stream.rounds[split:], report, think)
    snapshots.append(client.get("/stats"))
    cpu_s = server.cpu_seconds() - cpu_before

    # Kill-restart: an acked update that is lost is a failed operation.
    actions = dataset.num_actions + sum(
        len(update["actions"]) for update, _ in stream.rounds)
    held = client.get("/health")["num_actions"]
    if held != actions:
        report.fail(f"server holds {held} actions, {actions} were acked")
    stored_bytes = sum(entry.stat().st_size for entry in directory.iterdir())
    before_kill = [client.call("POST", "/query", body)[1]
                   for body in stream.verify]
    peak_rss_mb = server.peak_rss_mb()
    report.absorb(client)
    server.stop()
    server = Server(directory, SRC)
    servers.append(server)
    server.wait_ready()
    client = Client(server.port)
    if client.get("/health")["num_actions"] != actions:
        report.fail("acked actions lost across SIGKILL and restart")
    after_kill = [client.call("POST", "/query", body)[1]
                  for body in stream.verify]
    recovery = client.get("/stats")["durability"]["recovery"]
    report.absorb(client)
    server.stop()

    started = time.perf_counter()
    recovered = DurableStore.open(
        directory, config=DurabilityConfig(directory=str(directory)))
    recover_s = time.perf_counter() - started
    try:
        engine = SocialSearchEngine(recovered.dataset)
        for body, first, second in zip(stream.verify, before_kill, after_kill):
            query, algorithm = layers.to_query(body)
            want = engine.run(query, algorithm=algorithm)
            if not (same_answer(first, want) and same_answer(second, want)):
                report.fail(f"answer differs across the restart: {body}")
    finally:
        recovered.close()

    # Sampled replies of the read phase against an engine over the arena
    # the server started from (the round reads are covered just above).
    if read.queries:
        engine = SocialSearchEngine(arena)
        wanted: Dict[str, object] = {}
        picks = np.random.default_rng(seed).choice(
            len(read.queries), size=min(CHECKED_REPLIES, len(read.queries)),
            replace=False)
        for pick in picks:
            body, _, reply, _ = read.queries[int(pick)]
            key = json.dumps(body, sort_keys=True)
            if key not in wanted:
                query, algorithm = layers.to_query(body)
                wanted[key] = engine.run(query, algorithm=algorithm)
            if not same_answer(reply, wanted[key]):
                report.fail(f"reply differs from in-process engine: {body}")

    return Observed(
        dataset=dataset, stream=stream, clean_store=workdir / "store-0",
        arena=arena,
        setup_s=min(initialises) + min(spawns) + warmup_s,
        initialise_s=min(initialises),
        generate_s=generate_s, attach_s=attach_s, read=read, head=head,
        rest=rest, stats=snapshots, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
        stored_bytes=stored_bytes, actions=actions, recovery=recovery,
        recover_s=recover_s)


def end_to_end(report: Report, seen: Observed) -> None:
    """The metrics a client of the service would see (tracing off)."""
    main, wrote = seen.main, seen.wrote
    latencies = main.latencies
    report.put("setup_s", seen.setup_s, "s", SETUP_REPEATS)
    report.put("query_p50_ms", stats.median(latencies), "ms", len(latencies))
    report.put("query_p90_ms", stats.tail(latencies), "ms", len(latencies))
    report.put("throughput_qps", len(latencies) / main.wall, "1/s",
               len(latencies))
    report.put("update_ack_p50_ms", stats.median(wrote.acks), "ms",
               len(wrote.acks))
    report.put("update_throughput_ups", len(wrote.acks) / wrote.wall, "1/s",
               len(wrote.acks))
    report.put("peak_rss_mb", seen.peak_rss_mb, "MB")
    report.put("stored_bytes_per_action", seen.stored_bytes / seen.actions,
               "B", seen.actions)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _python_seconds(code: str) -> float:
    """Wall seconds of ``python -c code`` with the server's import path."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"})
    return time.perf_counter() - started


def server_layers(report: Report, seen: Observed) -> float:
    """Counts and times taken at the server's own boundaries.

    Counts are deltas of ``GET /stats`` around the phase they describe.
    Returns ``http_api.overhead_ms``.
    """
    before, after_reads, after_head, after = seen.stats
    answered = [(latency, reply, size)
                for _, latency, reply, size in seen.main.queries
                if reply is not None]
    overhead = stats.median([latency - reply["service_latency_seconds"] * 1e3
                             for latency, reply, _ in answered])
    report.put("http_api.overhead_ms", overhead, "ms", len(answered))
    report.put("http_api.response_bytes",
               sum(size for _, _, size in answered) / len(answered), "B",
               len(answered))
    report.put("core.accesses_per_query", sum(
        reply["accounting"]["sequential_accesses"]
        + reply["accounting"]["random_accesses"]
        + reply["accounting"]["social_accesses"]
        for _, reply, _ in answered) / len(answered), "count", len(answered))

    lo, hi = (before, after_reads) if seen.stream.reads else (after_reads,
                                                             after)

    def grew(block: str, key: str, start=lo, end=hi) -> float:
        return float(end[block][key]) - float(start[block][key])

    hits, misses = grew("result_cache", "hits"), grew("result_cache", "misses")
    report.put("service.cache_hit_rate", _ratio(hits, hits + misses), "ratio",
               int(hits + misses))
    rows, row_hits = (grew("proximity_cache", "misses"),
                      grew("proximity_cache", "hits"))
    report.put("proximity.cache_hit_rate", _ratio(row_hits, row_hits + rows),
               "ratio", int(row_hits + rows))
    report.put("proximity.rows_computed", rows, "count")
    report.put("plan.memo_hit_rate", _ratio(
        grew("plan", "route_memo_hits"), grew("plan", "route_lookups")),
        "ratio", int(grew("plan", "route_lookups")))

    updates = len(seen.wrote.acks)
    report.put("service.entries_invalidated_per_update", _ratio(
        grew("service", "entries_invalidated", after_reads, after), updates),
        "count", updates)
    # The head rounds end before the first checkpoint rotates the WAL, so
    # the segment's own counters cover exactly their updates.
    wal_lo, wal_hi = (after_reads["durability"]["wal"],
                      after_head["durability"]["wal"])
    written = sum(len(update["actions"])
                  for update, _ in seen.stream.rounds[:len(seen.head.acks)])
    report.put("wal.bytes_per_action", _ratio(
        wal_hi["bytes_appended"] - wal_lo["bytes_appended"], written), "B",
        written)
    report.put("wal.fsyncs_per_update", _ratio(
        wal_hi["fsyncs"] - wal_lo["fsyncs"], len(seen.head.acks)), "count",
        len(seen.head.acks))
    report.put("durable.checkpoints",
               grew("durability", "checkpoints", before, after), "count")
    report.put("durable.stall_s",
               sum(ack for ack in seen.wrote.acks if ack > STALL_MS) / 1e3, "s",
               updates)
    report.put("durable.recover_ms", seen.recover_s * 1e3, "ms")
    report.put("durable.records_replayed",
               seen.recovery["records_replayed"], "count")
    report.put("durable.initialise_s", seen.initialise_s, "s",
               TRACED_SETUP_REPEATS)
    operations = len(seen.read.queries) + 2 * updates
    report.put("process.cpu_ms_per_op", seen.cpu_s * 1e3 / operations, "ms",
               operations)
    report.put("arena.attach_ms", seen.attach_s * 1e3, "ms")
    report.put("arena.file_bytes",
               (seen.clean_store / "gen-0.arena").stat().st_size, "B")
    report.put("workload.generate_s", seen.generate_s, "s")
    return overhead


def process_layers(report: Report, seen: Observed,
                   servers: List[Server]) -> None:
    """Interpreter + import cost, and spawn -> first correct answer."""
    blank = min(_python_seconds("pass") for _ in range(SETUP_REPEATS))
    imported = min(_python_seconds("import repro.cli, repro.service.http_api")
                   for _ in range(SETUP_REPEATS))
    report.put("process.import_ms", (imported - blank) * 1e3, "ms",
               SETUP_REPEATS)
    body = seen.stream.verify[0]
    query, algorithm = layers.to_query(body)
    want = SocialSearchEngine(seen.arena).run(query, algorithm=algorithm)
    cold: List[float] = []
    for _ in range(COLD_START_REPEATS):
        server = Server(seen.clean_store, SRC)
        servers.append(server)
        server.wait_ready()
        client = Client(server.port)
        _, reply, _ = client.call("POST", "/query", body)
        cold.append((time.perf_counter() - server.spawned_at) * 1e3)
        if not same_answer(reply, want):
            report.fail("first answer after a cold start is wrong")
        report.absorb(client)
        server.stop()
    report.put("process.cold_start_ms", stats.median(cold), "ms", len(cold))


def replayed_layers(report: Report, seen: Observed, recorder: SpanRecorder,
                    workdir: Path, overhead_ms: float) -> None:
    """Replay the ops in-process, without spans and then with."""
    sent = [body for body, _, _, _ in seen.read.queries]
    rounds = seen.stream.rounds[:len(seen.head.acks)]
    quiet = SpanRecorder(enabled=False)
    with layers.opened(seen.dataset, workdir / "replay-plain", quiet) as target:
        plain_s, _ = layers.replay_ops(target, quiet, seen.stream.warmup, sent,
                                       rounds)
    with layers.opened(seen.dataset, workdir / "replay-traced",
                       recorder) as target:
        traced_s, served = layers.replay_ops(target, recorder,
                                             seen.stream.warmup, sent, rounds)
        layers.replay_checkpoint(target, recorder)
    for (body, _, reply, _), result in zip(seen.read.queries, served):
        if not same_answer(reply, result.result):
            report.fail(f"replayed answer differs from the server's: {body}")
    report.put("trace.overhead_ratio", traced_s / plain_s, "ratio")

    # Query layers are read from the workload's own queries: warm-up and
    # read phase, or for mixed_rw the read-backs.  Update layers are read
    # from every round.
    queries = len(seen.stream.warmup) + len(sent)
    own = range(queries) if sent else range(queries, queries + 2 * len(rounds))

    def layer(name: str, span_name: str, self_time: bool = False,
              op_ids: Optional[range] = None, scale: float = 1e3,
              unit: str = "ms") -> float:
        values = recorder.by_name(self_time, op_ids).get(span_name, [])
        value = stats.median(values) * scale if values else 0.0
        report.put(name, value, unit, len(values))
        return value

    row = layer("proximity.row_ms", "proximity.row", op_ids=own)
    layer("plan.route_ms", "plan.route", op_ids=own)
    core = layer("core.run_ms", "core.run", op_ids=own)
    miss = layer("service.miss_overhead_ms", "service.miss", True, own)
    hit = layer("service.hit_ms", "service.hit", op_ids=own)
    layer("http_api.serialise_ms", "http_api.serialise", op_ids=own)
    layer("wal.append_ms", "wal.append")
    layer("updates.apply_actions_ms", "updates.apply_actions", True)
    layer("updates.apply_friendship_ms", "updates.apply_friendship", True)
    layer("service.on_update_ms", "service.on_update")
    layer("updates.compact_ms", "updates.compact")
    layer("durable.checkpoint_s", "durable.checkpoint", scale=1.0, unit="s")

    # Reconciliation: the layers on this workload's path against what the
    # client saw.  read_hot is answered by the cache; the others compute,
    # and read_cold pays a proximity row first.
    path = {"read_hot": hit, "read_cold": row + core + miss,
            "read_scan": core + miss, "mixed_rw": core + miss}[report.workload]
    seen_p50 = stats.median(seen.main.latencies)
    report.put("trace.layer_sum_ms", overhead_ms + path, "ms")
    report.put("trace.unattributed_ms", seen_p50 - overhead_ms - path, "ms",
               len(seen.main.latencies))


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: Path) -> Report:
    """One run; every server it starts is stopped before it returns."""
    report = Report(workload, seed, traced)
    servers: List[Server] = []
    try:
        seen = observe(report, seconds, workdir, servers)
        if not traced:
            end_to_end(report, seen)
            return report
        recorder = SpanRecorder()
        overhead_ms = server_layers(report, seen)
        process_layers(report, seen, servers)
        replayed_layers(report, seen, recorder, workdir, overhead_ms)
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        recorder.write_jsonl(results / f"trace_{workload}.jsonl")
        return report
    finally:
        for server in servers:
            server.stop()
