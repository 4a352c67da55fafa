"""Incremental dataset maintenance.

A production deployment of the system does not rebuild its indexes from
scratch whenever a user bookmarks something or befriends someone; it applies
the delta.  :class:`DatasetUpdater` provides that path: it accepts new
tagging actions, users, items and friendships, applies them to the stores,
and refreshes only the derived state that actually changed.  A batch of
actions becomes, per *touched tag*, the arrays of its new ``(item,
tagger)`` pairs; :mod:`repro.storage.delta` folds them into the tag's
endorser CSR with ``searchsorted`` + ``np.insert`` (the tag's untouched
items are never visited in Python), the posting list is re-read off the
merged bundle, and the touched ``(user, tag)`` rows of the social index
land in its overlay.  The CSR graph is immutable: new or stronger
friendships merge into a new graph with
:meth:`~repro.graph.SocialGraph.with_edges`, and new users pad its
offsets.

The raw actions accumulate in the tagging store's append tail on top of
its frozen columns — in-memory and arena-backed datasets alike;
:meth:`DatasetUpdater.compact` (driven by a ``compact_threshold``, or by
:class:`repro.service.QueryService` in the background) folds that tail
and the social overlay back into fresh contiguous arrays and advances the
updater's **epoch**.
Because a delta-merged read and a compacted read are value-identical, a
query racing a compaction sees consistent data whichever epoch's structures
it grabs.

The updater is also the substrate of "streaming" experiments: replay a trace
against a live dataset and interleave queries with updates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import StorageError
from ..obs.faults import fault_point
from ..obs.trace import span as obs_span
from .dataset import Dataset
from .items import Item
from .tagging import TaggingAction
from .users import User
from .wal import WriteAheadLog


@dataclass
class UpdateSummary:
    """What one :meth:`DatasetUpdater.apply` call actually changed."""

    actions_added: int = 0
    actions_ignored: int = 0
    edges_added: int = 0
    #: Existing friendships whose weight the update raised.
    edges_raised: int = 0
    users_added: int = 0
    items_added: int = 0
    tags_touched: Set[str] = field(default_factory=set)
    users_touched: Set[int] = field(default_factory=set)
    #: Endpoints of the friendships of a batch that changed the graph —
    #: the only users whose proximity horizon an update can shift.
    edge_endpoints: Set[int] = field(default_factory=set)

    @property
    def changed(self) -> bool:
        """Whether this update modified the dataset at all."""
        return bool(self.actions_added or self.edges_changed
                    or self.users_added or self.items_added)

    @property
    def edges_changed(self) -> bool:
        """Whether a friendship was added or strengthened."""
        return bool(self.edges_added or self.edges_raised)

    @property
    def graph_rebuilt(self) -> bool:
        """Whether the CSR graph object was replaced (observers must rebind)."""
        return bool(self.edges_changed or self.users_added)

    def merge(self, other: "UpdateSummary") -> None:
        """Accumulate another summary into this one."""
        self.actions_added += other.actions_added
        self.actions_ignored += other.actions_ignored
        self.edges_added += other.edges_added
        self.edges_raised += other.edges_raised
        self.users_added += other.users_added
        self.items_added += other.items_added
        self.tags_touched |= other.tags_touched
        self.users_touched |= other.users_touched
        self.edge_endpoints |= other.edge_endpoints

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict view for logs."""
        return {
            "actions_added": self.actions_added,
            "actions_ignored": self.actions_ignored,
            "edges_added": self.edges_added,
            "edges_raised": self.edges_raised,
            "users_added": self.users_added,
            "items_added": self.items_added,
            "tags_touched": sorted(self.tags_touched),
            "users_touched": sorted(self.users_touched),
        }


class DatasetUpdater:
    """Applies incremental updates to a :class:`~repro.storage.dataset.Dataset`.

    The updater mutates the dataset it wraps: after :meth:`apply` (or the
    convenience methods) the dataset's stores, indexes and graph reflect the
    update.  Engines built on the dataset should be recreated — or at least
    their proximity caches cleared — after graph changes, which is why
    :meth:`apply` reports whether the graph was rebuilt.
    """

    def __init__(self, dataset: Dataset, compact_threshold: int = 0) -> None:
        self._dataset = dataset
        self._observers: List[Callable[[UpdateSummary], None]] = []  # guarded-by: _mutate_lock
        self._in_batch = False  # guarded-by: _mutate_lock
        # Serialises mutations: concurrent updates (e.g. two simultaneous
        # HTTP /update requests) would otherwise both rebuild the graph from
        # the same snapshot and the later assignment would drop the earlier
        # one's edges.  Re-entrant because apply() calls the add_* methods.
        self._mutate_lock = threading.RLock()
        #: Auto-compact inline once the pending delta reaches this size
        #: (0 disables; the serving layer prefers to drive compaction in the
        #: background instead, see ``QueryService``).
        self._compact_threshold = max(0, int(compact_threshold))
        self._epoch = 0  # guarded-by: _mutate_lock
        #: Optional write-ahead log: when attached, every effective update
        #: is appended (and made durable per the log's fsync policy)
        #: *before* the public call returns — i.e. before the update is
        #: acknowledged.  A crash after the append loses nothing: recovery
        #: replays the record through this same incremental path.
        self._wal: Optional[WriteAheadLog] = None  # guarded-by: _mutate_lock

    @property
    def dataset(self) -> Dataset:
        """The live dataset being maintained."""
        return self._dataset

    @property
    def epoch(self) -> int:
        """Number of compactions performed so far."""
        return self._epoch

    @property
    def compact_threshold(self) -> int:
        """Pending-delta size that triggers an inline compaction (0 = off)."""
        return self._compact_threshold

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log, if any."""
        return self._wal

    @property
    def mutate_lock(self) -> threading.RLock:
        """The writer lock; the durable store holds it across a checkpoint
        so no update can be acknowledged into the *old* WAL segment after
        the new generation's arena has been built."""
        return self._mutate_lock

    def attach_wal(self, wal: Optional[WriteAheadLog]) -> None:
        """Attach (or with ``None`` detach) the updater's write-ahead log.

        Detaching is what recovery uses while *replaying* records — the
        replayed updates are already durable and must not be re-appended.
        """
        with self._mutate_lock:
            self._wal = wal

    def pending_delta(self) -> int:
        """Number of actions in the tagging store's tail awaiting compaction."""
        return self._dataset.tagging.delta_size

    def restore_epoch(self, epoch: int) -> None:
        """Reset the epoch counter (crash-recovery continuity only)."""
        with self._mutate_lock:
            self._epoch = int(epoch)

    def compact(self) -> int:
        """Fold the delta overlays back into fresh frozen arrays.

        Folds the tagging store's tail into its frozen columns (the live
        endorser index, which incremental maintenance has already merged
        the same actions into, must account for every row) and the social
        index's overlay into its CSR.
        Value-identical before and after — readers racing the swap see
        consistent data either way — so this is safe to run on a background
        thread while queries are being served; only writers are blocked.
        Returns the number of tail actions folded; 0 when nothing was
        pending (the social overlay is folded all the same).

        Compaction is **two-phase** for failure atomicity: both stores
        first *stage* their next epoch (all the work that can fail —
        validation, allocation, snapshotting), then an epoch marker is
        appended to the WAL (which can also fail), and only then do the
        stores *commit* via pure attribute swaps that cannot raise.  An
        exception anywhere before the commit leaves the updater on the old
        epoch with its merged reads fully intact.
        """
        with self._mutate_lock, obs_span("updates.compact") as compact_span:
            tagging = self._dataset.tagging
            social = self._dataset.social_index
            staged_tagging = tagging.stage_compact()
            folded = staged_tagging[1] if staged_tagging is not None else 0
            fault_point("compact.stage")
            staged_social = social.stage_compact()
            if folded and self._wal is not None:
                # The marker is durable before the swap: recovery can
                # correlate log positions with epochs, and a failing append
                # aborts the compaction with the old epoch intact.
                self._wal.append_epoch(self._epoch + 1, folded=folded)
            fault_point("compact.commit")
            tagging.commit_compact(staged_tagging)
            social.commit_compact(staged_social)
            if folded:
                self._epoch += 1
            compact_span.set(actions_folded=folded)
            return folded

    # ------------------------------------------------------------------ #
    # Observer hooks
    # ------------------------------------------------------------------ #

    def subscribe(self, observer: Callable[[UpdateSummary], None]) -> Callable[[UpdateSummary], None]:
        """Register a callback invoked after every effective update.

        Observers receive the :class:`UpdateSummary` of each public update
        call that changed the dataset — :meth:`apply` notifies once with the
        merged summary of the whole batch, not once per component.  This is
        how serving-layer caches (:class:`repro.service.QueryService`) learn
        which tags and users went stale.  Returns the observer so the call
        can be used inline.
        """
        with self._mutate_lock:
            self._observers.append(observer)
        return observer

    def unsubscribe(self, observer: Callable[[UpdateSummary], None]) -> None:
        """Remove a previously registered observer (no-op when absent)."""
        with self._mutate_lock:
            try:
                self._observers.remove(observer)
            except ValueError:
                pass

    def _notify(self, summary: UpdateSummary) -> UpdateSummary:
        # No-op updates (duplicate actions, empty batches) must not reach
        # observers: a notification triggers cache invalidations
        # downstream, which would evict perfectly fresh state for nothing.
        if not self._in_batch and summary.changed:
            for observer in list(self._observers):
                observer(summary)
            if (self._compact_threshold
                    and self.pending_delta() >= self._compact_threshold):
                self.compact()
        return summary

    # ------------------------------------------------------------------ #
    # Individual update kinds
    # ------------------------------------------------------------------ #

    def add_users(self, count: int) -> UpdateSummary:
        """Grow the user domain by ``count`` fresh (isolated) users."""
        if count < 0:
            raise StorageError(f"cannot add a negative number of users: {count}")
        summary = UpdateSummary()
        if count == 0:
            return summary
        with self._mutate_lock:
            old = self._dataset.graph
            new_size = old.num_users + count
            self._dataset.graph = old.with_users(count)
            for user_id in range(old.num_users, new_size):
                self._dataset.users.add(User(user_id=user_id, name=f"user-{user_id}"))
            summary.users_added = count
            if self._wal is not None:
                self._wal.append("users", {"count": count})
            return self._notify(summary)

    def add_items(self, items: Iterable[Item]) -> UpdateSummary:
        """Register new items in the catalogue."""
        summary = UpdateSummary()
        added: List[Item] = []
        with self._mutate_lock:
            for item in items:
                if item.item_id not in self._dataset.items:
                    self._dataset.items.add(item)
                    added.append(item)
                    summary.items_added += 1
            if added and self._wal is not None:
                self._wal.append("items", {
                    "items": [item.to_dict() for item in added]})
            return self._notify(summary)

    def add_friendships(self, edges: Iterable[Tuple[int, int, float]]) -> UpdateSummary:
        """Add friendships, keeping the maximum weight of a repeated edge.

        The batch is merged into the CSR graph once.  A new edge and an
        existing edge whose weight went up both change the graph: it is
        replaced, the batch is logged and observers are notified.  A batch
        of duplicates at equal or lower weights changes nothing.
        """
        edges = list(edges)
        summary = UpdateSummary()
        if not edges:
            return summary
        with self._mutate_lock, obs_span("updates.graph_rebuild",
                                         edges=len(edges)):
            graph, summary.edges_added, summary.edges_raised = \
                self._dataset.graph.with_edges(edges)
            for u, v, _ in edges:
                summary.users_touched.update((u, v))
            if summary.edges_changed:
                self._dataset.graph = graph
                summary.edge_endpoints = set(summary.users_touched)
                if self._wal is not None:
                    # The full batch is logged (not just the novel edges):
                    # replaying duplicates keeps the maximum weight, so it
                    # is idempotent, and the record mirrors what the caller
                    # sent.
                    self._wal.append("friendships", {
                        "edges": [[int(u), int(v), float(w)]
                                  for u, v, w in edges]})
            return self._notify(summary)

    def add_actions(self, actions: Iterable[TaggingAction]) -> UpdateSummary:
        """Record tagging actions and refresh the affected index entries.

        Maintenance is incremental: the batch's newly recorded (post-dedup)
        actions form an explicit delta — ``tag -> ([items], [taggers])`` and
        ``(user, tag) -> [items]`` — and only the touched tags' endorser CSR
        bundles and posting lists are re-merged against their frozen arrays
        and the touched social rows put in the social index's overlay, at a
        cost set by the batch rather than by the size of the tags.  The
        refreshed entries are value-identical to a from-scratch index
        rebuild over the merged store, so queries racing the per-tag swaps
        see consistent data.
        """
        summary = UpdateSummary()
        touched_tags: Set[str] = set()
        touched_users: Set[int] = set()
        recorded: List[TaggingAction] = []
        by_tag: Dict[str, Tuple[List[int], List[int]]] = {}
        by_user_tag: Dict[Tuple[int, str], List[int]] = {}
        with self._mutate_lock:
            for action in actions:
                if not 0 <= action.user_id < self._dataset.graph.num_users:
                    raise StorageError(
                        f"tagging action references user {action.user_id}, but the "
                        f"graph only has {self._dataset.graph.num_users} users"
                    )
                if self._dataset.tagging.add(action):
                    summary.actions_added += 1
                    recorded.append(action)
                    touched_tags.add(action.tag)
                    touched_users.add(action.user_id)
                    items, taggers = by_tag.setdefault(action.tag, ([], []))
                    items.append(action.item_id)
                    taggers.append(action.user_id)
                    by_user_tag.setdefault((action.user_id, action.tag), []) \
                        .append(action.item_id)
                    self._dataset.items.ensure(action.item_id)
                    self._dataset.users.ensure(action.user_id)
                else:
                    summary.actions_ignored += 1
            if summary.actions_added:
                with obs_span("updates.delta_merge",
                              actions=summary.actions_added,
                              tags=len(touched_tags)):
                    merged = self._dataset.endorser_index.apply_delta(by_tag)
                    self._dataset.inverted_index.apply_delta(merged)
                    self._dataset.social_index.apply_delta(by_user_tag)
                if self._wal is not None:
                    # Durable *before* the caller gets its summary back —
                    # the WAL contract: an acknowledged action survives a
                    # crash.  A failing append raises and nothing is acked
                    # (the in-memory state is ahead of the log, which is
                    # safe: at-least-once, never lost-after-ack).  Only the
                    # effective post-dedup actions are logged, so replaying
                    # through this same method is exactly idempotent.
                    self._wal.append_actions(recorded)
            summary.tags_touched = touched_tags
            summary.users_touched |= touched_users
            return self._notify(summary)

    # ------------------------------------------------------------------ #
    # Batch application
    # ------------------------------------------------------------------ #

    def apply(self, actions: Optional[Iterable[TaggingAction]] = None,
              friendships: Optional[Iterable[Tuple[int, int, float]]] = None,
              new_users: int = 0,
              new_items: Optional[Iterable[Item]] = None) -> UpdateSummary:
        """Apply a mixed batch of updates in a safe order.

        Users are added first (so new friendships and actions may reference
        them), then items, friendships, and finally tagging actions.
        """
        summary = UpdateSummary()
        with self._mutate_lock:
            self._in_batch = True
            try:
                if new_users:
                    summary.merge(self.add_users(new_users))
                if new_items is not None:
                    summary.merge(self.add_items(new_items))
                if friendships is not None:
                    summary.merge(self.add_friendships(friendships))
                if actions is not None:
                    summary.merge(self.add_actions(actions))
            finally:
                self._in_batch = False
            return self._notify(summary)


def replay_trace(dataset: Dataset, actions: Iterable[TaggingAction],
                 batch_size: int = 100) -> List[UpdateSummary]:
    """Replay a stream of actions against a live dataset in batches.

    Returns one :class:`UpdateSummary` per applied batch; useful for
    simulating a live system that interleaves updates with queries.
    """
    if batch_size < 1:
        raise StorageError(f"batch_size must be >= 1, got {batch_size}")
    updater = DatasetUpdater(dataset)
    summaries: List[UpdateSummary] = []
    batch: List[TaggingAction] = []
    for action in actions:
        batch.append(action)
        if len(batch) >= batch_size:
            summaries.append(updater.add_actions(batch))
            batch = []
    if batch:
        summaries.append(updater.add_actions(batch))
    return summaries
