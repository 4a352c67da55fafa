"""Streaming updates: keep answering queries while the corpus grows.

Run with::

    python examples/streaming_updates.py

A live deployment does not rebuild its corpus nightly — bookmarks and
friendships arrive continuously.  This example replays a stream of new
tagging actions and friendships against a live dataset with
:class:`repro.storage.DatasetUpdater`, interleaving queries, and shows how
a newly endorsed item climbs into the seeker's top-k as the seeker's friends
discover it.
"""

from __future__ import annotations

from repro import (
    Query,
    SocialSearchEngine,
    TaggingAction,
    WorkloadConfig,
    default_engine_config,
    delicious_like,
)
from repro.storage import DatasetUpdater
from repro.workload import generate_workload


def main() -> None:
    dataset = delicious_like(scale=0.25, seed=7)
    # A social-leaning blend makes the effect of friend endorsements visible.
    engine = SocialSearchEngine(dataset, default_engine_config(alpha=0.3))
    updater = DatasetUpdater(dataset)
    print(dataset.describe(), "\n")

    # Pick an active seeker, and a niche tag (short posting list) so a new
    # item realistically has room to climb.
    seeker = generate_workload(dataset, WorkloadConfig(num_queries=1, k=10, seed=5))[0].seeker
    tag = min(dataset.tags(), key=dataset.inverted_index.max_frequency)
    query = Query.single(seeker, tag, k=10)
    print(f"seeker {seeker} keeps asking for {[tag]} while the corpus grows\n")

    # A brand-new item that the seeker's friends will progressively endorse.
    new_item = max(dataset.items.ids()) + 1
    friends = [user for user, _ in engine.proximity.top(seeker, 12)]
    print(f"new item {new_item} will be endorsed, one friend at a time, by "
          f"{len(friends)} of the seeker's closest friends\n")

    timestamp = 1_000_000
    for step, friend in enumerate(friends, start=1):
        updater.add_actions([
            TaggingAction(user_id=friend, item_id=new_item, tag=tag,
                          timestamp=timestamp + step),
        ])
        result = engine.run(query)
        rank = result.item_ids.index(new_item) + 1 if new_item in result.item_ids else 0
        shown = f"rank {rank}" if rank else "not in top-10 yet"
        print(f"  after {step:2d} friend endorsement(s): {shown}")

    # Friendships are updates too: connect the seeker directly to the item's
    # very first endorser and watch the social score tighten further.
    first_endorser = friends[-1]
    if not dataset.graph.has_edge(seeker, first_endorser):
        updater.add_friendships([(seeker, first_endorser, 0.9)])
        # The proximity cache belongs to the old graph; rebuild the engine.
        engine = SocialSearchEngine(dataset, engine.config)
        result = engine.run(query)
        rank = result.item_ids.index(new_item) + 1 if new_item in result.item_ids else 0
        print(f"\nafter also befriending user {first_endorser}: "
              f"{'rank ' + str(rank) if rank else 'still outside the top-10'}")


if __name__ == "__main__":
    main()
