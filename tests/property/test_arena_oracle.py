"""Array-native arena build == the per-(tag, user) loops it replaced.

``build_arena`` derives the social section from one ``lexsort`` of the
action columns, reads an arena store's action columns without
materialising it, and ``SocialIndex.stage_compact`` re-sorts triples
instead of walking a profile dict.  The contract is exact: on every random
small corpus — new users, friendships, delta tags absent from the base tag
table, an optional holdout split, repeated compactions, rounds with an
empty delta — every arena written is **byte-identical** to the one the
reference builder in ``tests/arena_oracle.py`` writes, and every compaction
installs the same social arrays the reference staging builds.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arena_oracle
from repro.graph import SocialGraph
from repro.storage import Dataset, DatasetUpdater, TaggingAction
from repro.storage.arena import build_arena
from repro.workload.datasets import tiny_dataset

BASE_TAGS = ("jazz", "rock", "vinyl", "zydeco")
#: tags only the update rounds use, so they are absent from the base table
#: (``"aaa"`` sorts before every base tag and shifts every tag id).
DELTA_TAGS = ("aaa", "punk")
MAX_USERS = 7
#: small ids collide often; the extremes pin that the sort needs no id range
items = st.one_of(st.integers(min_value=-2, max_value=12),
                  st.sampled_from((-(2 ** 63), 2 ** 50, 2 ** 63 - 1)))
weights = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


def _actions(draw, num_users, tags, stamp):
    triples = draw(st.lists(
        st.tuples(st.integers(0, num_users - 1), items, st.sampled_from(tags)),
        max_size=25))
    return [TaggingAction(user, item, tag, timestamp=stamp + offset)
            for offset, (user, item, tag) in enumerate(triples)]


@st.composite
def scenarios(draw):
    num_users = draw(st.integers(min_value=2, max_value=MAX_USERS))
    user = st.integers(0, num_users - 1)
    edges = draw(st.lists(st.tuples(user, user, weights), max_size=10))
    graph = SocialGraph.from_edges(
        num_users, [(u, v, w) for u, v, w in edges if u != v])
    base = _actions(draw, num_users, BASE_TAGS, 0)
    holdout = draw(st.sampled_from((None, 0.25, 0.5)))
    rounds = []
    for round_index in range(draw(st.integers(min_value=1, max_value=4))):
        new_users = draw(st.integers(min_value=0, max_value=2))
        num_users += new_users
        user = st.integers(0, num_users - 1)
        friendships = [(u, v, w) for u, v, w in draw(st.lists(
            st.tuples(user, user, weights), max_size=3)) if u != v]
        actions = _actions(draw, num_users, BASE_TAGS + DELTA_TAGS,
                           1000 * (round_index + 1))
        rounds.append((new_users, friendships, actions, draw(st.booleans())))
    return graph, base, holdout, rounds


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _social_state(arrays):
    return (arrays.tag_ids,
            [(array.dtype.str, array.tolist())
             for array in (arrays.user_offsets, arrays.user_ids,
                           arrays.segment_offsets, arrays.item_ids)])


def _staged_state(staged):
    return None if staged is None else (_social_state(staged[0]), staged[1])


def _assert_same_arena(dataset, directory: Path, name: str) -> None:
    # The array-native build runs first: the reference reads the action log
    # through actions(), which materialises an arena-backed store.
    built = build_arena(dataset, directory / f"{name}.arena")
    reference = arena_oracle.build_arena(
        dataset, directory / f"{name}.oracle.arena")
    assert _digest(built) == _digest(reference), name


def _apply(updater, new_users, friendships, actions):
    if new_users:
        updater.add_users(new_users)
    if friendships:
        updater.add_friendships(friendships)
    if actions:
        updater.add_actions(actions)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_builds_and_compactions_match_the_reference(scenario):
    graph, base, holdout, rounds = scenario
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        memory = Dataset.build(graph, base, name="oracle")
        if holdout is not None:
            memory = memory.with_holdout(holdout, seed=3)
        _assert_same_arena(memory, directory, "memory")
        build_arena(memory, directory / "base.arena")
        live = Dataset.from_arena(directory / "base.arena")
        live_updater = DatasetUpdater(live)
        memory_updater = DatasetUpdater(memory)
        for number, (new_users, friendships, actions, compact) in \
                enumerate(rounds):
            _apply(live_updater, new_users, friendships, actions)
            _apply(memory_updater, new_users, friendships, actions)
            _assert_same_arena(memory, directory, f"memory-{number}")
            _assert_same_arena(live, directory, f"pending-{number}")
            if not compact:
                continue
            social = live.social_index
            reference = _staged_state(arena_oracle.stage_compact(social))
            assert _staged_state(social.stage_compact()) == reference
            live_updater.compact()
            if reference is not None:
                assert _social_state(social._base) == reference[0]
            assert social.overlay_size == 0
            _assert_same_arena(live, directory, f"compacted-{number}")


def test_empty_action_log_matches_the_reference(tmp_path):
    dataset = Dataset.build(SocialGraph.from_edges(3, [(0, 1, 0.5)]), [],
                            name="empty")
    _assert_same_arena(dataset, tmp_path, "empty")
    assert np.array_equal(
        Dataset.from_arena(tmp_path / "empty.arena").social_index._base
        .user_offsets, np.zeros(1, dtype=np.int64))


def test_an_empty_overlay_row_keeps_its_tag_like_the_reference(tmp_path):
    dataset = Dataset.build(
        SocialGraph.from_edges(3, [(0, 1, 0.5)]),
        [TaggingAction(0, 5, "jazz"), TaggingAction(1, 6, "rock")])
    build_arena(dataset, tmp_path / "base.arena")
    social = Dataset.from_arena(tmp_path / "base.arena").social_index
    social.apply_delta({(2, "silent"): (), (1, "jazz"): (7,)})
    staged = social.stage_compact()
    assert "silent" in staged[0].tag_ids
    assert _staged_state(staged) == \
        _staged_state(arena_oracle.stage_compact(social))


def test_holdout_section_matches_the_reference(tmp_path):
    _assert_same_arena(tiny_dataset(holdout_fraction=0.2), tmp_path,
                       "holdout")
