"""Shared fixtures for the test suite.

The heavier fixtures (synthetic datasets, engines) are session-scoped: they
are deterministic and read-only for the tests that use them, so building
them once keeps the suite fast.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest

from repro import (
    DatasetConfig,
    EngineConfig,
    ProximityConfig,
    ScoringConfig,
    SocialSearchEngine,
    WorkloadConfig,
)
from repro.graph import SocialGraph
from repro.storage import Dataset, TaggingAction, build_arena
from repro.workload import build_dataset, generate_workload

#: The arena preamble: magic, format version, header length.
_ARENA_PREAMBLE = struct.Struct("<8sIQ")


@pytest.fixture(scope="session")
def small_graph() -> SocialGraph:
    """A hand-built 6-user graph with known structure.

    Topology (weights in parentheses)::

        0 --(1.0)-- 1 --(0.5)-- 2
        |           |
        (0.8)       (0.25)
        |           |
        3 --(1.0)-- 4           5 (isolated)
    """
    edges = [
        (0, 1, 1.0),
        (1, 2, 0.5),
        (0, 3, 0.8),
        (1, 4, 0.25),
        (3, 4, 1.0),
    ]
    return SocialGraph.from_edges(6, edges)


@pytest.fixture(scope="session")
def hand_dataset(small_graph) -> Dataset:
    """A tiny hand-written dataset over :func:`small_graph`.

    Items 100..104; tags "jazz", "rock", "vinyl".  User 5 is socially
    isolated but active, user 0 is the usual seeker in tests.
    """
    actions = [
        TaggingAction(user_id=1, item_id=100, tag="jazz", timestamp=1),
        TaggingAction(user_id=1, item_id=101, tag="jazz", timestamp=2),
        TaggingAction(user_id=2, item_id=100, tag="jazz", timestamp=3),
        TaggingAction(user_id=2, item_id=102, tag="rock", timestamp=4),
        TaggingAction(user_id=3, item_id=101, tag="jazz", timestamp=5),
        TaggingAction(user_id=3, item_id=103, tag="vinyl", timestamp=6),
        TaggingAction(user_id=4, item_id=100, tag="vinyl", timestamp=7),
        TaggingAction(user_id=4, item_id=102, tag="jazz", timestamp=8),
        TaggingAction(user_id=5, item_id=104, tag="jazz", timestamp=9),
        TaggingAction(user_id=5, item_id=104, tag="rock", timestamp=10),
        TaggingAction(user_id=0, item_id=103, tag="jazz", timestamp=11),
    ]
    return Dataset.build(small_graph, actions, name="hand")


@pytest.fixture(scope="session")
def synthetic_dataset() -> Dataset:
    """A small synthetic dataset shared across algorithm tests."""
    config = DatasetConfig(
        name="test-synthetic",
        num_users=60,
        num_items=120,
        num_tags=15,
        num_actions=900,
        graph_model="barabasi-albert",
        avg_degree=6.0,
        homophily=0.5,
        seed=42,
    )
    return build_dataset(config)


@pytest.fixture(scope="session")
def holdout_dataset() -> Dataset:
    """A synthetic dataset with a 20% per-user holdout for quality tests."""
    config = DatasetConfig(
        name="test-holdout",
        num_users=60,
        num_items=120,
        num_tags=15,
        num_actions=900,
        graph_model="barabasi-albert",
        avg_degree=6.0,
        homophily=0.7,
        seed=43,
    )
    return build_dataset(config, holdout_fraction=0.2)


@pytest.fixture(scope="session")
def synthetic_arena(synthetic_dataset, tmp_path_factory) -> Path:
    """:func:`synthetic_dataset` written as an arena file (read-only)."""
    return build_arena(synthetic_dataset,
                       tmp_path_factory.mktemp("arena") / "synthetic.arena")


def _damage_arena(data: bytes, damage: str) -> bytes:
    """``data`` (a whole arena file) with its header damaged one way."""
    magic, version, length = _ARENA_PREAMBLE.unpack_from(data)
    start = _ARENA_PREAMBLE.size
    if damage == "unsupported-version":
        return _ARENA_PREAMBLE.pack(magic, version + 1, length) + data[start:]
    if damage == "short-header-length":
        return _ARENA_PREAMBLE.pack(magic, version, length - 10) + data[start:]
    if damage == "non-utf8-header":
        return data[:start] + b"\xff" + data[start + 1:]
    if damage == "cut-mid-header":
        return data[:start + length // 2]
    header = json.loads(data[start:start + length])
    data_start = min(entry["offset"] for entry in header["arrays"])
    if damage == "no-array-manifest":
        del header["arrays"]
    else:  # "unknown-dtype"
        header["arrays"][0]["dtype"] = "nope"
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    # The writer reserves slack before the first payload, so a header a
    # few bytes longer still leaves every payload at its recorded offset.
    assert start + len(encoded) <= data_start
    return (_ARENA_PREAMBLE.pack(magic, version, len(encoded)) + encoded
            + data[start + len(encoded):])


@pytest.fixture(params=["short-header-length", "non-utf8-header",
                        "cut-mid-header", "no-array-manifest", "unknown-dtype",
                        "unsupported-version"])
def damaged_arena(request, synthetic_arena, tmp_path) -> Path:
    """A copy of :func:`synthetic_arena` whose header is damaged one way."""
    path = tmp_path / f"{request.param}.arena"
    path.write_bytes(_damage_arena(synthetic_arena.read_bytes(), request.param))
    return path


@pytest.fixture(scope="session")
def engine(synthetic_dataset) -> SocialSearchEngine:
    """Default engine (social-first, shortest-path proximity, alpha 0.5)."""
    return SocialSearchEngine(synthetic_dataset)


@pytest.fixture(scope="session")
def workload(synthetic_dataset):
    """A small deterministic workload over the synthetic dataset."""
    return generate_workload(
        synthetic_dataset,
        WorkloadConfig(num_queries=8, k=5, seed=5),
    )


@pytest.fixture()
def engine_factory(synthetic_dataset):
    """Factory building engines with custom alpha / algorithm / proximity."""

    def factory(alpha: float = 0.5, algorithm: str = "social-first",
                measure: str = "shortest-path", early_termination: bool = True,
                cache_size: int = 128) -> SocialSearchEngine:
        config = EngineConfig(
            algorithm=algorithm,
            scoring=ScoringConfig(alpha=alpha),
            proximity=ProximityConfig(measure=measure, cache_size=cache_size),
            early_termination=early_termination,
        )
        return SocialSearchEngine(synthetic_dataset, config)

    return factory
