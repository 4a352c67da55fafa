"""``SocialGraph.with_edges`` / ``with_users`` == re-adding through the builder.

The friendship update merges a batch into the CSR arrays with
``searchsorted`` + ``np.insert``; the oracle is the loop it replaced
(``tests/delta_oracle.py``): every existing edge and then the batch re-added
to a :class:`~repro.graph.SocialGraphBuilder`.  Arrays must match exactly,
the added / raised counts must match, an unchanged graph comes back as the
same object, and an invalid batch raises the builder's error for its first
bad edge.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import delta_oracle
from repro.errors import InvalidEdgeError, UnknownUserError
from repro.graph import SocialGraph

weights = st.sampled_from((0.25, 0.5, 0.75, 1.0))


@st.composite
def graphs_and_batches(draw):
    num_users = draw(st.integers(min_value=2, max_value=9))
    user = st.integers(0, num_users - 1)
    base = [(u, v, w) for u, v, w in draw(st.lists(
        st.tuples(user, user, weights), max_size=20)) if u != v]
    batch = [(u, v, w) for u, v, w in draw(st.lists(
        st.tuples(user, user, weights), max_size=8)) if u != v]
    # Repeat some existing edges, reversed, at a random weight.
    for u, v, _ in draw(st.lists(st.sampled_from(base), max_size=4)) \
            if base else ():
        batch.append((v, u, draw(weights)))
    return SocialGraph.from_edges(num_users, base), batch


def _arrays(graph):
    return [(array.dtype.str, array.tolist()) for array in graph.csr_arrays()]


def _raised(graph, batch):
    best = {}
    for u, v, w in batch:
        key = (min(u, v), max(u, v))
        best[key] = max(best.get(key, 0.0), w)
    return sum(1 for (u, v), w in best.items()
               if graph.has_edge(u, v) and w > graph.edge_weight(u, v))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graphs_and_batches())
def test_with_edges_matches_the_builder(case):
    graph, batch = case
    merged, added, raised = graph.with_edges(batch)
    expected, expected_added = delta_oracle.builder_with_edges(graph, batch)
    assert merged == expected
    assert _arrays(merged) == _arrays(expected)
    assert added == expected_added
    assert raised == _raised(graph, batch)
    if not added and not raised:
        assert merged is graph


@settings(max_examples=50, deadline=None)
@given(graphs_and_batches(), st.integers(min_value=0, max_value=3))
def test_with_users_matches_the_builder(case, count):
    graph, _ = case
    grown = graph.with_users(count)
    expected = delta_oracle.builder_with_users(graph, count)
    assert _arrays(grown) == _arrays(expected)
    assert grown.num_users == expected.num_users


@pytest.mark.parametrize("bad_edge, error", [
    ((0, 9, 0.5), UnknownUserError),
    ((-1, 2, 0.5), UnknownUserError),
    ((2, 2, 0.5), InvalidEdgeError),
    ((1, 2, 0.0), InvalidEdgeError),
    ((1, 2, 1.5), InvalidEdgeError),
    ((1, 2, float("nan")), InvalidEdgeError),
])
def test_invalid_batch_raises_the_builders_error(bad_edge, error):
    graph = SocialGraph.from_edges(4, [(0, 1, 0.5), (2, 3, 1.0)])
    # A valid edge first and a different bad edge after: the first bad
    # edge in batch order is the one reported.
    batch = [(0, 2, 0.5), bad_edge, (3, 3, 0.5)]
    with pytest.raises(error) as merged_error:
        graph.with_edges(batch)
    with pytest.raises(error) as builder_error:
        delta_oracle.builder_with_edges(graph, batch)
    assert str(merged_error.value) == str(builder_error.value)


def test_a_lower_or_equal_duplicate_returns_the_same_graph():
    graph = SocialGraph.from_edges(3, [(0, 1, 0.5)])
    assert graph.with_edges([(1, 0, 0.5), (0, 1, 0.25)]) == (graph, 0, 0)
    assert graph.with_edges([]) == (graph, 0, 0)


def test_a_raise_keeps_the_maximum_in_both_directions():
    graph = SocialGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)])
    raised, added, count = graph.with_edges([(1, 0, 0.75), (0, 1, 0.6)])
    assert (added, count) == (0, 1)
    assert raised.edge_weight(0, 1) == raised.edge_weight(1, 0) == 0.75
    assert raised.edge_weight(1, 2) == 0.25
    assert np.array_equal(raised.degrees(), graph.degrees())
