"""Property gate: the batched shortest-path row against the heapq oracle.

``shortest_path_row`` settles many Dijkstra nodes per round; it must return
exactly the ``(node, distance, hops)`` sequence the one-pop-per-node loop in
``tests/dijkstra_oracle.py`` yields — same order, same float64 bits, same
hop counts — on graphs with zero-cost (weight 1.0) edges, tied weights,
isolated nodes and disconnected parts, at every decay and hop cap.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dijkstra_oracle import dijkstra_iter as oracle_iter
from repro.graph import SocialGraph, dijkstra_iter, shortest_path_row

MAX_USERS = 12

weights = st.one_of(st.just(1.0), st.sampled_from([0.5, 0.25, 0.8]),
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False))


@st.composite
def graphs(draw):
    num_users = draw(st.integers(min_value=1, max_value=MAX_USERS))
    edges = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=num_users - 1),
                  st.integers(min_value=0, max_value=num_users - 1),
                  weights),
        max_size=3 * num_users))
    return SocialGraph.from_edges(num_users,
                                  [(u, v, w) for u, v, w in edges if u != v])


decays = st.one_of(st.just(1.0), st.sampled_from([0.5, 0.3]),
                   st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
hop_caps = st.one_of(st.none(), st.integers(min_value=0, max_value=8))
distance_caps = st.sampled_from([None, -math.log(1e-4)])


@given(graphs(), st.data(), decays, hop_caps, distance_caps)
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_row_matches_the_heapq_oracle(graph, data, decay, max_hops, max_distance):
    source = data.draw(st.integers(min_value=0, max_value=graph.num_users - 1))
    hop_penalty = -math.log(max(decay, 1e-12))
    expected = list(oracle_iter(graph, source, max_distance=max_distance,
                                max_hops=max_hops, hop_penalty=hop_penalty))
    nodes, dists, hops = shortest_path_row(graph, source, max_distance=max_distance,
                                           max_hops=max_hops, hop_penalty=hop_penalty)
    assert list(zip(nodes.tolist(), dists.tolist(), hops.tolist())) == expected
    assert list(dijkstra_iter(graph, source, max_distance=max_distance,
                              max_hops=max_hops, hop_penalty=hop_penalty)) == expected
