import random

import pytest
from hypothesis import given, strategies as st

import rvsim.oracle as oracle_module
from rvsim import (
    DistanceDelta,
    DistanceOracle,
    SimConfig,
    TooLargeError,
    all_pairs,
    build,
    butterfly_coords,
    butterfly_index,
    delta,
    generate_butterfly,
    generate_random_connected,
    generate_ring,
    horizontal_distance,
    rendezvous_program,
    run,
)


def test_identity_and_single_edge():
    g = build(2, [(0, 1, 1, 1)])
    oracle = DistanceOracle(g)
    assert oracle.distance(0, 0) == 0
    assert oracle.distance(0, 1) == 1
    assert oracle.distance(1, 0) == 1


def test_path_table():
    g = build(3, [(0, 1, 1, 1), (1, 2, 2, 1)])
    assert all_pairs(g) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_ring_antipodal():
    assert all_pairs(generate_ring(6))[0][3] == 3


def test_butterfly_cross_check():
    g = generate_butterfly(3, 4)
    oracle = DistanceOracle(g)
    u = butterfly_index(3, 0, 0)
    v = butterfly_index(3, 0, 2)
    assert oracle.distance(u, v) == 2
    assert horizontal_distance(butterfly_coords(3, u), butterfly_coords(3, v), 4) == 2


def test_delta_classification():
    assert delta(3, 2) is DistanceDelta.DECREASED
    assert delta(3, 3) is DistanceDelta.SAME
    assert delta(0, 1) is DistanceDelta.INCREASED
    with pytest.raises(ValueError):
        delta(-1, 0)


def test_all_pairs_too_large():
    g = generate_ring(12)
    with pytest.raises(TooLargeError):
        all_pairs(g, max_nodes=10)


@pytest.mark.parametrize("seed", range(5))
def test_bfs_matches_table_exhaustively(seed):
    g = generate_random_connected(40, 6, seed=seed)
    table = all_pairs(g)
    oracle = DistanceOracle(g)
    for u in range(g.num_nodes):
        for v in range(g.num_nodes):
            assert oracle.distance(u, v) == table[u][v]


@given(st.integers(2, 40), st.integers(0, 50), st.data())
def test_triangle_inequality_sampled(n, seed, data):
    g = generate_random_connected(n, 6, seed=seed)
    table = all_pairs(g)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    w = data.draw(st.integers(0, n - 1))
    assert table[u][w] <= table[u][v] + table[v][w]
    assert table[u][v] == table[v][u]
    assert table[u][u] == 0


@given(st.integers(2, 30), st.integers(0, 20))
def test_unit_step_property(n, seed):
    # adjacent endpoints shift any distance by at most one
    g = generate_random_connected(n, 5, seed=seed)
    table = all_pairs(g)
    for u in range(n):
        for p in g.ports(u):
            w, _ = g.neighbor(u, p)
            for v in range(n):
                assert abs(table[u][v] - table[w][v]) <= 1


def test_construction_runs_no_bfs(monkeypatch):
    calls = []
    bfs = oracle_module.bfs_distances
    monkeypatch.setattr(oracle_module, "bfs_distances",
                        lambda *args, **kwargs: calls.append(args) or bfs(*args, **kwargs))
    oracle = DistanceOracle(generate_ring(50))
    assert calls == []
    assert oracle.distance(0, 25) == oracle.distance(25, 0) == 25
    assert len(calls) == 1  # one early-stopping BFS, then the memo


@pytest.mark.parametrize("n, max_degree, seed", [(30, 3, 0), (200, 6, 1), (4200, 5, 2)])
def test_distances_match_networkx(n, max_degree, seed):
    nx = pytest.importorskip("networkx")
    g = generate_random_connected(n, max_degree, seed=seed)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from((u, v) for u, _, v, _ in g.edges())
    oracle = DistanceOracle(g)
    rng = random.Random(seed)
    for u in rng.sample(range(n), min(n, 8)):
        lengths = nx.shortest_path_length(ref, source=u)
        for v in rng.sample(range(n), min(n, 25)):
            assert oracle.distance(u, v) == oracle.distance(v, u) == lengths[v]


def test_memo_stays_bounded_and_exact():
    g = generate_ring(100)  # 4950 unordered pairs, more than the memo limit
    assert g.num_nodes * (g.num_nodes - 1) // 2 > DistanceOracle.MEMO_LIMIT
    table = all_pairs(g)
    oracle = DistanceOracle(g)
    for u in range(g.num_nodes):
        for v in range(g.num_nodes):
            assert oracle.distance(u, v) == table[u][v]
            assert len(oracle._memo) <= DistanceOracle.MEMO_LIMIT


def test_meeting_round_does_not_depend_on_n():
    # the bound is O(delta (D + log label)); the graph size does not enter it
    rounds = set()
    for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
        res = run(generate_ring(n), 0, 5, rendezvous_program(3),
                  rendezvous_program(2 ** 16 - 1), SimConfig(trace_detail="meeting-only"))
        assert res.met
        rounds.add(res.rounds)
    assert rounds == {39}
