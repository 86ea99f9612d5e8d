import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

import rvsim.oracle as oracle_module
from rvsim import (
    DistanceDelta,
    DistanceOracle,
    SimConfig,
    bfs_distances,
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
from rvsim.acceptance import _floyd_warshall


def test_identity_and_single_edge():
    g = build(2, [(0, 1, 1, 1)])
    oracle = DistanceOracle(g)
    assert oracle.distance(0, 0) == 0
    assert oracle.distance(0, 1) == 1
    assert oracle.distance(1, 0) == 1


def test_path_table():
    g = build(3, [(0, 1, 1, 1), (1, 2, 2, 1)])
    assert _floyd_warshall(g) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_ring_antipodal():
    assert _floyd_warshall(generate_ring(6))[0][3] == 3


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


@pytest.mark.parametrize("seed", range(5))
def test_bfs_matches_table_exhaustively(seed):
    g = generate_random_connected(40, 6, seed=seed)
    table = _floyd_warshall(g)
    oracle = DistanceOracle(g)
    for u in range(g.num_nodes):
        for v in range(g.num_nodes):
            assert oracle.distance(u, v) == table[u][v]


@given(st.integers(2, 40), st.integers(0, 50), st.data())
def test_triangle_inequality_sampled(n, seed, data):
    g = generate_random_connected(n, 6, seed=seed)
    table = _floyd_warshall(g)
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
    table = _floyd_warshall(g)
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
    assert calls == [] and oracle._rows == {}
    assert oracle.distance(0, 25) == 25
    assert len(calls) == 1  # one search, from 25
    assert oracle.distance(25, 0) == oracle.distance(0, 25) == 25
    assert oracle.distance(24, 25) == oracle.distance(25, 26) == 1
    assert len(calls) == 1  # the row of 25 already reaches 0, 24 and 26


@given(st.integers(2, 60), st.integers(0, 30), st.data())
def test_resumed_search_equals_one_search(n, seed, data):
    """A search from one source resumed toward targets in any order is exact
    wherever it is filled in, and when run out it equals one full search."""
    g = generate_random_connected(n, 4, seed=seed)
    source = data.draw(st.integers(0, n - 1), label="source")
    full = bfs_distances(g, source)
    row = ([-1] * n, deque([source]))
    for target in data.draw(st.lists(st.integers(0, n - 1), max_size=6), label="targets"):
        assert bfs_distances(g, source, target, row)[target] == full[target]
        assert all(d in (-1, f) for d, f in zip(row[0], full))
    assert bfs_distances(g, source, None, row) == full


@st.composite
def _engine_stream(draw):
    """A graph and the queries of two agents on it: sweeps in which one
    agent stays while the other steps out through a port and back, rounds
    in which both step, and jumps to arbitrary nodes."""
    n = draw(st.integers(2, 40))
    g = generate_random_connected(n, draw(st.integers(2, 6)), seed=draw(st.integers(0, 50)))
    pos = [draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))]
    queries = [tuple(pos)]

    def step(v):
        return g.neighbor(v, draw(st.integers(1, g.degree(v))))[0]

    for kind in draw(st.lists(st.sampled_from(("sweep1", "sweep2", "both", "jump")),
                              max_size=12)):
        if kind == "jump":
            pos = [draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))]
        elif kind == "both":
            pos = [step(pos[0]), step(pos[1])]
        else:
            mover = int(kind[-1]) - 1
            for p in g.ports(pos[mover]):
                out = list(pos)
                out[mover] = g.neighbor(pos[mover], p)[0]
                queries += [tuple(out), tuple(pos)]
            continue
        queries.append(tuple(pos))
    return g, queries


@given(_engine_stream())
def test_engine_shaped_streams_are_exact(stream):
    g, queries = stream
    oracle = DistanceOracle(g)
    for u, v in queries:
        assert oracle.distance(u, v) == bfs_distances(g, u)[v]


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


@pytest.mark.parametrize("n, max_degree, seed", [(2, 2, 0), (25, 3, 1), (60, 6, 2)])
def test_floyd_warshall_matches_networkx(n, max_degree, seed):
    nx = pytest.importorskip("networkx")
    g = generate_random_connected(n, max_degree, seed=seed)
    ref = nx.Graph()
    ref.add_edges_from((u, v) for u, _, v, _ in g.edges())
    lengths = dict(nx.all_pairs_shortest_path_length(ref))
    assert _floyd_warshall(g) == [[lengths[u][v] for v in range(n)] for u in range(n)]


def _held(oracle):
    held = sum(len(dist) for dist, _ in oracle._rows.values())
    assert held == oracle._held
    return held


def test_memo_stays_bounded_and_exact():
    g = generate_ring(100)
    table = _floyd_warshall(g)
    oracle = DistanceOracle(g)
    for u in range(g.num_nodes):
        for v in range(g.num_nodes):
            assert oracle.distance(u, v) == table[u][v]
            assert _held(oracle) <= DistanceOracle.ROW_LIMIT
    # 64 rows of a 4096-node ring fill the limit, so the rows are dropped
    # every 64 new sources
    n = 4096
    g = generate_ring(n)
    oracle = DistanceOracle(g)
    rng = random.Random(0)
    held = []
    for _ in range(600):
        u = rng.randrange(n)
        v = (u + rng.randrange(-40, 41)) % n
        assert oracle.distance(u, v) == min((u - v) % n, (v - u) % n)
        held.append(_held(oracle))
    assert max(held) <= DistanceOracle.ROW_LIMIT
    assert sum(1 for a, b in zip(held, held[1:]) if b < a) >= 5  # clears happened


def test_meeting_round_does_not_depend_on_n():
    # the bound is O(delta (D + log label)); the graph size does not enter it
    rounds = set()
    for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
        res = run(generate_ring(n), 0, 5, rendezvous_program(3),
                  rendezvous_program(2 ** 16 - 1), SimConfig(trace_detail="meeting-only"))
        assert res.met
        rounds.add(res.rounds)
    assert rounds == {39}


def _with_tail(core, n):
    """``core`` with a path of ``n`` new nodes hung off its first node of
    degree below 4, on a new port there."""
    hub = next(v for v in range(core.num_nodes) if core.degree(v) < 4)
    m = core.num_nodes
    edges = [*core.edges(), (hub, core.degree(hub) + 1, m, 1)]
    edges += [(v, 2, v + 1, 1) for v in range(m, m + n - 1)]
    return build(m + n, edges)


@pytest.mark.parametrize("mode", ["exact", "delta"])
def test_meeting_does_not_depend_on_n_off_a_regular_graph(mode):
    # the same claim where degrees differ: a path as long as you like hangs
    # off the random core, and the meeting near the starts never sees it
    core = generate_random_connected(60, 4, 7)
    far = bfs_distances(core, 0).index(5)
    outcomes = set()
    for n in (1, 10 ** 2, 10 ** 3, 10 ** 4):
        res = run(_with_tail(core, n), 0, far, rendezvous_program(3),
                  rendezvous_program(2 ** 16 - 1), SimConfig(oracle_mode=mode))
        assert res.met
        outcomes.add((res.outcome, res.met_round, res.final1, res.final2,
                      tuple(res.trace.runs())))
    (meeting,) = outcomes
    assert meeting[1] == 89 and sum(count for _, count in meeting[4]) == 90
