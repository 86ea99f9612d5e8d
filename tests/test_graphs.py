import random

import pytest
from hypothesis import given, settings, strategies as st

from rvsim import (
    DisconnectedError,
    DuplicatePortError,
    GraphError,
    GraphFormatError,
    InfeasibleParamsError,
    InvalidParamsError,
    PortGapError,
    PortGraph,
    bfs_distances,
    build,
    butterfly_coords,
    butterfly_index,
    caterpillar_node_count,
    generate_butterfly,
    generate_caterpillar,
    generate_random_connected,
    generate_ring,
    graph_from_text,
    horizontal_distance,
)


def _rescanning_random_connected(size, max_degree, seed):
    """generate_random_connected as it was with a quadratic spanning-tree loop."""
    rng = random.Random(seed)
    deg = [0] * size
    pair_set, edge_pairs = set(), []

    def add(u, v):
        pair_set.add((min(u, v), max(u, v)))
        edge_pairs.append((u, v))
        deg[u] += 1
        deg[v] += 1

    for v in range(1, size):
        add(rng.choice([u for u in range(v) if deg[u] < max_degree]), v)
    for _ in range(size):
        u, v = rng.randrange(size), rng.randrange(size)
        if u == v or deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        if (min(u, v), max(u, v)) in pair_set:
            continue
        add(u, v)
    incident = [[] for _ in range(size)]
    for ei, (u, v) in enumerate(edge_pairs):
        incident[u].append(ei)
        incident[v].append(ei)
    port_of_edge = [dict() for _ in range(size)]
    for v in range(size):
        order = list(incident[v])
        rng.shuffle(order)
        for port, ei in enumerate(order, start=1):
            port_of_edge[v][ei] = port
    return build(size, [(u, port_of_edge[u][ei], v, port_of_edge[v][ei])
                        for ei, (u, v) in enumerate(edge_pairs)])


def scan_ports_and_symmetry(g):
    """Independent full-scan check of the two core invariants."""
    for v in range(g.num_nodes):
        assert list(g.ports(v)) == list(range(1, g.degree(v) + 1))
        for p in g.ports(v):
            w, q = g.neighbor(v, p)
            assert w != v
            assert g.neighbor(w, q) == (v, p)


class TestBuild:
    def test_single_edge(self):
        g = build(2, [(0, 1, 1, 1)])
        assert g.num_nodes == 2 and g.num_edges == 1
        assert g.degree(0) == g.degree(1) == 1

    def test_path_of_three(self):
        g = build(3, [(0, 1, 1, 1), (1, 2, 2, 1)])
        assert g.degree(1) == 2
        scan_ports_and_symmetry(g)

    def test_duplicate_port(self):
        with pytest.raises(DuplicatePortError, match="node 0"):
            build(2, [(0, 1, 1, 1), (0, 1, 1, 2)])

    def test_port_gap(self):
        with pytest.raises(PortGapError, match="node 1"):
            build(3, [(0, 1, 1, 2), (1, 3, 2, 1)])

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            build(4, [(0, 1, 1, 1), (2, 1, 3, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParamsError):
            build(2, [(0, 1, 0, 2)])

    def test_parallel_edge_rejected(self):
        with pytest.raises(InvalidParamsError):
            build(2, [(0, 1, 1, 1), (0, 2, 1, 2)])


class TestCaterpillar:
    @pytest.mark.parametrize("d,degree,expected_n", [
        (2, 3, 8),    # 3 spine + 2+1+2 leaves
        (1, 2, 4),    # two spine nodes, one leaf each
        (3, 2, 6),    # degree-2 spine: endpoint leaves only, a 6-node path
    ])
    def test_node_count_and_degrees(self, d, degree, expected_n):
        # independent counting oracle: spine + endpoint pads + internal pads
        assert caterpillar_node_count(d, degree) == expected_n
        cat = generate_caterpillar(d, degree)
        g = cat.graph
        assert g.num_nodes == expected_n
        for s in cat.spine:
            assert g.degree(s) == degree
        scan_ports_and_symmetry(g)

    @pytest.mark.parametrize("d,degree", [(1, 3), (2, 4), (5, 3), (8, 16), (16, 4)])
    def test_start_distance_is_spine_length(self, d, degree):
        cat = generate_caterpillar(d, degree)
        assert bfs_distances(cat.graph, cat.start1)[cat.start2] == d

    def test_adversarial_policy_puts_spine_forward_last(self):
        cat = generate_caterpillar(2, 4)
        g = cat.graph
        # at both endpoints and at every non-center spine node, the highest
        # port crosses to the spine neighbour on the far side
        assert g.neighbor(0, 4)[0] == 1
        assert g.neighbor(2, 4)[0] == 1

    def test_adversarial_policy_deep_spine(self):
        cat = generate_caterpillar(6, 4)
        g = cat.graph
        for s in cat.spine:
            target = g.neighbor(s, 4)[0]
            if 2 * s < 6:
                assert target == s + 1
            elif 2 * s > 6:
                assert target == s - 1

    def test_random_policy_deterministic_and_valid(self):
        a = generate_caterpillar(3, 5, policy="random", seed=11)
        b = generate_caterpillar(3, 5, policy="random", seed=11)
        c = generate_caterpillar(3, 5, policy="random", seed=12)
        assert a.graph == b.graph
        assert a.graph != c.graph
        scan_ports_and_symmetry(a.graph)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            generate_caterpillar(2, 1)
        with pytest.raises(InvalidParamsError):
            generate_caterpillar(0, 3)


class TestButterfly:
    def test_small_instance_shape(self):
        g = generate_butterfly(3, 4)
        assert g.num_nodes == 12
        assert all(g.degree(v) == 6 for v in range(12))
        assert g.num_edges == 12 * 6 // 2
        scan_ports_and_symmetry(g)

    def test_horizontal_distance_formula(self):
        assert horizontal_distance((0, 1), (2, 1), 8) == 0
        assert horizontal_distance((0, 0), (0, 4), 8) == 4
        assert horizontal_distance((0, 7), (0, 1), 8) == 2
        assert horizontal_distance((0, 0), (1, 2), 4) == 2

    def test_far_columns_distance_equals_horizontal(self):
        g = generate_butterfly(5, 10)
        u = butterfly_index(5, 0, 0)
        v = butterfly_index(5, 0, 5)
        assert bfs_distances(g, u)[v] == 5

    @pytest.mark.parametrize("k,p", [(3, 4), (3, 8), (5, 8), (5, 16), (7, 6), (7, 16)])
    def test_metric_matches_horizontal_when_far(self, k, p):
        g = generate_butterfly(k, p)
        log_k = (k - 1).bit_length()  # ceil(log2 k)
        for u in range(g.num_nodes):
            dist = bfs_distances(g, u)
            cu = butterfly_coords(k, u)
            for v in range(g.num_nodes):
                h = horizontal_distance(cu, butterfly_coords(k, v), p)
                if h >= log_k:
                    assert dist[v] == h
                else:
                    assert dist[v] >= h

    def test_invalid_params(self):
        for k, p in [(4, 8), (2, 8), (1, 8), (3, 2), (13, 4)]:
            with pytest.raises(InvalidParamsError):
                generate_butterfly(k, p)


class TestRing:
    def test_uniform_ring_is_rotation_invariant(self):
        g = generate_ring(6)
        for v in range(6):
            assert g.neighbor(v, 1)[0] == (v + 1) % 6
            assert g.neighbor(v, 2)[0] == (v - 1) % 6
        scan_ports_and_symmetry(g)

    def test_random_ring_valid_and_deterministic(self):
        a = generate_ring(9, policy="random", seed=3)
        assert a == generate_ring(9, policy="random", seed=3)
        scan_ports_and_symmetry(a)

    def test_too_small(self):
        with pytest.raises(InvalidParamsError):
            generate_ring(2)


class TestRandomConnected:
    def test_two_nodes_forced(self):
        g = generate_random_connected(2, 5, seed=9)
        assert g.num_nodes == 2 and g.num_edges == 1

    def test_deterministic(self):
        a = generate_random_connected(50, 8, seed=7)
        b = generate_random_connected(50, 8, seed=7)
        assert a == b
        assert a.to_text() == b.to_text()

    def test_degree_cap_and_connected(self):
        g = generate_random_connected(50, 8, seed=7)
        assert g.max_degree <= 8
        assert all(d >= 0 for d in bfs_distances(g, 0))  # all reachable
        scan_ports_and_symmetry(g)

    def test_infeasible(self):
        with pytest.raises(InfeasibleParamsError):
            generate_random_connected(1, 4, seed=0)
        with pytest.raises(InfeasibleParamsError):
            generate_random_connected(5, 1, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 17, 200, 1000])
    @pytest.mark.parametrize("cap", [2, 3, 5, 8])
    def test_same_graph_as_the_rescanning_loop(self, n, cap):
        # the spanning-tree loop once rebuilt its candidate list per node;
        # the open-node list must hand rng.choice the same list every time
        for seed in (0, 1, 7919):
            assert (generate_random_connected(n, cap, seed).content_hash()
                    == _rescanning_random_connected(n, cap, seed).content_hash())

    @given(st.integers(2, 40), st.integers(2, 9), st.integers(0, 10 ** 6))
    def test_generated_graphs_always_valid(self, n, cap, seed):
        g = generate_random_connected(n, cap, seed)
        assert g.max_degree <= cap
        scan_ports_and_symmetry(g)


_FIELDS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from(["", "x", "1.5", "0x1", "-", "+2", "1_0", "٣", "\x00"]))


@st.composite
def _mutated_graph_text(draw):
    """A valid small graph file with a few fields or lines changed."""
    g = generate_random_connected(draw(st.integers(2, 8)), draw(st.integers(2, 4)),
                                  draw(st.integers(0, 50)))
    lines = [ln.split() for ln in g.to_text().splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["set", "drop", "append", "drop_line", "dup_line"]))
        if op == "set" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(_FIELDS)
        elif op == "drop" and lines[i]:
            lines[i].pop(draw(st.integers(0, len(lines[i]) - 1)))
        elif op == "append":
            lines[i].append(draw(_FIELDS))
        elif op == "drop_line" and len(lines) > 1:
            lines.pop(i)
        elif op == "dup_line":
            lines.insert(i, list(lines[i]))
    tail = draw(st.sampled_from(["", "\n", "\n\n", "\n \n", "\r\n"]))
    return "\n".join(" ".join(fields) for fields in lines) + tail


class TestFileFormat:
    def test_round_trip_bit_exact(self):
        g = generate_random_connected(20, 5, seed=2)
        text = g.to_text()
        assert graph_from_text(text) == g
        assert graph_from_text(text).to_text() == text

    def test_header_and_shape(self):
        text = build(2, [(0, 1, 1, 1)]).to_text()
        assert text == "2 1\n0 1 1 1\n"

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            graph_from_text("oops\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            graph_from_text("2 1\n0 1 1\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            graph_from_text("2 1\n0 1 x 1\n")
        with pytest.raises(GraphFormatError):
            graph_from_text("3 1\n0 1 1 1\n")  # disconnected

    def test_header_node_count_checked_before_building(self):
        # a connected graph has at most m + 1 nodes; a larger header count
        # is refused before any per-node state is allocated
        with pytest.raises(GraphFormatError, match="line 1"):
            graph_from_text("1" + "0" * 30 + " 0\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_mutated_graph_text(), st.text(max_size=60)))
    def test_any_text_parses_or_raises_graph_error(self, text):
        try:
            g = graph_from_text(text)
        except GraphError:
            return
        assert isinstance(g, PortGraph)
        assert graph_from_text(g.to_text()) == g

    def test_content_hash_stable(self):
        g = generate_ring(8)
        assert g.content_hash() == generate_ring(8).content_hash()
        assert g.content_hash() != generate_ring(10).content_hash()
