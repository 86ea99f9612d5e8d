import random
from collections import deque

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


def _reference_build(n, edges):
    """build as it was with a tuple pair key, a sorted-ports check and a
    separate set-based connectivity search."""
    if n < 1:
        raise InvalidParamsError("need at least one node")
    port_maps = [dict() for _ in range(n)]
    seen_pairs = set()
    for u, pu, v, pv in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParamsError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise InvalidParamsError(f"self-loop at node {u}")
        if pu < 1 or pv < 1:
            raise InvalidParamsError(f"ports must be >= 1, got ({pu}, {pv})")
        if pu in port_maps[u]:
            raise DuplicatePortError(f"node {u}: port {pu} assigned twice")
        if pv in port_maps[v]:
            raise DuplicatePortError(f"node {v}: port {pv} assigned twice")
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise InvalidParamsError(f"parallel edge between {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
        port_maps[u][pu] = (v, pv)
        port_maps[v][pv] = (u, pu)
    adj_rows = []
    for v, pm in enumerate(port_maps):
        deg = len(pm)
        if sorted(pm) != list(range(1, deg + 1)):
            raise PortGapError(f"node {v}: ports {sorted(pm)} are not exactly 1..{deg}")
        adj_rows.append(tuple(pm[p] for p in range(1, deg + 1)))
    g = PortGraph(tuple(adj_rows))
    if n > 1:
        seen, queue = {0}, deque([0])
        while queue:
            v = queue.popleft()
            for p in g.ports(v):
                w, _ = g.neighbor(v, p)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != n:
            missing = min(set(range(n)) - seen)
            raise DisconnectedError(f"graph not connected: node {missing} unreachable from 0")
    return g


def _reference_graph_from_text(text):
    """graph_from_text as it was, with a body copy and per-field int calls."""
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("empty input", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("expected 'n m' header", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError("non-integer header", line=1) from None
    if n > m + 1:
        raise GraphFormatError(f"{n} nodes cannot be connected by {m} edges", line=1)
    edges = []
    body = [ln for ln in lines[1:]]
    while body and not body[-1].strip():
        body.pop()
    if len(body) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(body)}", line=len(lines))
    for idx, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 4:
            raise GraphFormatError("expected 'u p_u v p_v'", line=idx)
        try:
            u, pu, v, pv = (int(x) for x in parts)
        except ValueError:
            raise GraphFormatError("non-integer field", line=idx) from None
        edges.append((u, pu, v, pv))
    try:
        return _reference_build(n, edges)
    except GraphError as exc:
        if isinstance(exc, GraphFormatError):
            raise
        raise GraphFormatError(str(exc)) from exc


def _reference_to_text(g):
    """PortGraph.to_text as it was, rendered through edges()."""
    lines = [f"{g.num_nodes} {g.num_edges}"]
    lines.extend(f"{u} {pu} {v} {pv}" for u, pu, v, pv in g.edges())
    return "\n".join(lines) + "\n"


def _outcome(fn, *args):
    """What a call gives: ("ok", value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


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


@st.composite
def _edge_lists(draw):
    """``(n, edges)`` for build: a small valid graph's edges, shuffled and
    reoriented, then broken in zero or more ways."""
    n = draw(st.integers(1, 8))
    edges = []
    if n > 1:
        g = generate_random_connected(n, draw(st.integers(2, 4)), draw(st.integers(0, 10 ** 6)))
        edges = [list(e) for e in g.edges()]
    edges = [e[2:] + e[:2] if draw(st.booleans()) else e for e in draw(st.permutations(edges))]
    kinds = ("endpoint", "self-loop", "port", "duplicate", "parallel", "gap", "drop",
             "union", "grow", "shrink", "one-node")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        degree = [0] * n
        for u, _, v, _ in edges:
            if 0 <= u < n and 0 <= v < n:
                degree[u] += 1
                degree[v] += 1
        e = edges[draw(st.integers(0, len(edges) - 1))] if edges else None
        end = draw(st.sampled_from((0, 2)))  # which endpoint of e to touch
        if kind == "union":  # a second component on nodes n..
            k = draw(st.integers(1, 4))
            if k > 1:
                other = generate_random_connected(k, 3, draw(st.integers(0, 99)))
                edges += [[u + n, pu, v + n, pv] for u, pu, v, pv in other.edges()]
            n += k
        elif kind == "grow":
            n += 1
        elif kind == "shrink":
            n -= 1
        elif kind == "one-node":
            n = 1
        elif e is None:
            continue
        elif kind == "endpoint":
            e[end] = draw(st.sampled_from((-1, n, n + 2)))
        elif kind == "self-loop":
            e[2 - end] = e[end]
        elif kind == "port":
            e[end + 1] = draw(st.integers(-2, 0))
        elif kind == "duplicate":  # a new edge reusing a port of e's endpoint
            edges.append([e[end], e[end + 1], draw(st.integers(0, max(n - 1, 0))),
                          draw(st.integers(1, 4))])
        elif kind == "parallel":  # e again, either way round, on fresh ports
            u, v = e[end], e[2 - end]
            if 0 <= u < n and 0 <= v < n:
                edges.append([u, degree[u] + 1, v, degree[v] + 1])
        elif kind == "gap":
            e[end + 1] += draw(st.integers(1, 3))
        elif kind == "drop":
            edges.remove(e)
    return n, [tuple(e) for e in edges]


@st.composite
def _graph_files(draw):
    """The file of an ``_edge_lists`` case, with at most one field respelled."""
    n, edges = draw(_edge_lists())
    lines = [[str(n), str(len(edges))]] + [list(map(str, e)) for e in edges]
    if draw(st.booleans()):
        fields = lines[draw(st.integers(0, len(lines) - 1))]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELDS)
    return "".join(" ".join(fields) + "\n" for fields in lines)


class TestAgainstReference:
    """build, graph_from_text and to_text give what the earlier versions
    gave: equal graphs, equal bytes, or the same error type and message."""

    @settings(max_examples=250, deadline=None)
    @given(_edge_lists())
    def test_build(self, case):
        n, edges = case
        assert _outcome(build, n, edges) == _outcome(_reference_build, n, edges)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_mutated_graph_text(), _graph_files()))
    def test_graph_from_text(self, text):
        assert _outcome(graph_from_text, text) == _outcome(_reference_graph_from_text, text)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        st.builds(lambda d, k, seed: generate_caterpillar(d, k, "random", seed).graph,
                  st.integers(1, 6), st.integers(2, 6), st.integers(0, 99)),
        st.builds(generate_butterfly, st.sampled_from((3, 5)), st.integers(6, 9)),
        st.builds(generate_ring, st.integers(3, 20), st.just("random"), st.integers(0, 99)),
        st.builds(generate_random_connected, st.integers(2, 60), st.integers(2, 8),
                  st.integers(0, 10 ** 6))))
    def test_to_text(self, g):
        assert g.to_text() == _reference_to_text(g)

    def test_single_node(self):
        assert build(1, []).to_text() == _reference_to_text(_reference_build(1, [])) == "1 0\n"
