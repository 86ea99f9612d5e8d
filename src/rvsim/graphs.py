"""Port-labelled anonymous graphs: representation, validation, BFS distances,
generators, file I/O.

Every node of degree d labels its incident edges with the ports 1..d; the two
endpoints of an edge carry independent port numbers. Walking agents only ever
see degrees and ports -- the integer node ids used here exist purely on the
hosting side.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator


class GraphError(ValueError):
    """Base class for graph construction and validation failures."""


class DuplicatePortError(GraphError):
    """Same port number assigned twice at one node."""


class PortGapError(GraphError):
    """Ports at a node are not exactly 1..deg."""


class DisconnectedError(GraphError):
    """The edge set does not connect all nodes."""


class InvalidParamsError(GraphError):
    """Generator or builder called with parameters outside its contract."""


class InfeasibleParamsError(GraphError):
    """No graph satisfies the requested constraints."""


class GraphFormatError(GraphError):
    """Malformed graph file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class PortGraph:
    """Immutable, connected, simple graph with per-endpoint port labels.

    ``neighbor(v, p)`` follows port ``p`` (1-based) out of ``v`` and returns
    ``(w, q)``: the node reached and the entry port of the traversed edge at
    ``w``. Instances are safe to share read-only between concurrent runs.
    """

    __slots__ = ("_adj", "_max_degree", "_num_edges")

    def __init__(self, adj: tuple[tuple[tuple[int, int], ...], ...]):
        self._adj = adj
        self._max_degree = max(map(len, adj), default=0)
        self._num_edges = sum(map(len, adj)) // 2

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbor(self, v: int, port: int) -> tuple[int, int]:
        """Return ``(node, entry_port)`` reached through ``port`` at ``v``."""
        return self._adj[v][port - 1]

    def ports(self, v: int) -> range:
        return range(1, len(self._adj[v]) + 1)

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield each edge once as ``(u, port_u, v, port_v)`` with u < v,
        sorted by (u, port_u)."""
        for u, row in enumerate(self._adj):
            for pu, (v, pv) in enumerate(row, start=1):
                if u < v:
                    yield u, pu, v, pv

    def to_text(self) -> str:
        return f"{self.num_nodes} {self._num_edges}\n" + "".join(
            f"{u} {pu} {v} {pv}\n" for u, pu, v, pv in self.edges())

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PortGraph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"PortGraph(n={self.num_nodes}, m={self.num_edges}, max_degree={self.max_degree})"


def build(n: int, edges: list[tuple[int, int, int, int]]) -> PortGraph:
    """Assemble and validate a PortGraph from ``(u, port_u, v, port_v)`` tuples.

    Enforces: distinct dense ports 1..deg at every node, edge symmetry, no
    self-loops, no parallel edges, connectivity.
    """
    if n < 1:
        raise InvalidParamsError("need at least one node")
    port_maps: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    seen_pairs: set[tuple[int, int]] = set()
    for u, pu, v, pv in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParamsError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise InvalidParamsError(f"self-loop at node {u}")
        if pu < 1 or pv < 1:
            raise InvalidParamsError(f"ports must be >= 1, got ({pu}, {pv})")
        at_u = port_maps[u]
        at_v = port_maps[v]
        if pu in at_u:
            raise DuplicatePortError(f"node {u}: port {pu} assigned twice")
        if pv in at_v:
            raise DuplicatePortError(f"node {v}: port {pv} assigned twice")
        pair = (u, v) if u < v else (v, u)
        if pair in seen_pairs:
            raise InvalidParamsError(f"parallel edge between {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
        at_u[pu] = (v, pv)
        at_v[pv] = (u, pu)

    adj_rows = []
    for v, pm in enumerate(port_maps):
        # the ports at v are distinct integers >= 1, so they are exactly
        # 1..deg when the largest is deg
        deg = len(pm)
        if deg and max(pm) != deg:
            raise PortGapError(f"node {v}: ports {sorted(pm)} are not exactly 1..{deg}")
        adj_rows.append(tuple(map(pm.__getitem__, range(1, deg + 1))))

    g = PortGraph(tuple(adj_rows))
    dist = bfs_distances(g, 0)
    if -1 in dist:
        raise DisconnectedError(f"graph not connected: node {dist.index(-1)} unreachable from 0")
    return g


def bfs_distances(g: PortGraph, source: int, target: int | None = None,
                  row: tuple[list[int], deque[int]] | None = None) -> list[int]:
    """Distances from ``source`` to every node; -1 for nodes not reached.

    This is rvsim's one BFS loop: ``build`` checks connectivity with it, and
    the distance oracle, the CLI and the release gate measure with it. With a
    ``target`` the search stops once the target has its distance. A distance
    is final when the search first assigns it, so the list is exact wherever
    it is not -1. ``row`` is a ``(dist, queue)`` pair that an earlier search
    from ``source`` left behind; the search resumes from its queue and fills
    in its ``dist``, which it returns.
    """
    dist, queue = row or ([-1] * g.num_nodes, deque([source]))
    dist[source] = 0
    adj = g._adj
    while queue and (target is None or dist[target] < 0):
        v = queue.popleft()
        dv = dist[v] + 1
        for w, _ in adj[v]:
            if dist[w] < 0:
                dist[w] = dv
                queue.append(w)
    return dist


# ----------------------------------------------------------------------------
# graph file format: line 1 "n m", then m lines "u p_u v p_v"
# (0-based nodes, 1-based ports). Writing is canonical, so text -> graph ->
# text round-trips bit-exactly.
# ----------------------------------------------------------------------------

def graph_from_text(text: str) -> PortGraph:
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
    if n > m + 1:  # checked before build allocates per-node state for n
        raise GraphFormatError(f"{n} nodes cannot be connected by {m} edges", line=1)
    # allow (and ignore) trailing blank lines only
    end = len(lines)
    while end > 1 and not lines[end - 1].strip():
        end -= 1
    if end - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, found {end - 1}", line=len(lines))
    edges = []
    for idx in range(1, end):
        parts = lines[idx].split()
        if len(parts) != 4:
            raise GraphFormatError("expected 'u p_u v p_v'", line=idx + 1)
        try:
            edges.append(tuple(map(int, parts)))
        except ValueError:
            raise GraphFormatError("non-integer field", line=idx + 1) from None
    try:
        return build(n, edges)
    except GraphError as exc:
        if isinstance(exc, GraphFormatError):
            raise
        raise GraphFormatError(str(exc)) from exc


def save_graph(g: PortGraph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(g.to_text())


def load_graph(path: str) -> PortGraph:
    with open(path, "r", encoding="ascii") as fh:
        return graph_from_text(fh.read())


# ----------------------------------------------------------------------------
# caterpillar: a spine path padded with leaves so every spine node has the
# same degree. The two designated starts are the spine endpoints.
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CaterpillarGraph:
    graph: PortGraph
    start1: int
    start2: int
    spine: tuple[int, ...]


def generate_caterpillar(spine_length: int, degree: int,
                         policy: str = "adversarial", seed: int = 0) -> CaterpillarGraph:
    """Spine of ``spine_length``+1 nodes, leaf-padded to uniform ``degree``.

    Node layout: spine nodes are 0..spine_length, leaves follow grouped by
    spine node. ``policy`` chooses the port placement:

    * ``adversarial`` -- at every spine node the spine edge pointing toward
      the far half gets the highest port, so an ascending port probe pays for
      every other edge first;
    * ``random`` -- ports shuffled per node from ``seed``.
    """
    if spine_length < 1:
        raise InvalidParamsError("spine_length must be >= 1")
    if degree < 2:
        raise InvalidParamsError("degree must be >= 2 (internal spine nodes need two spine edges)")
    d = spine_length
    spine = tuple(range(d + 1))
    leaves_of: dict[int, list[int]] = {}
    next_id = d + 1
    for s in spine:
        want = degree - 1 if s in (0, d) else degree - 2
        leaves_of[s] = list(range(next_id, next_id + want))
        next_id += want
    n = next_id
    edges = _caterpillar_edges(spine, leaves_of, policy, seed)
    return CaterpillarGraph(build(n, edges), start1=0, start2=d, spine=spine)


def _caterpillar_edges(spine: tuple[int, ...], leaves_of: dict[int, list[int]],
                       policy: str, seed: int) -> list[tuple[int, int, int, int]]:
    d = len(spine) - 1
    rng = random.Random(seed)
    _RANK = {"leaf": 0, "back": 1, "fwd": 2}
    ordered_of: dict[int, list[tuple[int, str]]] = {}
    for idx, s in enumerate(spine):
        row: list[tuple[int, str]] = []
        # "fwd" points at the half where the other agent sits; the exact
        # middle of an even spine ties and points right (never probed anyway).
        if idx < d:
            row.append((spine[idx + 1], "fwd" if 2 * idx <= d else "back"))
        if idx > 0:
            row.append((spine[idx - 1], "back" if 2 * idx <= d else "fwd"))
        row.extend((leaf, "leaf") for leaf in leaves_of[s])
        if policy == "adversarial":
            row.sort(key=lambda e: _RANK[e[1]])
        elif policy == "random":
            rng.shuffle(row)
        else:
            raise InvalidParamsError(f"unknown port policy {policy!r}")
        ordered_of[s] = row

    port_at = {(s, nb): port
               for s, row in ordered_of.items()
               for port, (nb, _) in enumerate(row, start=1)}
    edges = []
    for s, row in ordered_of.items():
        for port, (nb, kind) in enumerate(row, start=1):
            if kind == "leaf":
                edges.append((s, port, nb, 1))
            elif s < nb:
                edges.append((s, port, nb, port_at[(nb, s)]))
    return edges


def caterpillar_node_count(spine_length: int, degree: int) -> int:
    """Closed-form node count: spine + endpoint leaves + internal leaves."""
    return (spine_length + 1) + 2 * (degree - 1) + (spine_length - 1) * (degree - 2)


# ----------------------------------------------------------------------------
# clique-columns-on-a-ring family: p columns of k-cliques (k odd), column j
# linked to column j+1 by the doubling map i -> {2i, 2i+1} (mod k). The result
# is (k+3)-regular and, for column separations of at least log2(k), graph
# distance equals column separation.
# ----------------------------------------------------------------------------

def butterfly_index(clique_size: int, row: int, column: int) -> int:
    return column * clique_size + row


def butterfly_coords(clique_size: int, node: int) -> tuple[int, int]:
    return node % clique_size, node // clique_size


def _check_butterfly_params(clique_size: int, columns: int) -> None:
    k = clique_size
    if k < 3 or k % 2 == 0:
        raise InvalidParamsError(f"clique size must be odd and >= 3, got {k}")
    min_cols = max(3, 2 * ((k).bit_length() - 1))  # 2*floor(log2 k), and 3 to stay simple
    if columns < min_cols:
        raise InvalidParamsError(f"need at least {min_cols} columns for clique size {k}, got {columns}")


def butterfly_topology(clique_size: int, columns: int) -> list[tuple[int, int]]:
    """Edge list (unported) of the k-clique ring with doubling-map bridges."""
    _check_butterfly_params(clique_size, columns)
    k, p = clique_size, columns
    pairs = []
    for j in range(p):
        for i in range(k):
            u = butterfly_index(k, i, j)
            for i2 in range(i + 1, k):
                pairs.append((u, butterfly_index(k, i2, j)))
            jn = (j + 1) % p
            pairs.append((u, butterfly_index(k, (2 * i) % k, jn)))
            pairs.append((u, butterfly_index(k, (2 * i + 1) % k, jn)))
    return pairs


def generate_butterfly(clique_size: int, columns: int) -> PortGraph:
    """Topology with a canonical numbering: ports follow ascending neighbor ids."""
    pairs = butterfly_topology(clique_size, columns)
    n = clique_size * columns
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    port_at: list[dict[int, int]] = []
    for v in range(n):
        port_at.append({w: i for i, w in enumerate(sorted(nbrs[v]), start=1)})
    edges = [(u, port_at[u][v], v, port_at[v][u]) for u, v in pairs]
    return build(n, edges)


def horizontal_distance(a: tuple[int, int], b: tuple[int, int], columns: int) -> int:
    """Column separation around the ring; rows do not matter."""
    j1, j2 = a[1], b[1]
    return min((j1 - j2) % columns, (j2 - j1) % columns)


# ----------------------------------------------------------------------------
# rings and random connected graphs (test corpus plumbing)
# ----------------------------------------------------------------------------

def generate_ring(size: int, policy: str = "uniform", seed: int = 0) -> PortGraph:
    """Cycle of ``size`` nodes.

    ``uniform`` numbering gives every node port 1 clockwise and port 2
    counterclockwise; it is invariant under all rotations, so two identical
    agents started anywhere stay rotation-related forever. ``random`` flips
    the two ports per node from ``seed``.
    """
    if size < 3:
        raise InvalidParamsError("ring needs at least 3 nodes")
    rng = random.Random(seed)
    edges = []
    cw_port = {}
    for v in range(size):
        if policy == "uniform":
            cw_port[v] = 1
        elif policy == "random":
            cw_port[v] = rng.choice((1, 2))
        else:
            raise InvalidParamsError(f"unknown ring numbering {policy!r}")
    for v in range(size):
        w = (v + 1) % size
        edges.append((v, cw_port[v], w, 3 - cw_port[w]))
    return build(size, edges)


def generate_random_connected(size: int, max_degree: int, seed: int) -> PortGraph:
    """Seed-deterministic connected graph with max degree <= ``max_degree``."""
    if size < 2:
        raise InfeasibleParamsError("need at least 2 nodes")
    if max_degree < 2:
        raise InfeasibleParamsError("max_degree must be >= 2")
    rng = random.Random(seed)
    deg = [0] * size
    pair_set: set[tuple[int, int]] = set()
    edge_pairs: list[tuple[int, int]] = []

    def add(u: int, v: int) -> None:
        pair_set.add((min(u, v), max(u, v)))
        edge_pairs.append((u, v))
        deg[u] += 1
        deg[v] += 1

    # random spanning tree under the degree cap; a tree always has a node of
    # degree < 2, so open_nodes is never empty while max_degree >= 2. It holds
    # the nodes below v with spare degree in ascending order, exactly what a
    # scan of 0..v-1 would list, so rng.choice and the graph for a seed are
    # the same as with that scan.
    open_nodes = [0]
    for v in range(1, size):
        u = rng.choice(open_nodes)
        add(u, v)
        if deg[u] >= max_degree:
            del open_nodes[bisect_left(open_nodes, u)]
        open_nodes.append(v)
    # sprinkle extra edges where capacity remains
    for _ in range(size):
        u = rng.randrange(size)
        v = rng.randrange(size)
        if u == v or deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        if (min(u, v), max(u, v)) in pair_set:
            continue
        add(u, v)

    incident: list[list[int]] = [[] for _ in range(size)]  # edge indices per node
    for ei, (u, v) in enumerate(edge_pairs):
        incident[u].append(ei)
        incident[v].append(ei)
    port_of_edge: list[dict[int, int]] = [dict() for _ in range(size)]
    for v in range(size):
        order = list(incident[v])
        rng.shuffle(order)
        for port, ei in enumerate(order, start=1):
            port_of_edge[v][ei] = port
    edges = [(u, port_of_edge[u][ei], v, port_of_edge[v][ei])
             for ei, (u, v) in enumerate(edge_pairs)]
    return build(size, edges)


# ----------------------------------------------------------------------------
# family registry: generate, sweep and the release gate build graphs by
# family name and parameters through it
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """How to build one graph family, and its designated starts if it has any."""

    params: tuple[str, ...]  # generator arguments, in Cell.params / CSV order
    defaults: dict  # values of the params a caller may omit
    generate: Callable[..., PortGraph]
    starts: Callable[[dict], tuple[int, int]] | None = None  # designated starts


# each lambda looks its generator up when called, so a wrapper installed on a
# module-level generator (a profiler's, say) sees registry calls too
FAMILIES = {
    "caterpillar": Family(("spine_length", "degree", "policy", "seed"),
                          {"policy": "adversarial", "seed": 0},
                          lambda *a: generate_caterpillar(*a).graph,
                          lambda p: (0, p["spine_length"])),  # the spine endpoints
    "butterfly": Family(("clique_size", "columns"), {},
                        lambda *a: generate_butterfly(*a),
                        lambda p: (butterfly_index(p["clique_size"], 0, 0),
                                   butterfly_index(p["clique_size"], 0, p["columns"] // 2))),
    "ring": Family(("size", "numbering", "seed"), {"numbering": "uniform", "seed": 0},
                   lambda *a: generate_ring(*a)),
    "random": Family(("size", "max_degree", "seed"), {},
                     lambda *a: generate_random_connected(*a)),
}


def materialize(family: str, params: dict) -> PortGraph:
    """The graph of ``family`` with ``params``, omitted ones defaulted."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fam = FAMILIES[family]
    values = {**fam.defaults, **params}
    return fam.generate(*(values[name] for name in fam.params))
