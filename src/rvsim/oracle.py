"""Distance queries over port graphs: exact BFS, a lazy per-pair oracle,
change signs.

The oracle answers each query with a BFS from one endpoint that stops at the
other, so a run pays for the pairs it reads rather than for the whole graph.
``all_pairs`` builds the full table; it is kept as an independent reference
for tests and the release gate, not used by the engine.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from .graphs import PortGraph


class DistanceDelta(Enum):
    """Sign of the distance change over one round."""

    DECREASED = "decreased"
    SAME = "same"
    INCREASED = "increased"


def delta(prev: int, curr: int) -> DistanceDelta:
    if prev < 0 or curr < 0:
        raise ValueError("distances are non-negative")
    if curr < prev:
        return DistanceDelta.DECREASED
    if curr > prev:
        return DistanceDelta.INCREASED
    return DistanceDelta.SAME


class TooLargeError(ValueError):
    """Graph exceeds the all-pairs table threshold."""


def bfs_distances(g: PortGraph, source: int, target: int | None = None) -> list[int]:
    """Distances from ``source`` to every node; stops early once ``target`` is set."""
    dist = [-1] * g.num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            break
        dv = dist[v]
        for p in g.ports(v):
            w, _ = g.neighbor(v, p)
            if dist[w] < 0:
                dist[w] = dv + 1
                queue.append(w)
    return dist


def all_pairs(g: PortGraph, max_nodes: int = 4096) -> list[list[int]]:
    """Full n-by-n distance table; refuses graphs above ``max_nodes``."""
    if g.num_nodes > max_nodes:
        raise TooLargeError(f"{g.num_nodes} nodes exceeds table threshold {max_nodes}")
    return [bfs_distances(g, s) for s in range(g.num_nodes)]


class DistanceOracle:
    """Per-run exact distance device over one immutable graph.

    Construction does no work. Each query runs an early-stopping BFS and
    memoises the answer on the unordered endpoint pair, which suits simulation
    queries whose endpoints drift one hop per round. The memo holds at most
    ``MEMO_LIMIT`` pairs and is emptied when full, so it stays flat over
    arbitrarily long runs.

    ``table_threshold`` is ignored; it is accepted so that callers written for
    the former table-building oracle keep working.
    """

    MEMO_LIMIT = 1 << 12

    def __init__(self, g: PortGraph, table_threshold: int | None = None):
        self._g = g
        self._memo: dict[tuple[int, int], int] = {}

    def distance(self, u: int, v: int) -> int:
        if u == v:
            return 0
        key = (u, v) if u < v else (v, u)
        memo = self._memo
        d = memo.get(key)
        if d is None:
            if len(memo) >= self.MEMO_LIMIT:
                memo.clear()
            d = memo[key] = bfs_distances(self._g, key[0], target=key[1])[key[1]]
        return d
