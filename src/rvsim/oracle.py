"""Distance queries over port graphs: an oracle built from resumable
per-source BFS rows, and change signs.

The one BFS loop, ``bfs_distances``, lives in ``graphs`` next to the
adjacency it walks; ``build`` checks connectivity with it. It can stop once
a target has its distance and be resumed later from the queue it left. The
oracle keeps one such partial search per source and extends it only as far
as the queries need, so a run pays for the nodes its queries reach rather
than for the whole graph. The oracle calls it through this module's global,
so a wrapper set on ``rvsim.oracle.bfs_distances`` sees the oracle's searches.
"""

from __future__ import annotations

from collections import deque
from enum import Enum

from .graphs import PortGraph, bfs_distances


class DistanceDelta(Enum):
    """Sign of the distance change over one round."""

    DECREASED = "decreased"
    SAME = "same"
    INCREASED = "increased"


# bound once: an Enum member read through its class is a slow attribute lookup
_DECREASED = DistanceDelta.DECREASED
_SAME = DistanceDelta.SAME
_INCREASED = DistanceDelta.INCREASED


def delta(prev: int, curr: int) -> DistanceDelta:
    if prev < 0 or curr < 0:
        raise ValueError("distances are non-negative")
    if curr < prev:
        return _DECREASED
    if curr > prev:
        return _INCREASED
    return _SAME


class DistanceOracle:
    """Per-run exact distance device over one immutable graph.

    Construction does no work. The oracle keeps, for each source it has
    searched from, that search's ``dist`` list and its BFS queue: a row that
    is exact wherever it is filled in and that can be resumed. A query is
    answered from the row of either endpoint when that row already reaches
    the other one; otherwise a row of one endpoint is extended until it does,
    and when neither endpoint has a row, a new row starts at ``v``. In a
    simulation one agent often stays put while the other tries its ports one
    by one; when the agent that stays has a row, that row answers the whole
    sweep, each port at most one BFS level further on.

    The rows hold at most ``ROW_LIMIT`` list entries in all (one row when a
    single row is larger); when the next row would pass that, the rows are
    dropped, so memory stays flat over arbitrarily long runs.

    ``table_threshold`` is ignored; it is accepted so that callers written for
    the former table-building oracle keep working.
    """

    ROW_LIMIT = 1 << 18

    def __init__(self, g: PortGraph, table_threshold: int | None = None):
        self._g = g
        self._rows: dict[int, tuple[list[int], deque[int]]] = {}
        self._held = 0  # list entries across the rows

    def distance(self, u: int, v: int) -> int:
        if u == v:
            return 0
        rows = self._rows
        row = rows.get(u)
        if row is not None and row[0][v] >= 0:
            return row[0][v]
        other = rows.get(v)
        if other is not None:
            return other[0][u] if other[0][u] >= 0 else bfs_distances(self._g, v, u, other)[u]
        if row is not None:
            return bfs_distances(self._g, u, v, row)[v]
        n = self._g.num_nodes
        if self._held + n > self.ROW_LIMIT:
            rows.clear()
            self._held = 0
        self._held += n
        row = rows[v] = ([-1] * n, deque([v]))
        return bfs_distances(self._g, v, u, row)[u]
