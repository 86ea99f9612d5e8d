"""Synchronous two-agent round engine: lockstep execution, rendezvous
detection, trace capture, and trace replay validation.

Round structure: both agents receive an Observation (degree, last arrival
port, one distance reading), both answer with a port, both moves apply
atomically, and the round is recorded in the trace. Agents that cross on the
same edge swap without meeting; only co-location at a round boundary ends the
run. The distance reading is pushed into the Observation rather than exposed
as a callable, so a program cannot query more than once per round.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat, starmap
from typing import IO, Iterable, Iterator, NamedTuple

from .agents import AgentProgram, Observation
from .graphs import PortGraph
from .oracle import DistanceDelta, DistanceOracle, delta

MET = "met"
CAP = "cap"

_ORACLE_MODES = ("exact", "delta")
_TRACE_DETAILS = ("full", "meeting-only")
# bound once: an Enum member read through its class is a slow attribute lookup
_SAME = DistanceDelta.SAME


class InvalidStartError(ValueError):
    pass


class TraceFormatError(ValueError):
    """Malformed trace file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def check_starts(g: PortGraph, start1: int, start2: int) -> None:
    """Raise InvalidStartError unless both starts are nodes of ``g``."""
    n = g.num_nodes
    if not (0 <= start1 < n and 0 <= start2 < n):
        raise InvalidStartError(f"starts ({start1}, {start2}) outside 0..{n - 1}")


@dataclass(frozen=True)
class SimConfig:
    round_cap: int = 10 ** 6
    oracle_mode: str = "exact"
    trace_detail: str = "full"

    def __post_init__(self):
        if self.round_cap < 1:
            raise ValueError("round_cap must be >= 1")
        if self.oracle_mode not in _ORACLE_MODES:
            raise ValueError(f"oracle_mode must be one of {_ORACLE_MODES}")
        if self.trace_detail not in _TRACE_DETAILS:
            raise ValueError(f"trace_detail must be one of {_TRACE_DETAILS}")


class TraceRow(NamedTuple):
    """One round: start positions and distance, chosen ports, entry ports,
    and positions after the atomic moves."""

    round: int
    pos1: int
    pos2: int
    dist: int
    port1: int
    port2: int
    arrival1: int
    arrival2: int
    next1: int
    next2: int


class Trace(Sequence):
    """A full trace, held as maximal runs of rows with consecutive rounds and
    equal last nine fields: each run is its first row and the number of rows
    it stands for. It reads as a sequence of TraceRows, built on demand, so
    ``len`` is the row count. It equals another Trace run by run, and any
    other sequence row by row."""

    def __init__(self, rows: Iterable[TraceRow] = ()):
        if isinstance(rows, Trace):
            self._heads, self._starts, self._len = rows._heads, rows._starts, rows._len
            return
        heads: list[TraceRow] = []
        starts: list[int] = []
        n = 0
        nxt = tail = None  # the round after the last row, and its last nine fields
        for row in rows:
            rest = row[1:]
            if row[0] != nxt or rest != tail:
                heads.append(row)
                starts.append(n)
                tail = rest
            nxt = row[0] + 1
            n += 1
        self._heads, self._starts, self._len = heads, starts, n

    @classmethod
    def _from_runs(cls, heads: list[TraceRow], starts: list[int], rows: int) -> Trace:
        """The trace of maximal runs with these first rows, starting at these
        row indices, that come to ``rows`` rows in all."""
        trace = cls.__new__(cls)
        trace._heads, trace._starts, trace._len = heads, starts, rows
        return trace

    def runs(self) -> Iterator[tuple[TraceRow, int]]:
        """Each run's first row and the number of rows it stands for."""
        starts = self._starts
        return zip(self._heads, map(operator.sub, starts[1:] + [self._len], starts))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[TraceRow]:
        return chain.from_iterable(starmap(_run_rows, self.runs()))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._len))]
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("trace index out of range")
        k = bisect_right(self._starts, i) - 1
        head, offset = self._heads[k], i - self._starts[k]
        return tuple.__new__(TraceRow, (head[0] + offset, *head[1:])) if offset else head

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return (self._len == other._len and self._starts == other._starts
                    and self._heads == other._heads)
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._len == len(other) and all(map(operator.eq, self, other))


def _run_rows(head: TraceRow, count: int) -> Iterable[TraceRow]:
    """The rows of a run, built on demand after its first."""
    if count == 1:
        return (head,)
    rnd, *tail = head
    return chain((head,), map(tuple.__new__, repeat(TraceRow),
                              zip(range(rnd + 1, rnd + count), *map(repeat, tail))))


@dataclass
class RunResult:
    outcome: str  # MET or CAP
    met_round: int | None
    rounds: int
    final1: int
    final2: int
    min_distance: int
    trace: Trace | None = field(default=None, repr=False)

    @property
    def met(self) -> bool:
        return self.outcome == MET


def run(g: PortGraph, start1: int, start2: int,
        prog1: AgentProgram, prog2: AgentProgram,
        cfg: SimConfig | None = None) -> RunResult:
    """Drive both programs until they co-locate or the round cap is reached.

    Met at round r means the agents shared a node after round r's moves;
    co-located starts report met at round 0 with an empty trace.
    """
    cfg = cfg or SimConfig()
    check_starts(g, start1, start2)

    keep_rows = cfg.trace_detail == "full"
    heads: list[TraceRow] | None = [] if keep_rows else None  # the first row of each run
    if start1 == start2:
        return RunResult(MET, 0, 0, start1, start2, 0, _trace(heads, 0))

    adj = g._adj
    new = tuple.__new__  # skips TraceRow's argument parsing
    step1, step2 = prog1.step, prog2.step
    distance = DistanceOracle(g).distance
    exact = cfg.oracle_mode == "exact"
    pos1, pos2 = start1, start2
    ports1, ports2 = adj[pos1], adj[pos2]
    d = min_d = distance(pos1, pos2)
    reading = d if exact else _SAME
    obs1 = Observation(len(ports1), 0, reading)
    obs2 = Observation(len(ports2), 0, reading)
    moved = False  # the last round moved an agent, so obs1/obs2 carry its arrivals
    # the ports of the last round if it moved no agent: a round that chooses
    # them again moves no agent either and repeats that round's last nine
    # fields, so it extends the trace's last run and leaves the observations
    # as they are (graphs have no self-loops, so a round that moves an agent
    # never repeats its row)
    q1 = q2 = None

    for r in range(cfg.round_cap):
        port1 = step1(obs1)
        port2 = step2(obs2)
        if port1 == q1 and port2 == q2:
            continue
        next1, a1 = ports1[port1 - 1] if 1 <= port1 <= len(ports1) else (pos1, 0)
        next2, a2 = ports2[port2 - 1] if 1 <= port2 <= len(ports2) else (pos2, 0)
        if a1 or a2:  # an entry port is >= 1, so some agent moved
            if keep_rows:
                heads.append(new(TraceRow, (r, pos1, pos2, d, port1, port2, a1, a2, next1, next2)))
            q1 = None
            nd = distance(next1, next2)
            if next1 == next2:
                return RunResult(MET, r, r + 1, next1, next2, 0, _trace(heads, r + 1))
            if nd < min_d:
                min_d = nd
            reading = nd if exact else delta(d, nd)
            pos1, pos2, ports1, ports2 = next1, next2, adj[next1], adj[next2]
            obs1 = Observation(len(ports1), a1, reading)
            obs2 = Observation(len(ports2), a2, reading)
            d, moved = nd, True
        else:
            if keep_rows:
                heads.append(new(TraceRow, (r, pos1, pos2, d, port1, port2, 0, 0, pos1, pos2)))
            q1, q2 = port1, port2
            if moved:  # the first round with no move: arrivals read 0, the distance holds
                reading = d if exact else _SAME
                obs1 = Observation(len(ports1), 0, reading)
                obs2 = Observation(len(ports2), 0, reading)
                moved = False

    return RunResult(CAP, None, cfg.round_cap, pos1, pos2, min_d, _trace(heads, cfg.round_cap))


def _trace(heads: list[TraceRow] | None, rows: int) -> Trace | None:
    """The engine's trace of ``rows`` rows from its runs' first rows. Its
    rounds count from 0, so a run starts at the row index of its round."""
    return None if heads is None else Trace._from_runs(heads, [h[0] for h in heads], rows)


def replay_check(rows: Iterable[TraceRow], g: PortGraph) -> list[str]:
    """Re-validate a full trace against the graph: node ranges, move legality,
    exact distances, and position continuity. Returns violation descriptions.

    A row list is grouped into a Trace first. A run's rows share their last
    nine fields, so each run is checked once and each fault is reported once
    for its rows, as ``rows a..b: <fault>``; the checks of those fields run
    once per distinct tail. Inside a run the distance holds, and continuity
    breaks at each row after the first exactly when an agent moves."""
    oracle = DistanceOracle(g)
    n = g.num_nodes

    def tail_faults(pos1, pos2, dist, port1, port2, arr1, arr2, next1, next2) -> list[str]:
        if not (0 <= pos1 < n and 0 <= pos2 < n and 0 <= next1 < n and 0 <= next2 < n):
            return [f"positions ({pos1}, {pos2}) -> ({next1}, {next2}) outside 0..{n - 1}"]
        faults = []
        true_d = oracle.distance(pos1, pos2)
        if dist != true_d:
            faults.append(f"recorded distance {dist}, actual {true_d}")
        for who, pos, port, arr, nxt in ((1, pos1, port1, arr1, next1),
                                         (2, pos2, port2, arr2, next2)):
            if 1 <= port <= g.degree(pos):
                w, q = g.neighbor(pos, port)
                if (nxt, arr) != (w, q):
                    faults.append(f"agent {who} took port {port} from {pos} "
                                  f"but landed ({nxt}, arrival {arr}) instead of ({w}, {q})")
            elif nxt != pos or arr != 0:
                faults.append(f"agent {who} had stay action {port} "
                              f"but moved {pos} -> {nxt} (arrival {arr})")
        return faults

    violations = []
    known: dict[tuple, list[str]] = {}  # a tail -> tail_faults of it
    before: tuple[int, int] | None = None  # the previous run's (next1, next2)
    prev_dist = 0
    for head, count in Trace(rows).runs():
        first, tail = head[0], head[1:]
        faults = known.get(tail)
        if faults is None:
            faults = known[tail] = tail_faults(*tail)
        pos1, pos2, dist, *_, next1, next2 = tail
        if before is not None:
            if before != (pos1, pos2):
                violations.append(f"row {first}: start positions ({pos1}, {pos2}) "
                                  f"break continuity with {before}")
            if abs(dist - prev_dist) > 2:
                violations.append(f"row {first}: distance jumped {prev_dist} -> {dist}")
        before, prev_dist = (next1, next2), dist
        if faults:
            violations += [f"{_row_span(first, count)}: {fault}" for fault in faults]
        if count > 1 and before != (pos1, pos2):
            violations.append(f"{_row_span(first + 1, count - 1)}: start positions "
                              f"({pos1}, {pos2}) break continuity with {before}")
    return violations


def _row_span(first: int, count: int) -> str:
    return f"row {first}" if count == 1 else f"rows {first}..{first + count - 1}"


# ----------------------------------------------------------------------------
# trace serialization, format 2: JSON lines with a header record, one record
# per run of rounds, and a result record; field order is fixed so traces diff
# cleanly. A run stands for ``count`` rows with consecutive rounds from
# ``round`` on and equal last nine fields: an idle stretch costs one line.
# ----------------------------------------------------------------------------

TRACE_FORMAT = 2

# A run record as json.dumps spells it for integer fields: its round and
# count, then the text of its last nine fields, which runs of a trace share
# often enough (40 texts for 16,310 runs in the longrun benchmark) that the
# writer and the reader each convert a tail once. The reader matches each
# field as a JSON integer of at most 18 digits and sends every other line,
# longer numbers included, to json.loads.
_RUN_FIELDS = ("round", "count") + TraceRow._fields[1:]
_RUN_HEAD = '{"kind": "rows", "round": %d, "count": %d, '
_RUN_TAIL = ", ".join(f'"{f}": %d' for f in TraceRow._fields[1:]) + "}\n"


def _int_fields(template: str) -> str:
    return re.escape(template).replace("%d", "(-?(?:0|[1-9][0-9]{0,17}))")


# groups: round, count, the tail's text, then its nine fields
_match_run_line = re.compile(_int_fields(_RUN_HEAD) + "(" + _int_fields(_RUN_TAIL[:-1])
                             + ")\n?").fullmatch


def trace_header(g: PortGraph, start1: int, start2: int,
                 label1: int | None, label2: int | None, cfg: SimConfig) -> dict:
    return {
        "kind": "header",
        "format": TRACE_FORMAT,
        "graph_hash": g.content_hash(),
        "nodes": g.num_nodes,
        "start1": start1,
        "start2": start2,
        "label1": label1,
        "label2": label2,
        "oracle_mode": cfg.oracle_mode,
        "round_cap": cfg.round_cap,
    }


def write_trace(fh: IO[str], header: dict, result: RunResult) -> None:
    fh.write(json.dumps(header) + "\n")
    texts: dict[tuple, str] = {}  # a tail -> its text
    lines = []
    for head, count in Trace(result.trace or ()).runs():
        tail = head[1:]
        text = texts.get(tail)
        if text is None:
            text = texts[tail] = _RUN_TAIL % tail
        lines.append(_RUN_HEAD % (head[0], count) + text)
    fh.writelines(lines)
    fh.write(json.dumps({
        "kind": "result",
        "outcome": result.outcome,
        "met_round": result.met_round,
        "rounds": result.rounds,
        "final1": result.final1,
        "final2": result.final2,
        "min_distance": result.min_distance,
    }) + "\n")


def read_trace(fh: IO[str]) -> tuple[dict, Trace, dict]:
    """Read a format-2 trace into its header, its Trace and its result record.

    A header of another format, or with none (format 1), raises on its line.
    A run record is accepted only after a header with an integer round_cap,
    and only while the rows stay within it and within ``sys.maxsize``, which
    ``len`` can report. Adjacent records with equal last nine fields and
    consecutive rounds join one run. The runs are never expanded; they must
    come to no more rows than the result record's ``rounds``: a trace holds
    at most one row per round that its result counts."""
    header: dict | None = None
    heads: list[TraceRow] = []  # the first row of each run
    starts: list[int] = []  # the row index each run starts at
    total = 0
    nxt = last = None  # the round after the last record's rows, and their last nine fields
    result: dict | None = None
    result_line = 0
    cap = None  # the header's round_cap
    new = tuple.__new__  # skips TraceRow's argument parsing
    tails: dict[str, tuple] = {}  # a run line's tail text -> its nine fields

    def hold(lineno: int, rnd: int, count: int, tail: tuple) -> None:
        nonlocal total, nxt, last
        if type(cap) is not int:
            raise TraceFormatError("run record without a format-2 header with an integer "
                                   "round_cap before it", lineno)
        if count < 1:
            raise TraceFormatError(f"run count {count} is below 1", lineno)
        if count > cap - total:
            raise TraceFormatError(f"run of {count} rows takes the trace past its "
                                   f"round_cap {cap}", lineno)
        if count > sys.maxsize - total:
            raise TraceFormatError(f"run of {count} rows takes the trace past "
                                   f"{sys.maxsize} rows", lineno)
        if rnd != nxt or tail != last:
            heads.append(new(TraceRow, (rnd, *tail)))
            starts.append(total)
            last = tail
        total += count
        nxt = rnd + count

    for lineno, line in enumerate(fh, start=1):
        m = _match_run_line(line)
        if m:
            rnd, count, text = m.group(1, 2, 3)
            tail = tails.get(text)
            if tail is None:
                tail = tails[text] = tuple(map(int, m.groups()[3:]))
            hold(lineno, int(rnd), int(count), tail)
            continue
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise TraceFormatError(f"not JSON ({exc})", lineno) from None
        if not isinstance(rec, dict):
            raise TraceFormatError("record is not a JSON object", lineno)
        kind = rec.get("kind")
        if kind == "header":
            fmt = rec.get("format", 1)
            if type(fmt) is not int or fmt != TRACE_FORMAT:
                raise TraceFormatError(f"trace format {fmt!r} is not supported; "
                                       f"rvsim reads format {TRACE_FORMAT}", lineno)
            header, cap = rec, rec.get("round_cap")
        elif kind == "rows":  # a run spelled another way, or with a longer number
            for name in _RUN_FIELDS:
                if name not in rec:
                    raise TraceFormatError(f"rows record missing field {name!r}", lineno)
                if type(rec[name]) is not int:
                    raise TraceFormatError(f"rows field {name!r} is not an integer", lineno)
            rnd, count, *tail = (rec[name] for name in _RUN_FIELDS)
            hold(lineno, rnd, count, tuple(tail))
        elif kind == "result":
            result, result_line = rec, lineno
    if header is None or result is None:
        raise TraceFormatError("trace missing header or result record")
    rounds = result.get("rounds")
    if total and (type(rounds) is not int or total > rounds):
        raise TraceFormatError(f"the runs hold {total} rows, but the result record "
                               f"counts {rounds!r} rounds", result_line)
    return header, Trace._from_runs(heads, starts, total), result
