"""Synchronous two-agent round engine: lockstep execution, rendezvous
detection, trace capture, and trace replay validation.

Round structure: both agents receive an Observation (degree, last arrival
port, one distance reading), both answer with a port, both moves apply
atomically, and the round's TraceRow is recorded. Agents that cross on the
same edge swap without meeting; only co-location at a round boundary ends the
run. The distance reading is pushed into the Observation rather than exposed
as a callable, so a program cannot query more than once per round.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

from .agents import AgentProgram, Observation
from .graphs import PortGraph
from .oracle import DistanceDelta, DistanceOracle, delta

MET = "met"
CAP = "cap"

_ORACLE_MODES = ("exact", "delta")
_TRACE_DETAILS = ("full", "meeting-only")


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


@dataclass
class RunResult:
    outcome: str  # MET or CAP
    met_round: int | None
    rounds: int
    final1: int
    final2: int
    min_distance: int
    trace: list[TraceRow] | None = field(default=None, repr=False)

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
    rows: list[TraceRow] | None = [] if keep_rows else None
    if start1 == start2:
        return RunResult(MET, 0, 0, start1, start2, 0, rows)

    adj = g._adj
    new = tuple.__new__  # skips TraceRow's argument parsing
    step1, step2 = prog1.step, prog2.step
    distance = DistanceOracle(g).distance
    exact = cfg.oracle_mode == "exact"
    pos1, pos2 = start1, start2
    ports1, ports2 = adj[pos1], adj[pos2]
    d = min_d = distance(pos1, pos2)
    reading = d if exact else DistanceDelta.SAME
    obs1 = Observation(len(ports1), 0, reading)
    obs2 = Observation(len(ports2), 0, reading)
    moved = False  # the last round moved an agent, so obs1/obs2 carry its arrivals

    for r in range(cfg.round_cap):
        port1 = step1(obs1)
        port2 = step2(obs2)
        next1, a1 = ports1[port1 - 1] if 1 <= port1 <= len(ports1) else (pos1, 0)
        next2, a2 = ports2[port2 - 1] if 1 <= port2 <= len(ports2) else (pos2, 0)
        if keep_rows:
            rows.append(new(TraceRow, (r, pos1, pos2, d, port1, port2, a1, a2, next1, next2)))
        if a1 or a2:  # an entry port is >= 1, so some agent moved
            nd = distance(next1, next2)
            if next1 == next2:
                return RunResult(MET, r, r + 1, next1, next2, 0, rows)
            if nd < min_d:
                min_d = nd
            reading = nd if exact else delta(d, nd)
            pos1, pos2, ports1, ports2 = next1, next2, adj[next1], adj[next2]
            obs1 = Observation(len(ports1), a1, reading)
            obs2 = Observation(len(ports2), a2, reading)
            d, moved = nd, True
        elif moved:  # the first round with no move: arrivals read 0, the distance holds
            reading = d if exact else DistanceDelta.SAME
            obs1 = Observation(len(ports1), 0, reading)
            obs2 = Observation(len(ports2), 0, reading)
            moved = False

    return RunResult(CAP, None, cfg.round_cap, pos1, pos2, min_d, rows)


def replay_check(rows: Iterable[TraceRow], g: PortGraph) -> list[str]:
    """Re-validate a full trace against the graph: node ranges, move legality,
    exact distances, and position continuity. Returns violation descriptions.

    A row whose last nine fields repeat those of a clean row in which neither
    agent moved passes every check the same way, so it is skipped."""
    violations = []
    oracle = DistanceOracle(g)
    n = g.num_nodes
    before: tuple[int, int] | None = None  # previous row's (next1, next2)
    prev_dist = 0
    quiet = None  # the previous row's last nine fields, if it was clean and moved no agent
    for row in rows:
        rest = row[1:]
        if rest == quiet:
            continue
        quiet, found = None, len(violations)
        rnd, pos1, pos2, dist, port1, port2, arr1, arr2, next1, next2 = row
        if before is not None:
            if before != (pos1, pos2):
                violations.append(f"row {rnd}: start positions ({pos1}, {pos2}) "
                                  f"break continuity with {before}")
            if abs(dist - prev_dist) > 2:
                violations.append(f"row {rnd}: distance jumped {prev_dist} -> {dist}")
        before, prev_dist = (next1, next2), dist
        if not (0 <= pos1 < n and 0 <= pos2 < n and 0 <= next1 < n and 0 <= next2 < n):
            violations.append(f"row {rnd}: positions ({pos1}, {pos2}) -> ({next1}, {next2}) "
                              f"outside 0..{n - 1}")
            continue
        true_d = oracle.distance(pos1, pos2)
        if dist != true_d:
            violations.append(f"row {rnd}: recorded distance {dist}, actual {true_d}")
        for who, pos, port, arr, nxt in ((1, pos1, port1, arr1, next1),
                                         (2, pos2, port2, arr2, next2)):
            if 1 <= port <= g.degree(pos):
                w, q = g.neighbor(pos, port)
                if (nxt, arr) != (w, q):
                    violations.append(
                        f"row {rnd}: agent {who} took port {port} from {pos} "
                        f"but landed ({nxt}, arrival {arr}) instead of ({w}, {q})")
            elif nxt != pos or arr != 0:
                violations.append(
                    f"row {rnd}: agent {who} had stay action {port} "
                    f"but moved {pos} -> {nxt} (arrival {arr})")
        if len(violations) == found and next1 == pos1 and next2 == pos2:
            quiet = rest
    return violations


# ----------------------------------------------------------------------------
# trace serialization, format 2: JSON lines with a header record, one record
# per run of rounds, and a result record; field order is fixed so traces diff
# cleanly. A run stands for ``count`` rows with consecutive rounds from
# ``round`` on and equal last nine fields: an idle stretch costs one line.
# ----------------------------------------------------------------------------

TRACE_FORMAT = 2

# A run record as json.dumps spells it for integer fields. The reader matches
# each field as a JSON integer of at most 18 digits and sends every other
# line, longer numbers and format-1 row records included, to json.loads.
_RUN_FIELDS = ("round", "count") + TraceRow._fields[1:]
_RUN_LINE = ('{"kind": "rows", ' + ", ".join(f'"{f}": %d' for f in _RUN_FIELDS)
             + "}\n")
_match_run_line = re.compile(re.escape(_RUN_LINE[:-1]).replace(
    "%d", "(-?(?:0|[1-9][0-9]{0,17}))") + "\n?").fullmatch


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
    fh.writelines(_run_lines(result.trace or ()))
    fh.write(json.dumps({
        "kind": "result",
        "outcome": result.outcome,
        "met_round": result.met_round,
        "rounds": result.rounds,
        "final1": result.final1,
        "final2": result.final2,
        "min_distance": result.min_distance,
    }) + "\n")


def _run_lines(rows: Iterable[TraceRow]) -> Iterator[str]:
    start = count = 0
    tail = None
    for row in rows:
        rest = row[1:]
        if rest == tail and row[0] == start + count:
            count += 1
            continue
        if tail is not None:
            yield _RUN_LINE % (start, count, *tail)
        start, count, tail = row[0], 1, rest
    if tail is not None:
        yield _RUN_LINE % (start, count, *tail)


def read_trace(fh: IO[str]) -> tuple[dict, list[TraceRow], dict]:
    """Read a format-2 trace, or a format-1 trace of one row record per round,
    into its header, its rows and its result record.

    A run record is accepted only after a format-2 header, and only while the
    rows stay within its round_cap. Runs are held as their first row and a
    count, and expanded once the whole file is read, and only if they come
    to no more rows than the result record's ``rounds``: a trace holds at
    most one row per round that its result counts."""
    header: dict | None = None
    heads: list[TraceRow] = []  # the first row of each run
    counts: list[int] = []  # the rows each run stands for
    total = 0
    result: dict | None = None
    result_line = 0
    cap = None  # the round_cap of a format-2 header
    new = tuple.__new__  # skips TraceRow's argument parsing

    def hold(lineno: int, rnd: int, count: int, *tail: int) -> None:
        nonlocal total
        if type(cap) is not int:
            raise TraceFormatError("run record without a format-2 header with an integer "
                                   "round_cap before it", lineno)
        if count < 1:
            raise TraceFormatError(f"run count {count} is below 1", lineno)
        if count > cap - total:
            raise TraceFormatError(f"run of {count} rows takes the trace past its "
                                   f"round_cap {cap}", lineno)
        heads.append(new(TraceRow, (rnd, *tail)))
        counts.append(count)
        total += count

    for lineno, line in enumerate(fh, start=1):
        m = _match_run_line(line)
        if m:
            hold(lineno, *map(int, m.groups()))
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
            header = rec
            cap = rec.get("round_cap") if rec.get("format") == TRACE_FORMAT else None
        elif kind in ("row", "rows"):  # a format-1 row, or a run spelled another way
            names = TraceRow._fields if kind == "row" else _RUN_FIELDS
            for name in names:
                if name not in rec:
                    raise TraceFormatError(f"{kind} record missing field {name!r}", lineno)
                if type(rec[name]) is not int:
                    raise TraceFormatError(f"{kind} field {name!r} is not an integer", lineno)
            values = [rec[name] for name in names]
            if kind == "row":
                heads.append(TraceRow._make(values))
                counts.append(1)
                total += 1
            else:
                hold(lineno, *values)
        elif kind == "result":
            result, result_line = rec, lineno
    if header is None or result is None:
        raise TraceFormatError("trace missing header or result record")
    rounds = result.get("rounds")
    if total and (type(rounds) is not int or total > rounds):
        raise TraceFormatError(f"the runs hold {total} rows, but the result record "
                               f"counts {rounds!r} rounds", result_line)
    rows: list[TraceRow] = []
    for head, count in zip(heads, counts):
        rows.append(head)
        if count > 1:
            rnd, *tail = head
            rows.extend([new(TraceRow, (r, *tail)) for r in range(rnd + 1, rnd + count)])
    return header, rows, result
