import io
import json
import random
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from rvsim import (
    CAP,
    MET,
    DistanceDelta,
    DistanceOracle,
    InvalidStartError,
    Observation,
    RunResult,
    SimConfig,
    Trace,
    TraceFormatError,
    TraceRow,
    build,
    butterfly_index,
    default_round_cap,
    delta,
    generate_random_connected,
    generate_ring,
    number_butterfly,
    read_trace,
    rendezvous_program,
    replay_check,
    run,
    trace_header,
    write_trace,
)
from rvsim.acceptance import farthest_node, upper_bound_corpus
from rvsim.graphs import materialize
from stubs import Constant

EDGE = build(2, [(0, 1, 1, 1)])


class TestRunBasics:
    def test_colocated_start(self):
        res = run(EDGE, 1, 1, Constant(), Constant())
        assert res.outcome == MET and res.met_round == 0
        assert res.rounds == 0 and res.trace == []

    def test_crossing_is_not_meeting(self):
        res = run(EDGE, 0, 1, Constant(1), Constant(1),
                  SimConfig(round_cap=50))
        assert res.outcome == CAP
        assert all(row.pos1 != row.pos2 for row in res.trace)
        assert res.min_distance == 1

    def test_invalid_start(self):
        with pytest.raises(InvalidStartError):
            run(EDGE, 0, 5, Constant(), Constant())

    def test_single_edge_regression_through_engine(self):
        res = run(EDGE, 0, 1, rendezvous_program(0), rendezvous_program(1),
                  SimConfig(round_cap=64))
        assert (res.outcome, res.met_round, res.rounds) == (MET, 2, 3)

    def test_cap_always_respected(self):
        res = run(generate_ring(8), 0, 4, Constant(), Constant(),
                  SimConfig(round_cap=17))
        assert res.outcome == CAP and res.rounds == 17
        assert len(res.trace) == 17

    def test_meeting_only_detail_keeps_no_rows(self):
        res = run(EDGE, 0, 1, rendezvous_program(0), rendezvous_program(1),
                  SimConfig(round_cap=64, trace_detail="meeting-only"))
        assert res.outcome == MET and res.trace is None


class TestDistanceBookkeeping:
    def test_single_mover_changes_distance_by_at_most_one(self):
        g = generate_ring(10)
        res = run(g, 0, 5, Constant(1), Constant(),
                  SimConfig(round_cap=30))
        dists = [row.dist for row in res.trace]
        assert all(abs(b - a) <= 1 for a, b in zip(dists, dists[1:]))

    @given(st.integers(4, 20), st.integers(2, 6), st.integers(0, 100))
    def test_both_movers_change_distance_by_at_most_two(self, n, cap, seed):
        g = generate_random_connected(n, cap, seed)
        res = run(g, 0, n - 1, rendezvous_program(3), rendezvous_program(12),
                  SimConfig(round_cap=2000))
        dists = [row.dist for row in res.trace]
        assert all(abs(b - a) <= 2 for a, b in zip(dists, dists[1:]))

    def test_oracle_mode_equivalence(self):
        g = generate_random_connected(15, 4, seed=3)
        runs = {}
        for mode in ("exact", "delta"):
            res = run(g, 0, 14, rendezvous_program(6), rendezvous_program(9),
                      SimConfig(round_cap=5000, oracle_mode=mode))
            runs[mode] = res
        a, b = runs["exact"], runs["delta"]
        assert a.met_round == b.met_round
        assert [(r.port1, r.port2) for r in a.trace] == [(r.port1, r.port2) for r in b.trace]


class TestReplayCheck:
    def _fresh(self):
        g = generate_random_connected(12, 4, seed=8)
        res = run(g, 0, 11, rendezvous_program(2), rendezvous_program(5),
                  SimConfig(round_cap=4000))
        assert res.outcome == MET
        return g, res

    def test_fresh_trace_is_clean(self):
        g, res = self._fresh()
        assert replay_check(res.trace, g) == []

    def test_perturbed_distance_detected(self):
        g, res = self._fresh()
        rows = list(res.trace)
        victim = rows[3]
        rows[3] = TraceRow(victim.round, victim.pos1, victim.pos2, victim.dist + 1,
                           victim.port1, victim.port2, victim.arrival1,
                           victim.arrival2, victim.next1, victim.next2)
        problems = replay_check(rows, g)
        assert any("row 3" in p and "distance" in p for p in problems)

    def test_teleport_detected(self):
        g, res = self._fresh()
        rows = list(res.trace)
        victim = rows[2]
        far = (victim.next1 + 5) % g.num_nodes
        rows[2] = TraceRow(victim.round, victim.pos1, victim.pos2, victim.dist,
                           victim.port1, victim.port2, victim.arrival1,
                           victim.arrival2, far, victim.next2)
        problems = replay_check(rows, g)
        assert problems  # move legality and/or continuity must fire

    @pytest.mark.parametrize("node", [99, -1])
    @pytest.mark.parametrize("field", ["pos1", "pos2", "next1", "next2"])
    def test_node_outside_graph_is_a_violation(self, node, field):
        g = generate_ring(6)
        rows = list(run(g, 0, 3, rendezvous_program(2), rendezvous_program(3),
                        SimConfig(round_cap=300)).trace)
        rows[4] = rows[4]._replace(**{field: node})
        problems = replay_check(rows, g)
        assert any(p.startswith("row 4: ") and "outside 0..5" in p for p in problems)
        assert not any("outside" in p for p in problems if not p.startswith("row 4: "))


def _trace_text(writer, header, result) -> str:
    buf = io.StringIO()
    writer(buf, header, result)
    return buf.getvalue()


def _read_or_error(reader, lines):
    try:
        return reader(lines)
    except TraceFormatError as exc:
        return "error", exc.line


RING6 = generate_ring(6)
RING6_CFG = SimConfig(round_cap=300)
RING6_RUN = run(RING6, 0, 3, rendezvous_program(2), rendezvous_program(3), RING6_CFG)
RING6_HEADER = trace_header(RING6, 0, 3, 2, 3, RING6_CFG)
TRACE_LINES = _trace_text(write_trace, RING6_HEADER, RING6_RUN).splitlines(keepends=True)


def _with_token(line: str, name: str, token: str) -> str:
    """``line`` with the JSON value of its integer field ``name`` spelled ``token``."""
    value = json.loads(line)[name]
    return line.replace(f'"{name}": {value},', f'"{name}": {token},', 1)


def _run_tail(line: str) -> str:
    """A run line after its count token: the text of its last nine fields."""
    return line.split(", ", 3)[3]


# indices of run lines whose tail text an earlier run line has, so that the
# reader takes its fields from its cache, and of the others
REPEATED_TAIL = [i for i in range(2, len(TRACE_LINES) - 1)
                 if _run_tail(TRACE_LINES[i]) in map(_run_tail, TRACE_LINES[1:i])]
FRESH_TAIL = [i for i in range(1, len(TRACE_LINES) - 1) if i not in REPEATED_TAIL]
# indices of run lines that stand for several rows, and for one
MULTI = [i for i in range(1, len(TRACE_LINES) - 1) if json.loads(TRACE_LINES[i])["count"] > 1]
SINGLE = [i for i in range(1, len(TRACE_LINES) - 1) if i not in MULTI]


class TestTraceSerialization:
    def test_round_trip(self):
        header, rows, result = read_trace(io.StringIO("".join(TRACE_LINES)))
        assert header["graph_hash"] == RING6.content_hash()
        assert header["label2"] == 3 and header["format"] == 2
        assert rows == RING6_RUN.trace
        assert result["outcome"] == RING6_RUN.outcome
        assert result["met_round"] == RING6_RUN.met_round

    def test_byte_identical_across_runs(self):
        g = generate_ring(6)
        cfg = SimConfig(round_cap=300)
        outs = []
        for _ in range(2):
            res = run(g, 0, 3, rendezvous_program(2), rendezvous_program(3), cfg)
            buf = io.StringIO()
            write_trace(buf, trace_header(g, 0, 3, 2, 3, cfg), res)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


# a run line's round or count token, respelled: the value JSON reads, or None
# where the reader must raise
_RUN_TOKENS = [
    ("round", "-0", 0), ("round", " 7", 7), ("round", "-7", -7),
    ("round", "1" * 18, int("1" * 18)), ("round", "1" * 19, int("1" * 19)),
    ("round", "01", None), ("round", "+1", None), ("round", "1.0", None),
    ("round", "1_0", None), ("round", "\u0661", None), ("round", "", None),
    ("count", " 2", 2), ("count", "1", 1), ("count", "0", None), ("count", "-0", None),
    ("count", "-1", None), ("count", "01", None), ("count", "2.0", None),
    ("count", "1" * 19, None), ("count", "9" * 18, None), ("count", "\u0662", None),
]


class TestTraceReader:
    @pytest.mark.parametrize("spell", [
        lambda rec: json.dumps(dict(reversed(list(rec.items())))),
        lambda rec: json.dumps(rec, separators=(",", ":")),
        lambda rec: json.dumps(rec, separators=(" ,  ", " :  ")) + "  ",
    ], ids=["reordered", "compact", "spaced"])
    def test_row_spellings_read_alike(self, spell):
        """Run records spelled other than the writer spells them read as the
        same rows."""
        lines = [TRACE_LINES[0]]
        lines += [spell(json.loads(line)) + "\n" for line in TRACE_LINES[1:-1]]
        lines.append(TRACE_LINES[-1])
        assert lines[1:-1] != TRACE_LINES[1:-1]
        _, rows, _ = read_trace(io.StringIO("".join(lines)))
        assert rows == RING6_RUN.trace

    @pytest.mark.parametrize("name, token, value", _RUN_TOKENS,
                             ids=[f"{name}={token!r}" for name, token, _ in _RUN_TOKENS])
    @pytest.mark.parametrize("which", ["multi", "single"])
    def test_run_token(self, name, token, value, which):
        """Respell one run line's round or count: the reader expands the run
        from the value JSON gives that token, or raises naming the line, or
        naming the result line when the runs come to more rows than its
        rounds."""
        i = (MULTI if which == "multi" else SINGLE)[1]
        lines = list(TRACE_LINES)
        lines[i] = _with_token(lines[i], name, token)
        runs = [json.loads(line) for line in TRACE_LINES[1:-1]]
        if value is None:
            expected = "error", i + 1
        else:
            runs[i - 1][name] = value
            expected = (RING6_HEADER, _expand(runs), json.loads(TRACE_LINES[-1]))
            if len(expected[1]) > RING6_RUN.rounds:
                expected = "error", len(lines)
        assert _read_or_error(read_trace, io.StringIO("".join(lines))) == expected


def _expand(runs):
    """The rows that decoded run records stand for."""
    fields = TraceRow._fields[1:]
    return [TraceRow(rnd, *(rec[f] for f in fields))
            for rec in runs for rnd in range(rec["round"], rec["round"] + rec["count"])]


class TestRunRecordBounds:
    """A run record is expanded only after a format-2 header, with a count of
    at least 1, while the rows stay within the header's round_cap, and when
    they come to no more than the result's rounds."""

    def _read(self, lines):
        return _read_or_error(read_trace, io.StringIO("".join(lines)))

    def _run_line(self, count):
        return _with_token(TRACE_LINES[1], "count", str(count))

    def test_count_up_to_the_round_cap(self):
        room = RING6_CFG.round_cap - len(RING6_RUN.trace) + json.loads(TRACE_LINES[1])["count"]
        lines = list(TRACE_LINES)
        lines[1] = self._run_line(room)
        # the rows stop at the cap, but pass the result's rounds
        assert self._read(lines) == ("error", len(lines))
        lines[-1] = _with_token(lines[-1], "rounds", str(RING6_CFG.round_cap))
        _, rows, _ = read_trace(io.StringIO("".join(lines)))
        assert len(rows) == RING6_CFG.round_cap
        lines[1] = self._run_line(room + 1)
        # the last run line is the one that takes the rows past the cap
        assert self._read(lines) == ("error", len(lines) - 1)

    def test_huge_count_raises_at_once(self):
        lines = list(TRACE_LINES)
        lines[1] = self._run_line(10 ** 17)
        assert self._read(lines) == ("error", 2)
        lines[1] = json.dumps({**json.loads(lines[1]), "count": 10 ** 30}) + "\n"
        assert self._read(lines) == ("error", 2)

    def test_huge_cap_and_count_raise_before_expanding(self):
        """A header may claim any round_cap; the result's rounds still bound
        the rows before a run is expanded."""
        lines = [json.dumps({**RING6_HEADER, "round_cap": 10 ** 18}) + "\n",
                 self._run_line(10 ** 17), TRACE_LINES[-1]]
        assert self._read(lines) == ("error", 3)

    def test_rows_short_of_the_rounds_read(self):
        lines = TRACE_LINES[:-2] + TRACE_LINES[-1:]
        _, rows, _ = read_trace(io.StringIO("".join(lines)))
        assert rows == RING6_RUN.trace[:len(rows)] and len(rows) < RING6_RUN.rounds

    @pytest.mark.parametrize("rounds", [None, "27", 27.0, True])
    def test_result_without_integer_rounds(self, rounds):
        lines = list(TRACE_LINES)
        lines[-1] = json.dumps({**json.loads(lines[-1]), "rounds": rounds}) + "\n"
        assert self._read(lines) == ("error", len(lines))

    @pytest.mark.parametrize("count", [0, -1, -(10 ** 17)])
    def test_count_below_one(self, count):
        lines = list(TRACE_LINES)
        lines[3] = self._run_line(count)
        with pytest.raises(TraceFormatError, match="line 4: run count"):
            read_trace(io.StringIO("".join(lines)))

    def test_run_before_the_header(self):
        lines = [TRACE_LINES[1], TRACE_LINES[0]] + TRACE_LINES[2:]
        assert self._read(lines) == ("error", 1)

    @pytest.mark.parametrize("header, line", [
        ({k: v for k, v in RING6_HEADER.items() if k != "format"}, 1),
        ({**RING6_HEADER, "format": 3}, 1), ({**RING6_HEADER, "format": "2"}, 1),
        ({**RING6_HEADER, "round_cap": None}, 2), ({**RING6_HEADER, "round_cap": True}, 2),
    ], ids=["format-1", "format-3", "format-string", "cap-null", "cap-bool"])
    def test_header_without_a_format_2_cap(self, header, line):
        """A header with no format field (format 1) or another format raises
        on its own line; runs after a header with no integer round_cap raise
        on theirs."""
        lines = [json.dumps(header) + "\n"] + TRACE_LINES[1:]
        assert self._read(lines) == ("error", line)


class TestTraceErrors:
    def test_missing_row_field_names_line_and_field(self):
        lines = list(TRACE_LINES)
        rec = json.loads(lines[2])
        del rec["next1"]
        lines[2] = json.dumps(rec) + "\n"
        with pytest.raises(TraceFormatError, match="line 3: .*'next1'") as info:
            read_trace(io.StringIO("".join(lines)))
        assert info.value.line == 3

    @pytest.mark.parametrize("value", [None, True, 2.0, "2"])
    def test_non_integer_row_field_names_line_and_field(self, value):
        lines = list(TRACE_LINES)
        rec = json.loads(lines[4])
        rec["dist"] = value
        lines[4] = json.dumps(rec) + "\n"
        with pytest.raises(TraceFormatError, match="line 5: .*'dist'") as info:
            read_trace(io.StringIO("".join(lines)))
        assert info.value.line == 5

    def test_non_object_record(self):
        lines = list(TRACE_LINES)
        lines[1] = "[1, 2]\n"
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(io.StringIO("".join(lines)))

    def test_missing_result(self):
        with pytest.raises(TraceFormatError):
            read_trace(io.StringIO("".join(TRACE_LINES[:-1])))

    @given(st.data())
    def test_any_line_mutation_returns_or_raises_value_error(self, data):
        lines = list(TRACE_LINES)
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        rec = json.loads(lines[i])
        mutation = data.draw(st.sampled_from(
            ("drop_field", "retype_field", "int_field", "truncate", "replace", "delete",
             "json_value", "round_token", "count_token")))
        if mutation in ("round_token", "count_token"):
            i = data.draw(st.integers(1, len(lines) - 2), label="run line")
            lines[i] = _with_token(lines[i], mutation[:5], data.draw(
                st.text(max_size=6) | st.integers().map(str), label="token"))
        elif mutation == "drop_field":
            del rec[data.draw(st.sampled_from(sorted(rec)))]
            lines[i] = json.dumps(rec) + "\n"
        elif mutation in ("retype_field", "int_field"):
            key = data.draw(st.sampled_from(sorted(rec)))
            rec[key] = data.draw(st.integers() if mutation == "int_field" else
                                 st.none() | st.booleans() | st.floats() | st.text(max_size=5)
                                 | st.lists(st.integers()))
            lines[i] = json.dumps(rec) + "\n"
        elif mutation == "truncate":
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
        elif mutation == "replace":
            lines[i] = data.draw(st.text(max_size=40)) + "\n"
        elif mutation == "delete":
            del lines[i]
        else:
            lines[i] = json.dumps(data.draw(st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=5),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                max_leaves=8))) + "\n"
        try:
            _, rows, _ = read_trace(io.StringIO("".join(lines)))
        except ValueError:
            return
        assert len(rows) <= RING6_CFG.round_cap
        assert isinstance(replay_check(rows, RING6), list)


# ----------------------------------------------------------------------------
# reference engine: the plain per-round loop, with one move resolution, one
# oracle query and fresh observations every round; run() must agree with it
# ----------------------------------------------------------------------------

def _apply_move(g, pos, port):
    """Resolve one agent's action: (new position, entry port or 0 on a stay)."""
    if 1 <= port <= g.degree(pos):
        return g.neighbor(pos, port)
    return pos, 0


def _reference_run(g, start1, start2, prog1, prog2, cfg):
    keep_rows = cfg.trace_detail == "full"
    rows = [] if keep_rows else None
    if start1 == start2:
        return RunResult(MET, 0, 0, start1, start2, 0, rows)
    oracle = DistanceOracle(g)
    exact = cfg.oracle_mode == "exact"
    pos1, pos2 = start1, start2
    arr1 = arr2 = 0
    d = oracle.distance(pos1, pos2)
    prev_d = None
    min_d = d
    for r in range(cfg.round_cap):
        if exact:
            reading = d
        else:
            reading = DistanceDelta.SAME if prev_d is None else delta(prev_d, d)
        port1 = prog1.step(Observation(g.degree(pos1), arr1, reading))
        port2 = prog2.step(Observation(g.degree(pos2), arr2, reading))
        next1, a1 = _apply_move(g, pos1, port1)
        next2, a2 = _apply_move(g, pos2, port2)
        nd = oracle.distance(next1, next2)
        if keep_rows:
            rows.append(TraceRow(r, pos1, pos2, d, port1, port2, a1, a2, next1, next2))
        pos1, pos2, arr1, arr2 = next1, next2, a1, a2
        prev_d, d = d, nd
        if nd < min_d:
            min_d = nd
        if pos1 == pos2:
            return RunResult(MET, r, r + 1, pos1, pos2, min_d, rows)
    return RunResult(CAP, None, cfg.round_cap, pos1, pos2, min_d, rows)


def _assert_matches_reference(g, start1, start2, make1, make2, cfg):
    """Run fresh programs from the two factories through both engines and
    compare every RunResult field (trace rows included), the rounds each
    program saw, and its events."""
    outs = []
    for engine in (run, _reference_run):
        progs = make1(), make2()
        res = engine(g, start1, start2, *progs, cfg)
        outs.append((res, [(p.rounds_seen, p.events) for p in progs]))
    assert outs[0] == outs[1]
    return outs[1][0]


def _strategy(label):
    return lambda: rendezvous_program(label, record_events=True)


class TestMatchesReferenceEngine:
    @pytest.mark.parametrize("mode", ["exact", "delta"])
    def test_corpus_cells(self, mode):
        cells = upper_bound_corpus()
        assert len(cells) == 242
        for cell in cells:
            g = materialize(cell.family, dict(cell.params))
            start2 = cell.start2 if cell.start2 >= 0 else farthest_node(g, cell.start1)
            cap = default_round_cap(g.max_degree, DistanceOracle(g).distance(cell.start1, start2),
                                    cell.label1, cell.label2)
            res = _assert_matches_reference(
                g, cell.start1, start2, _strategy(cell.label1), _strategy(cell.label2),
                SimConfig(round_cap=cap, oracle_mode=mode))
            assert res.outcome == MET

    @given(st.integers(2, 30), st.integers(2, 6), st.integers(0, 10 ** 6),
           st.integers(0, 40), st.integers(0, 40), st.sampled_from(["exact", "delta"]),
           st.data())
    def test_random_graphs_and_caps(self, n, max_degree, seed, label1, label2, mode, data):
        g = generate_random_connected(n, max_degree, seed)
        start1 = data.draw(st.integers(0, n - 1), label="start1")
        start2 = data.draw(st.integers(0, n - 1), label="start2")
        full = _reference_run(g, start1, start2, rendezvous_program(label1),
                              rendezvous_program(label2),
                              SimConfig(round_cap=5000, oracle_mode=mode))
        # a cap right after a round that follows a round with no move ends the
        # run inside an idle sweep
        idle_ends = [row.round + 1 for prev, row in zip(full.trace, full.trace[1:])
                     if prev.arrival1 == prev.arrival2 == row.arrival1 == row.arrival2 == 0]
        caps = st.integers(1, full.rounds + 2)
        if idle_ends:
            caps |= st.sampled_from(idle_ends)
        cap = data.draw(caps, label="round_cap")
        _assert_matches_reference(g, start1, start2, _strategy(label1), _strategy(label2),
                                  SimConfig(round_cap=cap, oracle_mode=mode))

    @pytest.mark.parametrize("mode", ["exact", "delta"])
    def test_stub_programs(self, mode):
        g = generate_random_connected(12, 4, seed=5)
        stubs = {"idle": Constant, "strategy": _strategy(6)}
        for p in (0, -1, 1, 2, g.max_degree + 5):
            stubs[f"constant({p})"] = lambda p=p: Constant(p)
        for name1, make1 in stubs.items():
            for name2, make2 in stubs.items():
                for cap in (1, 2, 7, 300):
                    _assert_matches_reference(g, 0, 11, make1, make2,
                                              SimConfig(round_cap=cap, oracle_mode=mode))



# ----------------------------------------------------------------------------
# reference trace I/O: run records rendered one by one through json.dumps,
# and a replay that checks every row; write_trace, read_trace and
# replay_check must agree with them
# ----------------------------------------------------------------------------

def _reference_run_lines(rows):
    """One json.dumps record per maximal run of rows with consecutive rounds
    and equal last nine fields."""
    runs = []
    for row in rows:
        if runs and runs[-1][0] + runs[-1][1] == row[0] and runs[-1][2] == row[1:]:
            runs[-1][1] += 1
        else:
            runs.append([row[0], 1, row[1:]])
    return [json.dumps({"kind": "rows", "round": int(rnd), "count": count,
                        **{f: int(v) for f, v in zip(TraceRow._fields[1:], tail)}}) + "\n"
            for rnd, count, tail in runs]


def _reference_replay(rows, g):
    violations = []
    oracle = DistanceOracle(g)
    n = g.num_nodes
    before = None
    prev_dist = 0
    for rnd, pos1, pos2, dist, port1, port2, arr1, arr2, next1, next2 in rows:
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
    return violations


def _butterfly_trace(prefix_bits):
    """The longrun shape: number_butterfly(13, 8, 1, 2), starts 4 columns
    apart, and two labels that share a random ``prefix_bits``-bit prefix."""
    g = number_butterfly(13, 8, 1, 2)
    prefix = random.Random(0).getrandbits(prefix_bits) | (1 << (prefix_bits - 1))
    res = run(g, butterfly_index(13, 0, 0), butterfly_index(13, 0, 4),
              rendezvous_program(prefix << 1), rendezvous_program((prefix << 1) | 1),
              SimConfig(round_cap=10 ** 6))
    assert res.outcome == MET
    return g, res


BUTTERFLY, BUTTERFLY_RUN = _butterfly_trace(16)
BUTTERFLY_ROWS = BUTTERFLY_RUN.trace

_FIELD_VALUES = (st.integers() | st.integers(-3, 3) | st.booleans()
                 | st.sampled_from([10 ** 17, 10 ** 18 - 1, -(10 ** 18 - 1)]))


@st.composite
def _rows_with_repeated_tails(draw):
    """Stretches of rows that share a tail, each under arbitrary rounds or
    under consecutive rounds from an arbitrary start."""
    tails = draw(st.lists(st.tuples(*[_FIELD_VALUES] * 9), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        tail = draw(st.sampled_from(tails))
        rounds = draw(st.lists(_FIELD_VALUES, min_size=1, max_size=25)
                      | st.tuples(_FIELD_VALUES, st.integers(1, 25))
                      .map(lambda s: range(s[0], s[0] + s[1])))
        rows += [TraceRow(rnd, *tail) for rnd in rounds]
    return rows


def _read_by_json(lines):
    """What read_trace must make of RING6's trace lines after one run line is
    respelled: the trace of the run records json.loads reads from them, or
    ("error", line) for the first line it cannot read or whose round is no
    integer."""
    runs = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
        except ValueError:
            return "error", lineno
        if rec["kind"] == "rows":
            if type(rec["round"]) is not int:
                return "error", lineno
            runs.append(rec)
    return RING6_HEADER, _expand(runs), json.loads(TRACE_LINES[-1])


def _expanded(violations):
    """replay_check's lines with each ``rows a..b: <fault>`` line written once
    per row, as the row-by-row reference writes them."""
    out = []
    for line in violations:
        span, _, fault = line.partition(": ")
        if span.startswith("rows "):
            first, last = map(int, span[5:].split(".."))
            out += [f"row {rnd}: {fault}" for rnd in range(first, last + 1)]
        else:
            out.append(line)
    return out


# (row index, count) of each run of BUTTERFLY_ROWS, and of those of two rows or more
_COUNTS = [count for _, count in BUTTERFLY_ROWS.runs()]
BUTTERFLY_RUNS = list(zip(accumulate(_COUNTS, initial=0), _COUNTS))
LONG_BUTTERFLY_RUNS = [(i, count) for i, count in BUTTERFLY_RUNS if count > 1]


@st.composite
def _whole_runs_perturbed(draw):
    """BUTTERFLY_ROWS with one to three of its runs changed whole: each row
    of the run gets the same change of one field."""
    rows = list(BUTTERFLY_ROWS)
    for _ in range(draw(st.integers(1, 3), label="runs")):
        i, count = draw(st.sampled_from(LONG_BUTTERFLY_RUNS) | st.sampled_from(BUTTERFLY_RUNS),
                        label="run")
        name = draw(st.sampled_from(TraceRow._fields), label="field")
        change = draw(st.sampled_from([-2, -1, 1, 200]), label="change")
        k = TraceRow._fields.index(name)
        rows[i:i + count] = [row._replace(**{name: row[k] + change})
                             for row in rows[i:i + count]]
    return rows


class TestMatchesReferenceTraceIO:
    @given(_rows_with_repeated_tails())
    def test_writer_bytes(self, rows):
        """write_trace writes the reference run records, and read_trace reads
        them back to the rows."""
        result = RunResult(CAP, None, len(rows), 0, 1, 1, rows)
        header = trace_header(RING6, 0, 3, 2, 3, SimConfig())
        text = _trace_text(write_trace, header, result)
        lines = text.splitlines(keepends=True)
        assert lines[1:-1] == _reference_run_lines(rows)
        assert read_trace(io.StringIO(text))[1] == rows

    @pytest.mark.parametrize("token", [
        "01", "-0", "+1", " 1", "1.0", "1_0", "\u0661", "1" * 19, "", None,
    ], ids=["leading-zero", "minus-zero", "plus", "space", "float", "underscore",
            "arabic-indic", "19-digits", "empty", "no-newline"])
    @pytest.mark.parametrize("which", ["repeated", "fresh"])
    def test_reader_round_token(self, token, which):
        """Mutate one run line's round token (or drop its newline) on a line
        whose tail text an earlier line has, or on one whose tail is new, and
        read the trace as a list of lines and as one text: rows or the error
        line must be what json.loads reads from the lines."""
        lines = list(TRACE_LINES)
        i = (REPEATED_TAIL if which == "repeated" else FRESH_TAIL)[1]
        lines[i] = lines[i][:-1] if token is None else _with_token(lines[i], "round", token)
        assert lines[i] != TRACE_LINES[i]
        for source in (lambda: list(lines), lambda: io.StringIO("".join(lines))):
            assert _read_or_error(read_trace, source()) == _read_by_json(source())

    @pytest.mark.parametrize("head", [
        '{"kind": "rox", "round": ', '{"kind": "rows","round": ', ' {"kind": "rows", "round": ',
    ], ids=["other-kind", "compact", "indented"])
    def test_reader_row_head(self, head):
        """A run line whose tail text an earlier line has, but which starts
        otherwise, reads as json.loads reads it."""
        lines = list(TRACE_LINES)
        i = REPEATED_TAIL[-1]
        assert json.loads(lines[i])["round"] >= 10
        lines[i] = head + lines[i].split(": ", 2)[2]
        assert (_read_or_error(read_trace, io.StringIO("".join(lines)))
                == _read_by_json(io.StringIO("".join(lines))))

    def test_longrun_shaped_trace_round_trips(self):
        """A long idle-heavy trace takes one line per run and reads back to
        its rows."""
        header = trace_header(BUTTERFLY, 0, 4, 2, 3, SimConfig())
        text = _trace_text(write_trace, header, BUTTERFLY_RUN)
        lines = text.splitlines(keepends=True)
        assert lines[1:-1] == _reference_run_lines(BUTTERFLY_ROWS)
        assert len(lines) - 2 < len(BUTTERFLY_ROWS) / 4
        assert read_trace(io.StringIO(text))[1] == BUTTERFLY_ROWS

    def test_longrun_shaped_trace_replays_clean(self):
        g, res = _butterfly_trace(40)
        assert len(res.trace) > 5000
        assert replay_check(res.trace, g) == _reference_replay(res.trace, g) == []

    @given(st.data())
    def test_replay_of_mutated_traces(self, data):
        rows = list(BUTTERFLY_ROWS)
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            mutation = data.draw(st.sampled_from(["perturb", "violate_and_repeat",
                                                  "repeat_move"]))
            if mutation == "repeat_move":
                i = data.draw(st.sampled_from(
                    [k for k, row in enumerate(rows) if row.arrival1 or row.arrival2]))
            else:
                i = data.draw(st.integers(0, len(rows) - 1), label="row")
                name = data.draw(st.sampled_from(TraceRow._fields), label="field")
                rows[i] = rows[i]._replace(**{name: rows[i][TraceRow._fields.index(name)]
                                              + data.draw(st.sampled_from([-2, -1, 1, 200]))})
            if mutation != "perturb":
                # the same row again right after it, under a new round
                rows.insert(i + 1, rows[i]._replace(round=data.draw(st.integers(-5, 10 ** 6))))
        assert (sorted(_expanded(replay_check(rows, BUTTERFLY)))
                == sorted(_reference_replay(rows, BUTTERFLY)))

    @given(_whole_runs_perturbed())
    def test_replay_of_whole_run_perturbations(self, rows):
        """A fault shared by a whole run is one line for the run, and each
        expands to the reference's lines for its rows."""
        assert (sorted(_expanded(replay_check(rows, BUTTERFLY)))
                == sorted(_reference_replay(rows, BUTTERFLY)))


@st.composite
def _rows_from_tail_pool(draw):
    """Rows drawn from a few tails in which no agent moves and a few in which
    one does, each repeated under consecutive rounds or after a round gap."""
    small = st.integers(-2, 6)
    idle = st.tuples(small, small, small, small, small).map(
        lambda t: (t[0], t[1], t[2], t[3], t[4], 0, 0, t[0], t[1]))
    moving = st.tuples(*[small] * 9)
    tails = draw(st.lists(idle | moving, min_size=1, max_size=4))
    rows = []
    rnd = draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 12))):
        tail = draw(st.sampled_from(tails))
        for _ in range(draw(st.integers(1, 5))):
            rows.append(TraceRow(rnd, *tail))
            rnd += draw(st.sampled_from([1, 1, 1, 0, 2, -1]))
    return rows


class TestTraceSequence:
    @given(_rows_from_tail_pool() | _rows_with_repeated_tails(), st.data())
    def test_reads_as_its_rows(self, rows, data):
        """A Trace of any row list iterates, measures, indexes and compares
        as that list, and its runs are the reference writer's runs."""
        trace = Trace(rows)
        assert list(trace) == rows and len(trace) == len(rows)
        assert trace == rows and rows == trace and trace == Trace(list(trace))
        assert not (trace != rows or rows != trace)
        runs = [[head[0], count, head[1:]] for head, count in trace.runs()]
        assert [json.dumps({"kind": "rows", "round": int(rnd), "count": count,
                            **{f: int(v) for f, v in zip(TraceRow._fields[1:], tail)}}) + "\n"
                for rnd, count, tail in runs] == _reference_run_lines(rows)
        if rows:
            i = data.draw(st.integers(-len(rows), len(rows) - 1), label="index")
            assert trace[i] == rows[i] and type(trace[i]) is TraceRow
            other = rows[:i] + [rows[i]._replace(dist=rows[i].dist + 1)] + rows[i + 1:]
            assert trace != other and other != trace and trace != Trace(other)
            assert trace != rows[:-1] and rows + rows[-1:] != trace
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                trace[i]
        bound = st.none() | st.integers(-len(rows) - 2, len(rows) + 2)
        cut = slice(data.draw(bound, label="start"), data.draw(bound, label="stop"),
                    data.draw(bound.filter(lambda step: step != 0), label="step"))
        assert trace[cut] == rows[cut]

    def test_engine_trace_holds_runs(self):
        """The engine records the runs that grouping its rows gives."""
        assert BUTTERFLY_ROWS == Trace(list(BUTTERFLY_ROWS))
        assert len(list(BUTTERFLY_ROWS.runs())) < len(BUTTERFLY_ROWS) / 4
