import concurrent.futures
import csv
import hashlib
import json
import os
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rvsim import AgentProgram, acceptance, build, generate_ring, read_trace, save_graph
from rvsim.cli import main
from rvsim.graphs import materialize


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGenerate:
    def test_caterpillar_counts_and_starts(self, tmp_path, capsys):
        out = tmp_path / "cat.txt"
        assert main(["generate", "--family", "caterpillar", "--spine-length", "2",
                     "--degree", "3", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "n=8" in stdout and "start1=0" in stdout and "start2=2" in stdout
        assert out.exists()

    def test_butterfly_counts(self, tmp_path, capsys):
        out = tmp_path / "b.txt"
        assert main(["generate", "--family", "butterfly", "--clique-size", "3",
                     "--columns", "4", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "n=12" in stdout and "m=36" in stdout

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code = main(["generate", "--family", "butterfly", "--clique-size", "4",
                     "--columns", "8", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "odd" in capsys.readouterr().err

    def test_repeat_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "--family", "random", "--size", "40", "--max-degree", "6",
              "--seed", "5", "--out", str(a)])
        out1 = capsys.readouterr().out.replace(str(a), "OUT")
        main(["generate", "--family", "random", "--size", "40", "--max-degree", "6",
              "--seed", "5", "--out", str(b)])
        out2 = capsys.readouterr().out.replace(str(b), "OUT")
        assert out1 == out2
        assert read(a) == read(b)


class TestRun:
    def test_single_edge_regression(self, tmp_path, capsys):
        gpath = tmp_path / "edge.txt"
        save_graph(build(2, [(0, 1, 1, 1)]), str(gpath))
        code = main(["run", "--graph", str(gpath), "--start1", "0", "--start2", "1",
                     "--label1", "0", "--label2", "1"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "outcome=met" in stdout and "met_round=2" in stdout

    def test_symmetric_ring_cap_reached_exit_1(self, tmp_path, capsys):
        gpath = tmp_path / "ring.txt"
        main(["generate", "--family", "ring", "--size", "6", "--numbering", "uniform",
              "--out", str(gpath)])
        capsys.readouterr()
        code = main(["run", "--graph", str(gpath), "--start1", "0", "--start2", "3",
                     "--label1", "5", "--label2", "5", "--round-cap", "800"])
        stdout = capsys.readouterr().out
        assert code == 1
        assert "outcome=cap" in stdout

    def test_missing_graph_exit_2(self, tmp_path, capsys):
        assert main(["run", "--graph", str(tmp_path / "nope.txt"), "--start1", "0",
                     "--start2", "1", "--label1", "0", "--label2", "1"]) == 2

    @pytest.mark.parametrize("starts", [("6", "1"), ("0", "99")])
    def test_start_outside_graph_exit_2(self, tmp_path, capsys, starts):
        gpath = tmp_path / "ring.txt"
        main(["generate", "--family", "ring", "--size", "6", "--out", str(gpath)])
        capsys.readouterr()
        code = main(["run", "--graph", str(gpath), "--start1", starts[0],
                     "--start2", starts[1], "--label1", "0", "--label2", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "outside 0..5" in captured.err

    def test_trace_deterministic(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        main(["generate", "--family", "random", "--size", "20", "--max-degree", "5",
              "--seed", "2", "--out", str(gpath)])
        capsys.readouterr()
        traces = []
        stdouts = []
        for name in ("t1.jsonl", "t2.jsonl"):
            tpath = tmp_path / name
            main(["run", "--graph", str(gpath), "--start1", "0", "--start2", "19",
                  "--label1", "2", "--label2", "5", "--trace-out", str(tpath)])
            stdouts.append(capsys.readouterr().out)
            traces.append(read(tpath))
        assert stdouts[0] == stdouts[1]
        assert traces[0] == traces[1]

    def test_bad_trace_out_exits_2_before_any_round(self, tmp_path, capsys, monkeypatch):
        gpath = tmp_path / "ring.txt"
        save_graph(generate_ring(6), str(gpath))
        steps = []
        step = AgentProgram.step
        monkeypatch.setattr(AgentProgram, "step",
                            lambda self, obs: steps.append(obs) or step(self, obs))
        argv = ["run", "--graph", str(gpath), "--start1", "0", "--start2", "3",
                "--label1", "0", "--label2", "1", "--trace-out"]
        code = main(argv + [str(tmp_path / "no" / "t.jsonl")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "t.jsonl" in captured.err
        assert steps == []
        assert main(argv + [str(tmp_path / "t.jsonl")]) == 0 and steps


class TestTraceCheck:
    @pytest.fixture
    def traced(self, tmp_path, monkeypatch, capsys):
        """A graph and the trace `run --trace-out` writes on it."""
        monkeypatch.chdir(tmp_path)
        assert main(_TRACE_GRAPH) == 0
        assert main(["run", "--graph", "g.txt", "--start1", "0", "--start2", "15",
                     "--label1", "6", "--label2", "9", "--trace-out", "t.jsonl"]) == 0
        capsys.readouterr()
        return tmp_path / "t.jsonl"

    def _check(self, trace, capsys, graph="g.txt"):
        code = main(["trace", "check", str(trace), "--graph", graph])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_clean_trace_exits_0(self, traced, capsys):
        code, out, _ = self._check(traced, capsys)
        assert (code, out) == (0, "rows=72 violations=0\n")

    def test_format_1_trace_exits_2(self, traced, capsys):
        """The same rows, one format-1 record per round under a header with
        no format field, are refused at the header, naming the format."""
        with open(traced, encoding="ascii") as fh:
            header, rows, result = read_trace(fh)
        del header["format"]
        lines = [json.dumps(header)]
        lines += [json.dumps({"kind": "row", **row._asdict()}) for row in rows]
        lines.append(json.dumps(result))
        traced.write_text("\n".join(lines) + "\n")
        code, out, err = self._check(traced, capsys)
        assert (code, out) == (2, "")
        assert err == "error: line 1: trace format 1 is not supported; rvsim reads format 2\n"

    def test_round_shifted_trace_exits_1(self, traced, capsys):
        """Rows numbered from round 1000 replay clean, but their rounds are
        not their row indices."""
        lines = traced.read_text().splitlines(keepends=True)
        for i in range(1, len(lines) - 1):
            rec = json.loads(lines[i])
            lines[i] = json.dumps({**rec, "round": rec["round"] + 1000}) + "\n"
        traced.write_text("".join(lines))
        code, out, _ = self._check(traced, capsys)
        assert (code, out) == (1, "trace: row 0 has round 1000\nrows=72 violations=1\n")

    def test_perturbed_trace_exits_1_with_violations(self, traced, capsys):
        lines = traced.read_text().splitlines(keepends=True)
        rec = json.loads(lines[3])
        rec["dist"] += 1
        lines[3] = json.dumps(rec) + "\n"
        traced.write_text("".join(lines))
        code, out, _ = self._check(traced, capsys)
        # every row of the run carries the wrong distance: one line for the run
        last = rec["round"] + rec["count"] - 1
        assert rec["count"] > 1
        assert (code, out) == (1, f"rows {rec['round']}..{last}: recorded distance "
                                  f"{rec['dist']}, actual {rec['dist'] - 1}\n"
                                  "rows=72 violations=1\n")

    def test_truncated_trace_exits_1(self, traced, capsys):
        """With the last run record gone, the rows fall short of the result's
        rounds and end where the result does not."""
        lines = traced.read_text().splitlines(keepends=True)
        del lines[-2]
        traced.write_text("".join(lines))
        code, out, _ = self._check(traced, capsys)
        assert (code, out) == (1, "trace: 71 rows, but the result counts 72 rounds\n"
                                  "trace: the run ends at (2, 9), but the result says (9, 9)\n"
                                  "rows=71 violations=2\n")

    def test_edited_header_start_exits_1(self, traced, capsys):
        traced.write_text(traced.read_text().replace('"start2": 15', '"start2": 3', 1))
        code, out, _ = self._check(traced, capsys)
        assert (code, out) == (1, "trace: the run starts at (0, 15), but the header says (0, 3)\n"
                                  "rows=72 violations=1\n")

    def _forge(self, traced, counts, round_cap):
        """Replace the body of the trace with clean idle runs of these counts
        at the start positions, under a header with this round_cap and a
        result that counts their rows."""
        header, first, *_, result = map(json.loads, traced.read_text().splitlines())
        idle = {**first, "port1": 0, "port2": 0, "arrival1": 0, "arrival2": 0,
                "next1": first["pos1"], "next2": first["pos2"]}
        records = [{**header, "round_cap": round_cap}]
        rnd = 0
        for count in counts:
            records.append({**idle, "round": rnd, "count": count})
            rnd += count
        records.append({**result, "outcome": "cap", "met_round": None, "rounds": rnd,
                        "final1": first["pos1"], "final2": first["pos2"],
                        "min_distance": first["dist"]})
        traced.write_text("".join(json.dumps(rec) + "\n" for rec in records))

    @pytest.mark.parametrize("rows", [10 ** 17, sys.maxsize])
    def test_huge_idle_run_is_checked_once(self, traced, capsys, rows):
        """A clean idle run of 10^17 rows (18 digits, the regex path) or of
        sys.maxsize rows (19 digits, the json.loads path) is never expanded."""
        self._forge(traced, [rows], 10 ** 18 if rows < 10 ** 18 else 10 ** 19)
        code, out, _ = self._check(traced, capsys)
        assert (code, out) == (0, f"rows={rows} violations=0\n")

    def test_huge_faulty_run_is_reported_once(self, traced, capsys):
        """An idle run of 10^17 rows with a distance one too high is one
        violation line, not one per row."""
        rows = 10 ** 17
        self._forge(traced, [rows], 10 ** 18)
        header, run_line, result = traced.read_text().splitlines(keepends=True)
        rec = json.loads(run_line)
        run_line = json.dumps({**rec, "dist": rec["dist"] + 1}) + "\n"
        traced.write_text(header + run_line + result)
        code, out, _ = self._check(traced, capsys)
        assert (code, out) == (1, f"rows 0..{rows - 1}: recorded distance {rec['dist'] + 1}, "
                                  f"actual {rec['dist']}\nrows={rows} violations=1\n")

    @pytest.mark.parametrize("counts", [[10 ** 19], [5 * 10 ** 18, 5 * 10 ** 18]])
    def test_rows_past_maxsize_exit_2(self, traced, capsys, counts):
        """len() cannot report more than sys.maxsize rows, so such a trace is
        malformed, whatever its round_cap."""
        self._forge(traced, counts, 10 ** 20)
        code, out, err = self._check(traced, capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: line {len(counts) + 1}: run of {counts[-1]} rows takes the "
                       f"trace past {sys.maxsize} rows\n")

    @pytest.mark.parametrize("damage", ["missing-trace", "not-json", "run-count",
                                        "cap-and-count", "other-graph", "missing-graph"])
    def test_bad_file_or_graph_exits_2(self, traced, capsys, damage):
        graph = "g.txt"
        if damage == "missing-trace":
            traced.unlink()
        elif damage == "not-json":
            traced.write_text(traced.read_text().replace('"count"', "count", 1))
        elif damage in ("run-count", "cap-and-count"):
            text = re.sub(r'"count": \d+', '"count": 100000000000000000',
                          traced.read_text(), count=1)
            if damage == "cap-and-count":  # the count fits the cap, not the result's rounds
                text = re.sub(r'"round_cap": \d+', '"round_cap": 1000000000000000000', text)
            traced.write_text(text)
        elif damage == "other-graph":
            save_graph(generate_ring(30), "ring.txt")
            graph = "ring.txt"
        else:
            graph = "nope.txt"
        code, out, err = self._check(traced, capsys, graph)
        assert code == 2 and out == "" and err.startswith("error: ")


class TestSweep:
    def test_distance_scaling_roughly_linear(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", "caterpillar", "--spine-lengths", "2,4,8",
                     "--degrees", "4", "--label-pairs", "2:5", "--out", str(out),
                     "--jobs", "1"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        rounds = [int(r["rounds"]) for r in rows]
        assert rounds == sorted(rounds)  # monotone in the spine length
        for a, b in zip(rounds, rounds[1:]):
            assert b <= 3 * a  # doubling the distance at most triples the cost
        assert all(float(r["bound_ratio"]) <= 1 for r in rows)

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--family", "ring", "--label-pairs", "2:5"], "--sizes lists no value",
                     id="no-sizes"),
        pytest.param(["--family", "caterpillar", "--spine-lengths", "2", "--label-pairs", "2:5"],
                     "--degrees lists no value", id="no-degrees"),
        pytest.param(["--family", "ring", "--sizes", "6", "--label-pairs", ","],
                     "--label-pairs , holds no label pair", id="no-label-pair"),
    ])
    def test_no_cells_exit_2(self, tmp_path, capsys, args, message):
        """A grid with no cells is a usage error: no CSV, no summary."""
        out = tmp_path / "empty.csv"
        code = main(["sweep", *args, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_schema_is_stable(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        main(["sweep", "--family", "ring", "--sizes", "6", "--label-pairs", "0:1",
              "--out", str(out), "--jobs", "1"])
        with open(out) as fh:
            header = fh.readline().strip()
        assert header == ("family,params,n,m,max_degree,start1,start2,start_distance,"
                          "label1,label2,oracle_mode,outcome,met_round,rounds,"
                          "round_cap,analytic_cap,bound_ratio,error")

    def test_label_range_and_repeat(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = main(["sweep", "--family", "ring", "--sizes", "6", "--label-range",
                     "0:4", "--repeat", "2", "--out", str(out), "--jobs", "1"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "unstable=0" in stdout
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # 6 rotations x C(4,2) pairs, written once despite the repeat
        assert len(rows) == 6 * 6
        pairs = {(r["label1"], r["label2"]) for r in rows}
        assert pairs == {("0", "1"), ("0", "2"), ("0", "3"),
                         ("1", "2"), ("1", "3"), ("2", "3")}

    def test_needs_exactly_one_label_source(self, tmp_path, capsys):
        code = main(["sweep", "--family", "ring", "--sizes", "6",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        pytest.param("--rotations", "-3", "--rotations must be >= 0", id="--rotations"),
        pytest.param("--jobs", "-3", "--jobs must be >= 0", id="--jobs"),
        pytest.param("--repeat", "0", "--repeat must be >= 1", id="--repeat=0"),
        pytest.param("--repeat", "-2", "--repeat must be >= 1", id="--repeat=-2"),
        pytest.param("--label-range", "4:2", "--label-range 4:2 holds no label pair",
                     id="--label-range=4:2"),
        pytest.param("--label-range", "-3:0", "labels must be >= 0", id="--label-range=-3:0"),
        pytest.param("--label-pairs", "-1:2", "labels must be >= 0", id="--label-pairs=-1:2"),
    ])
    def test_negative_count_exit_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "neg.csv"
        labels = [] if flag.startswith("--label") else ["--label-pairs", "2:5"]
        code = main(["sweep", "--family", "ring", "--sizes", "6", *labels,
                     f"{flag}={value}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and message in captured.err
        assert not out.exists()

    def test_jobs_never_exceed_the_work(self, tmp_path, capsys, monkeypatch):
        # the process pool forks all its workers up front, so --jobs 64 on two
        # cells asks for two; this pool maps in-process and starts none
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        outs = []
        for jobs in ("64", "1"):
            path = tmp_path / f"jobs{jobs}.csv"
            code = main(["sweep", "--family", "ring", "--sizes", "6", "--rotations", "2",
                         "--label-pairs", "2:5", "--out", str(path), "--jobs", jobs])
            assert code == 0
            outs.append(read(path))
        assert asked == [2]
        assert outs[0] == outs[1] and outs[0].count(b"\n") == 3

    def test_repeat_rebuilds_the_graph(self, tmp_path, capsys, monkeypatch):
        # consecutive cells on one recipe share its graph, but a cell that
        # runs again gets a graph built after its earlier run
        builds = []

        def counting(family, params):
            builds.append(family)
            return materialize(family, params)

        monkeypatch.setattr(acceptance, "_graph_entry", None)
        monkeypatch.setattr(acceptance, "materialize", counting)
        outs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"repeat{jobs}.csv"
            code = main(["sweep", "--family", "ring", "--sizes", "8", "--seeds", "3",
                         "--label-pairs", "2:5", "--repeat", "2", "--out", str(path),
                         "--jobs", jobs])
            assert code == 0 and "unstable=0" in capsys.readouterr().out
            outs.append(read(path))
            if jobs == "1":
                assert builds == ["ring", "ring"]
        assert outs[0] == outs[1] and outs[0].count(b"\n") == 9

    def test_pool_workers_build_their_own_graphs(self, tmp_path, capsys, monkeypatch):
        # the parent ran a cell on this recipe; its forked workers inherit
        # that graph, but must not share it between a cell's two runs
        log = tmp_path / "builds.txt"

        def counting(family, params):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return materialize(family, params)

        monkeypatch.setattr(acceptance, "_graph_entry", None)
        monkeypatch.setattr(acceptance, "materialize", counting)
        params = (("size", 8), ("numbering", "random"), ("seed", 3))
        acceptance.run_cell(acceptance.Cell("ring", params, 0, 4, 7, 9))
        code = main(["sweep", "--family", "ring", "--sizes", "8", "--seeds", "3",
                     "--label-pairs", "2:5", "--repeat", "2", "--out",
                     str(tmp_path / "r.csv"), "--jobs", "2"])
        assert code == 0 and "unstable=0" in capsys.readouterr().out
        pids = log.read_text().split()
        assert pids[0] == str(os.getpid())
        assert len(pids) == 3 and str(os.getpid()) not in pids[1:]

    def test_parallel_equals_serial(self, tmp_path, capsys):
        outs = []
        for jobs, name in (("1", "serial.csv"), ("2", "par.csv")):
            path = tmp_path / name
            main(["sweep", "--family", "random", "--sizes", "20,30",
                  "--max-degrees", "5", "--seeds", "0,1", "--label-pairs", "2:5",
                  "--out", str(path), "--jobs", jobs])
            capsys.readouterr()
            outs.append(read(path))
        assert outs[0] == outs[1]


# Each command writes one file under a relative name, so its stdout does not
# depend on the working directory. The digests were recorded when every
# family still had its own branch in `generate`, `sweep` and the release
# gate; they pin CLI stdout, graph files and sweep CSVs across changes.
_GOLDEN_RUNS = {
    "generate-caterpillar": (
        ["generate", "--family", "caterpillar", "--spine-length", "5", "--degree", "4",
         "--policy", "random", "--seed", "4", "--out", "cat.txt"], "cat.txt",
        "9dc7b1fefee0d10bf70aa04b750833dd3af632c9ea0fb7dad1b22a4361794d15",
        "b170554b5e70bb33d0568ab5f70fce54687dd7414eaa512d8c497056f4e557f0"),
    "generate-butterfly": (
        ["generate", "--family", "butterfly", "--clique-size", "5", "--columns", "6",
         "--out", "bfly.txt"], "bfly.txt",
        "9f1a4476190b6d29854aa135902553345b57d9d5802ac34fe9b2cf1b45696417",
        "74cce538fffd655a36773000807c83ecac38baf197d777da93baaad024827cdf"),
    "generate-ring": (
        ["generate", "--family", "ring", "--size", "9", "--numbering", "random",
         "--seed", "2", "--out", "ring.txt"], "ring.txt",
        "041b048983124dbfc99d586df36adc89a247492bf8f99cfa7d4f2e5aa0bdce8f",
        "f01bb616b7da80699a04829e9bdb1bd35b43b56504c2a7ea755fb3d3f558ee08"),
    "generate-random": (
        ["generate", "--family", "random", "--size", "40", "--max-degree", "5",
         "--seed", "7", "--out", "rand.txt"], "rand.txt",
        "0c81f0ac764a078b9da9855405c1817683760a694e73e41e532901a7853d1b34",
        "5f2ee1bcbd46695cc3e4f01a2b8daab1e79a77cac3fe941c0ddf5b36939a5f9c"),
    "sweep-caterpillar": (
        ["sweep", "--family", "caterpillar", "--spine-lengths", "2,3", "--degrees", "3,4",
         "--policies", "adversarial,random", "--seeds", "0,1", "--label-pairs", "2:5",
         "--jobs", "1", "--out", "cat.csv"], "cat.csv",
        "2fa8939ec63b637cb36d1a7f9b0d487ee971831b0d716677f814d997b8adbf24",
        "0d331d5db2f693ca2542dc8e7a174024abffe313f05b1ecdefc1955d12b8c92d"),
    "sweep-butterfly": (
        ["sweep", "--family", "butterfly", "--clique-sizes", "3,5", "--columns", "6",
         "--label-range", "0:4", "--jobs", "1", "--out", "bfly.csv"], "bfly.csv",
        "1144b4788a77d9a7f5757dd3968684b2c509773405fb20f19366c697d12f8d1c",
        "a2842680838725b40996a137fb928bd2a8b84143d50c3f6c44ac0e2163449f10"),
    "sweep-ring-uniform": (
        ["sweep", "--family", "ring", "--sizes", "6,7", "--seeds", "0,1",
         "--numbering", "uniform", "--rotations", "3", "--label-pairs", "0:1,2:5",
         "--jobs", "1", "--out", "ring.csv"], "ring.csv",
        "4a0d58a72872d2199f9abeaf41cc9fffc90a1f50d1bf5f0dd603b5b440167485",
        "c9435358dfe6c09826371e1c174b52bfae42c6ff4dcbc653ef658a4526dc9e4c"),
    "sweep-ring-random": (
        ["sweep", "--family", "ring", "--sizes", "6,7", "--seeds", "0,1",
         "--numbering", "random", "--rotations", "3", "--label-pairs", "0:1,2:5",
         "--jobs", "1", "--out", "ring.csv"], "ring.csv",
        "0cb7e27bd56592c88790180ee6895f28016fd4279e6c1aa6369862bcfe898a41",
        "3e582c72f75c67dc9993d5b34f001f49cd09d479e2fbf9872e618b114dbe76b8"),
    "sweep-random": (
        ["sweep", "--family", "random", "--sizes", "12,20", "--max-degrees", "3,5",
         "--seeds", "0,1", "--label-pairs", "2:5", "--oracle-mode", "delta",
         "--jobs", "1", "--out", "rand.csv"], "rand.csv",
        "0256ab53e83c33cac143d346270351b94b92efca3a2924e2b96b6a381e4a8144",
        "77c4115ad83894d06ebef6ba5a65a29a3af6e3b2b97ffdca084792602dfcfcfd"),
}
# argparse wraps help text to $COLUMNS; these digests hold for Python 3.10 to 3.13
_GOLDEN_HELP = {
    "generate": "18280f25591f00975d52ff26e780a5b3dcf4ae09aeacecfcd71201ba6452c930",
    "sweep": "fd43784861894bbe919bdebc2503ccd7e9bdce90591e38bbd3e78a86d2d52c69",
}

# `run --trace-out` in each oracle mode on a graph that `generate` writes
# first: mode -> (stdout digest, trace digest). The stdout digests date from
# rows written through json.dumps. The trace digests were re-recorded for
# trace format 2 (one record per run of rounds); they pin trace bytes across
# changes.
_TRACE_GRAPH = ["generate", "--family", "random", "--size", "30", "--max-degree", "4",
                "--seed", "5", "--out", "g.txt"]
_GOLDEN_TRACES = {
    "exact": ("dc3870be02ef946b9aedc78a5a7b4ff9f8bdc8f4a9ee8dff14231f4e1e862768",
              "d010125388a9ae4e9fb63403f31efbcd78d31f52db4ee526c5da064da51f99bf"),
    "delta": ("dc3870be02ef946b9aedc78a5a7b4ff9f8bdc8f4a9ee8dff14231f4e1e862768",
              "6f064de70245681ad858599205c6f82165d878205eb4170201171143ff71c7d4"),
}


def _sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
    def test_command_bytes(self, name, tmp_path, monkeypatch, capsys):
        argv, written, stdout_digest, file_digest = _GOLDEN_RUNS[name]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert _sha256(capsys.readouterr().out) == stdout_digest
        assert _sha256(read(tmp_path / written)) == file_digest

    @pytest.mark.parametrize("mode", sorted(_GOLDEN_TRACES))
    def test_trace_bytes(self, mode, tmp_path, monkeypatch, capsys):
        stdout_digest, trace_digest = _GOLDEN_TRACES[mode]
        monkeypatch.chdir(tmp_path)
        assert main(_TRACE_GRAPH) == 0
        capsys.readouterr()
        assert main(["run", "--graph", "g.txt", "--start1", "0", "--start2", "15",
                     "--label1", "6", "--label2", "9", "--oracle-mode", mode,
                     "--trace-out", "t.jsonl"]) == 0
        assert _sha256(capsys.readouterr().out) == stdout_digest
        assert _sha256(read(tmp_path / "t.jsonl")) == trace_digest

    @pytest.mark.parametrize("command", sorted(_GOLDEN_HELP))
    def test_help_bytes(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert _sha256(capsys.readouterr().out) == _GOLDEN_HELP[command]


class TestLowerbound:
    def test_small_instance_verifies(self, capsys):
        code = main(["lowerbound", "--clique-size", "3", "--label-space", "16",
                     "--distance", "2"])
        stdout = capsys.readouterr().out
        assert code == 0
        for key in ("p1=", "p2=", "label1=", "label2=", "t_star=", "verified_horizon="):
            assert key in stdout

    def test_label_space_shorthand(self, capsys):
        code = main(["lowerbound", "--degree", "8", "--label-space", "2^12",
                     "--distance", "3", "--sample-size", "64"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "label_space=4096" in stdout

    def test_even_clique_usage_error(self, capsys):
        assert main(["lowerbound", "--clique-size", "4", "--label-space", "16",
                     "--distance", "2"]) == 2

    @pytest.mark.parametrize("space", ["2^20000", "2^99999999", "10**4300"])
    def test_label_space_past_the_digit_limit_exits_2_at_once(self, capsys, monkeypatch,
                                                               space):
        """Refused while the flags are parsed, so no instance is built."""
        monkeypatch.setattr("rvsim.cli.build_instance", None)
        code, stdout, stderr = _exit_code(["lowerbound", "--degree", "8", "--label-space",
                                           space, "--distance", "3"], capsys)
        assert code == 2 and stdout == ""
        assert f"{space} has more than" in stderr and "Traceback" not in stderr


class TestSelfcheck:
    def test_each_criterion_prints_its_line_and_times_it(self, capsys, monkeypatch):
        # every check is a stub, so no real criterion runs; the third one fails
        names = [getattr(check, "func", check).__name__ for check in acceptance.criteria()]
        assert len(names) == 11
        calls = []

        def stub(name):
            def check(**kwargs):
                calls.append((name, kwargs))
                return acceptance.CriterionResult(name, name != names[2], 1, "stubbed")
            return check

        for name in names:
            monkeypatch.setattr(acceptance, name, stub(name))
        assert main(["selfcheck", "--fast"]) == 1
        out, err = capsys.readouterr()
        assert [name for name, _ in calls] == names
        assert calls[1] == ("check_lower_bound", {"fast": True})
        assert out.splitlines() == [
            f"{'FAIL' if name == names[2] else 'PASS'} {name}: stubbed (1 cases)"
            for name in names]
        assert [re.fullmatch(r"time (\S+) \d+\.\d{3} s", line).group(1)
                for line in err.splitlines()] == names


def _not_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


_NOT_INT = st.text(max_size=8).filter(_not_int)
_NOT_CHOICE = st.text(max_size=12).filter(
    lambda s: s not in ("caterpillar", "butterfly", "ring", "random", "uniform",
                        "adversarial", "exact", "delta"))

# one valid command per family, and for each of its flags values that are
# all invalid there; the fuzz test swaps one value in and expects exit 2
_GENERATE = [
    (["--family", "random", "--size", "12", "--max-degree", "4", "--seed", "3"],
     {"--family": _NOT_CHOICE, "--size": st.integers(max_value=1) | _NOT_INT,
      "--max-degree": st.integers(max_value=1) | _NOT_INT, "--seed": _NOT_INT}),
    (["--family", "ring", "--size", "6", "--numbering", "random"],
     {"--size": st.integers(max_value=2) | _NOT_INT, "--numbering": _NOT_CHOICE}),
    (["--family", "caterpillar", "--spine-length", "2", "--degree", "3",
      "--policy", "random"],
     {"--spine-length": st.integers(max_value=0) | _NOT_INT,
      "--degree": st.integers(max_value=1) | _NOT_INT, "--policy": _NOT_CHOICE}),
    (["--family", "butterfly", "--clique-size", "3", "--columns", "4"],
     {"--clique-size": st.integers(max_value=2) | st.integers(0, 10 ** 9).map(lambda x: 2 * x),
      "--columns": st.integers(max_value=2) | _NOT_INT}),
]
_RUN = (["--start1", "0", "--start2", "3", "--label1", "0", "--label2", "1",
         "--oracle-mode", "delta", "--round-cap", "500"],
        {"--start1": st.integers(max_value=-1) | st.integers(min_value=6) | _NOT_INT,
         "--start2": st.integers(max_value=-1) | st.integers(min_value=6) | _NOT_INT,
         "--label1": st.integers(max_value=-1) | _NOT_INT,
         "--label2": st.integers(max_value=-1) | _NOT_INT,
         "--oracle-mode": _NOT_CHOICE,
         "--round-cap": st.integers(max_value=-1) | _NOT_INT})

# a comma-free non-integer, alone or after a valid entry of a comma list
_NOT_INT_ITEM = st.text(min_size=1, max_size=8).filter(lambda s: "," not in s and _not_int(s))
_NOT_INT_LIST = _NOT_INT_ITEM | _NOT_INT_ITEM.map(lambda s: "6," + s)
_NOT_COUNT = st.integers(max_value=-1) | _NOT_INT
_SWEEP_COMMON = (["--oracle-mode", "delta", "--jobs", "1", "--repeat", "1"],
                 {"--family": _NOT_CHOICE, "--oracle-mode": _NOT_CHOICE, "--jobs": _NOT_COUNT,
                  "--repeat": st.integers(max_value=0) | _NOT_INT,
                  "--label-pairs": _NOT_INT_ITEM.map(lambda s: "2:" + s)
                  | st.tuples(st.integers(max_value=-1), st.integers(0, 9))
                  .flatmap(st.permutations).map(lambda t: f"{t[0]}:{t[1]}"),
                  "--label-range": _NOT_INT_ITEM.map(lambda s: "2:" + s)
                  | st.tuples(st.integers(-9, 9), st.integers(-9, 9))
                  .filter(lambda t: t[1] < t[0] + 2 or t[0] < 0)
                  .map(lambda t: f"{t[0]}:{t[1]}")})
# each sweep names its labels one way or the other
_LABELS = [["--label-pairs", "2:5"], ["--label-range", "2:5"]]
_SWEEP = [
    (["--family", "caterpillar", "--spine-lengths", "2", "--degrees", "3",
      "--policies", "random", "--seeds", "1"],
     {"--spine-lengths": _NOT_INT_LIST, "--degrees": _NOT_INT_LIST, "--seeds": _NOT_INT_LIST}),
    (["--family", "butterfly", "--clique-sizes", "3", "--columns", "4"],
     {"--clique-sizes": _NOT_INT_LIST, "--columns": _NOT_INT_LIST}),
    (["--family", "ring", "--sizes", "6", "--seeds", "0", "--numbering", "uniform",
      "--rotations", "2"],
     {"--sizes": _NOT_INT_LIST, "--seeds": _NOT_INT_LIST, "--numbering": _NOT_CHOICE,
      "--rotations": _NOT_COUNT}),
    (["--family", "random", "--sizes", "12", "--max-degrees", "4", "--seeds", "3"],
     {"--sizes": _NOT_INT_LIST, "--max-degrees": _NOT_INT_LIST, "--seeds": _NOT_INT_LIST}),
]


def _swap(argv, flags, data):
    """argv with one of its flags given a drawn bad value, as ``--flag=value``
    so that a value starting with ``-`` reaches the flag's own check."""
    flag = data.draw(st.sampled_from(sorted(f for f in flags if f in argv)))
    argv = list(argv)
    i = argv.index(flag)
    argv[i:i + 2] = [f"{flag}={data.draw(flags[flag])}"]
    return argv


def _exit_code(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    save_graph(generate_ring(6), str(path / "ring.txt"))
    (path / "garbage.txt").write_text("6 6\n0 1 1\n")
    return path


class TestBadArgumentValues:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_generate_exits_2(self, fuzz_dir, capsys, data):
        base, flags = data.draw(st.sampled_from(_GENERATE))
        out = data.draw(st.sampled_from([fuzz_dir / "g.txt", fuzz_dir / "no" / "g.txt"]))
        argv = ["generate"] + base + ["--out", str(out)]
        if out.parent.exists():
            argv = _swap(argv, flags, data)
        code, stdout, stderr = _exit_code(argv, capsys)
        assert code == 2, argv
        assert stdout == "" and "Traceback" not in stderr

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_run_exits_2(self, fuzz_dir, capsys, data):
        base, flags = _RUN
        graph = data.draw(st.sampled_from(["ring.txt", "garbage.txt", "missing.txt", "."]))
        trace = data.draw(st.sampled_from([[], ["--trace-out", str(fuzz_dir / "no" / "t")]]))
        argv = ["run", "--graph", str(fuzz_dir / graph)] + base + trace
        if graph == "ring.txt" and not trace:
            argv = _swap(argv, flags, data)
        code, stdout, stderr = _exit_code(argv, capsys)
        assert code == 2, argv
        assert stdout == "" and "Traceback" not in stderr

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_sweep_exits_2(self, fuzz_dir, capsys, data):
        base, flags = data.draw(st.sampled_from(_SWEEP))
        common, common_flags = _SWEEP_COMMON
        labels = data.draw(st.sampled_from(_LABELS))
        argv = ["sweep"] + base + labels + common + ["--out", str(fuzz_dir / "s.csv")]
        argv = _swap(argv, {**flags, **common_flags}, data)
        code, stdout, stderr = _exit_code(argv, capsys)
        assert code == 2, argv
        assert stdout == "" and "Traceback" not in stderr
