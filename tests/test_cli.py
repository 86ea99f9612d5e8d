import csv

import pytest

from rvsim import build, save_graph
from rvsim.cli import main


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

    def test_empty_grid_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        code = main(["sweep", "--family", "ring", "--sizes", "", "--label-pairs",
                     "2:5", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 and lines[0].startswith("family,params")

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
