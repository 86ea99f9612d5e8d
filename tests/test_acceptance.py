"""The acceptance gate: one test per criterion, each printing its PASS/FAIL
line (visible with ``pytest -s`` or in the ``selfcheck`` CLI output).

Expected total runtime is about 10 s. Criterion 2 takes under 1 s of it: its
explicit 2^20-label extraction walks the label trie, so labels that share a
prefix share one simulation, and the later stages see one entry per distinct
port sequence.
"""

import dataclasses
import shlex
from collections import deque

import pytest

import rvsim
from rvsim import acceptance, build_instance
from rvsim.cli import main


def _report(result):
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_upper_bound_conformance():
    result = _report(acceptance.check_upper_bound())
    assert result.cases >= 200


class TestGraphEntry:
    """run_cell keeps the graph of the last recipe it built."""

    @pytest.fixture(autouse=True)
    def no_entry(self, monkeypatch):
        monkeypatch.setattr(acceptance, "_graph_entry", None)

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []

        def counting(family, params):
            builds.append((family, params))
            return rvsim.graphs.materialize(family, params)

        monkeypatch.setattr(acceptance, "materialize", counting)
        return builds

    @staticmethod
    def _graphs_run(monkeypatch):
        graphs = []

        def recording(g, *args):
            graphs.append(g)
            return rvsim.run(g, *args)

        monkeypatch.setattr(acceptance, "run", recording)
        return graphs

    def test_rows_do_not_depend_on_the_order_or_the_entry(self, monkeypatch):
        cells = acceptance.upper_bound_corpus()
        builds = self._count_builds(monkeypatch)
        in_order = [acceptance.run_cell(c) for c in cells]
        assert len(builds) == len({(c.family, c.params) for c in cells}) == 77
        reverse = [acceptance.run_cell(c) for c in reversed(cells)][::-1]
        cleared = []
        for c in cells:
            monkeypatch.setattr(acceptance, "_graph_entry", None)
            cleared.append(acceptance.run_cell(c))
        assert reverse == in_order and cleared == in_order
        assert len(builds) == 77 + 77 + 242

    def test_same_recipe_shares_the_graph_and_a_rerun_rebuilds(self, monkeypatch):
        graphs = self._graphs_run(monkeypatch)
        params = (("size", 8), ("numbering", "random"), ("seed", 3))
        first = acceptance.Cell("ring", params, 0, 4, 2, 5)
        second = acceptance.Cell("ring", params, 1, 5, 2, 5)
        for cell in (first, second, first, second):
            acceptance.run_cell(cell)
        assert graphs[1] is graphs[0]
        assert graphs[2] is not graphs[0] and graphs[3] is graphs[2]
        assert graphs[2] == graphs[0]

    def test_a_failed_build_leaves_no_entry(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        acceptance.run_cell(acceptance.Cell("ring", (("size", 6),), 0, 3, 2, 5))
        bad = acceptance.Cell("ring", (("size", 2),), 0, 1, 2, 5)
        rows = [acceptance.run_cell(bad) for _ in range(2)]
        assert rows[0] == rows[1] and rows[0]["outcome"] == "error"
        assert rows[0]["error"] == "InvalidParamsError: ring needs at least 3 nodes"
        assert acceptance._graph_entry is None and len(builds) == 3


def _cli_result(command, tmp_path, monkeypatch, capsys):
    """Run ``rvsim … && rvsim …`` through cli.main in ``tmp_path``; the last
    command's stdout fields."""
    monkeypatch.chdir(tmp_path)
    for part in command.split(" && "):
        argv = shlex.split(part)
        assert argv[0] == "rvsim"
        main(argv[1:])
    out = capsys.readouterr().out.splitlines()[-1]
    return dict(field.split("=", 1) for field in out.split())


def test_reproduce_command_repeats_the_cell(tmp_path, monkeypatch, capsys):
    firsts = {}
    for cell in acceptance.upper_bound_corpus():
        firsts.setdefault(cell.family, cell)
    assert len(firsts) == len(rvsim.graphs.FAMILIES)
    for cell in firsts.values():
        row = acceptance.run_cell(cell)
        result = _cli_result(acceptance.reproduce_command(cell, row),
                             tmp_path, monkeypatch, capsys)
        assert (result["met_round"], result["rounds"]) == (str(row["met_round"]),
                                                           str(row["rounds"]))
        assert result["round_cap"] == str(row["round_cap"])


def test_criterion_1_failure_prints_the_reproduce_command(monkeypatch):
    cell = acceptance.Cell("random", (("size", 25), ("max_degree", 4), ("seed", 0)),
                           0, -1, 2, 2 ** 10)
    monkeypatch.setattr(acceptance, "upper_bound_corpus", lambda: [cell])
    monkeypatch.setattr(acceptance, "rendezvous_round_bound", lambda *args: 1)
    result = acceptance.check_upper_bound()
    assert not result.passed
    start2 = acceptance.farthest_node(rvsim.generate_random_connected(25, 4, 0), 0)
    assert result.detail.startswith("1 violations, e.g. ")
    assert result.detail.endswith(
        "reproduce: rvsim generate --family random --size 25 --max-degree 4 --seed 0 "
        "--out g.txt && rvsim run --graph g.txt --start1 0 "
        f"--start2 {start2} --label1 2 --label2 1024 --oracle-mode exact")


def _recording_builds(monkeypatch, change=lambda inst: inst):
    """Make criterion 2 build through ``change``; the list of the real
    instances it built."""
    built = []

    def recording(*args, **kwargs):
        built.append(build_instance(*args, **kwargs))
        return change(built[-1])

    monkeypatch.setattr(acceptance, "build_instance", recording)
    return built


def test_criterion_2_lower_bound_reproduction(monkeypatch):
    built = _recording_builds(monkeypatch)
    _report(acceptance.check_lower_bound(fast=False))
    assert [(i.p1, i.p2, i.label1, i.label2, i.agreement_horizon) for i in built] == [
        (1, 2, 6822464528093728, 8422219424451765, 144), (1, 2, 1, 2, 68)]


def test_criterion_2_fails_below_the_floor_bound(monkeypatch, tmp_path, capsys):
    # a t* below the floor bound fails the gate, as it fails `rvsim lowerbound`,
    # and each failing spec ends with the command that rebuilds its instance
    built = _recording_builds(monkeypatch, lambda inst: dataclasses.replace(
        inst, agreement_horizon=inst.guaranteed_horizon - 1))
    result = acceptance.check_lower_bound(fast=True)
    assert not result.passed
    details = result.detail.split("; ")
    assert len(details) == len(built) == 2
    for detail, inst in zip(details, built):
        command = detail.split(", reproduce: ")[1]
        assert ("--sample-size 1024" in command) == inst.sampled
        assert _cli_result(command, tmp_path, monkeypatch, capsys)["t_star"] == str(
            inst.agreement_horizon)


def test_criterion_3_caterpillar_cost():
    _report(acceptance.check_caterpillar_cost())


def test_criterion_4_symmetry_non_meeting():
    _report(acceptance.check_symmetry_non_meeting())


@pytest.mark.parametrize("check", [
    acceptance.check_lockstep,
    acceptance.check_similarity_on_failure,
    acceptance.check_distinct_exits,
    acceptance.check_delta_sufficiency,
    acceptance.check_oracle_equivalence,
    acceptance.check_paired_numbering,
], ids=["lockstep", "similarity", "distinct-exits", "delta-sufficiency",
        "oracle-equivalence", "paired-numbering"])
def test_criterion_5_lemma_properties(check):
    result = _report(check())
    assert result.cases >= 1000


def test_criterion_5e_catches_a_wrong_bfs(monkeypatch):
    # this loop counts every step after the first twice, so its rows are
    # symmetric and agree with each other; only a table built without it
    # can tell that they are wrong
    def wrong_bfs(g, source, target=None, row=None):
        dist, queue = row or ([-1] * g.num_nodes, deque([source]))
        dist[source] = 0
        while queue and (target is None or dist[target] < 0):
            v = queue.popleft()
            for w, _ in g._adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + (1 if v == source else 2)
                    queue.append(w)
        return dist

    monkeypatch.setattr(rvsim.oracle, "bfs_distances", wrong_bfs)
    result = acceptance.check_oracle_equivalence()
    assert not result.passed and "mismatches" in result.detail


def test_criterion_6_cli_determinism():
    _report(acceptance.check_cli_determinism())


def test_cli_child_imports_the_running_rvsim(tmp_path, monkeypatch):
    # a relative PYTHONPATH points nowhere from the child's cwd; the child
    # must still import this very copy, not fail or pick an installed one
    monkeypatch.setenv("PYTHONPATH", "src")
    code, out, err = acceptance._python(
        ["-c", "import rvsim; print(rvsim.__file__)"], str(tmp_path))
    assert code == 0, err
    assert out.strip() == rvsim.__file__


def test_criterion_6_reports_a_failed_command(monkeypatch):
    missing = ["run", "--graph", "missing.txt", "--start1", "0", "--start2", "1",
               "--label1", "2", "--label2", "5"]
    monkeypatch.setattr(acceptance, "CLI_COMMANDS", [missing])
    result = acceptance.check_cli_determinism()
    assert not result.passed
    assert "exited 2" in result.detail
    assert "missing.txt" in result.detail
    assert "differ" not in result.detail
