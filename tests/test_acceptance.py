"""The acceptance gate: one test per criterion, each printing its PASS/FAIL
line (visible with ``pytest -s`` or in the ``selfcheck`` CLI output).

Expected total runtime is about 10 s. Criterion 2 takes about 4 s of it: its
explicit 2^20-label extraction walks the label trie, so labels that share a
prefix share one simulation.
"""

from collections import deque

import pytest

import rvsim
from rvsim import acceptance


def _report(result):
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_upper_bound_conformance():
    result = _report(acceptance.check_upper_bound())
    assert result.cases >= 200


def test_criterion_2_lower_bound_reproduction():
    _report(acceptance.check_lower_bound(fast=False))


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
