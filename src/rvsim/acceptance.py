"""The release gate: executable checks for every headline claim.

Each ``check_*`` function runs a self-contained experiment at its pinned
tolerance and returns a CriterionResult; ``run_all`` chains them. The pytest
suite and the ``selfcheck`` CLI subcommand both call into this module so the
gate is identical everywhere.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass

from .agents import (default_round_cap, degree_class, rendezvous_program,
                     rendezvous_round_bound)
from .adversary import (build_instance, is_paired_numbering, number_butterfly,
                        verify_frozen_distance)
from .graphs import (FAMILIES, PortGraph, bfs_distances, butterfly_coords, butterfly_index,
                     generate_butterfly, generate_caterpillar,
                     generate_random_connected, generate_ring, materialize)
from .oracle import DistanceOracle
from .sim import CAP, MET, SimConfig, run

# the label pool every corpus pair is drawn from
LABEL_POOL = (0, 1, 2, 3, 5, 2 ** 10, 2 ** 16 - 1)


@dataclass
class CriterionResult:
    criterion: str
    passed: bool
    cases: int
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.criterion}: {self.detail} ({self.cases} cases)"


# ----------------------------------------------------------------------------
# corpus cells: a cell is a picklable recipe for one run
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """Picklable recipe for one run; start2 = -1 means "the node farthest
    from start1", resolved once the graph is built."""

    family: str
    params: tuple[tuple[str, object], ...]
    start1: int
    start2: int
    label1: int
    label2: int
    oracle_mode: str = "exact"

    def params_text(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.params)

    def sort_key(self):
        return (self.family, self.params_text(), self.start1, self.start2,
                self.label1, self.label2, self.oracle_mode)


def farthest_node(g: PortGraph, source: int) -> int:
    dist = bfs_distances(g, source)
    best = max(dist)
    return dist.index(best)


SWEEP_COLUMNS = (
    "family", "params", "n", "m", "max_degree", "start1", "start2",
    "start_distance", "label1", "label2", "oracle_mode", "outcome",
    "met_round", "rounds", "round_cap", "analytic_cap", "bound_ratio", "error",
)


def run_cell(cell: Cell) -> dict:
    """Execute one corpus cell and report a SWEEP_COLUMNS row."""
    row = {
        "family": cell.family, "params": cell.params_text(),
        "start1": cell.start1, "start2": cell.start2,
        "label1": cell.label1, "label2": cell.label2,
        "oracle_mode": cell.oracle_mode,
        "n": "", "m": "", "max_degree": "", "start_distance": "",
        "outcome": "", "met_round": "", "rounds": "", "round_cap": "",
        "analytic_cap": "", "bound_ratio": "", "error": "",
    }
    try:
        g = materialize(cell.family, dict(cell.params))
        start2 = cell.start2 if cell.start2 >= 0 else farthest_node(g, cell.start1)
        row["start2"] = start2
        start_distance = bfs_distances(g, cell.start1, target=start2)[start2]
        cap = default_round_cap(g.max_degree, start_distance, cell.label1, cell.label2)
        analytic = rendezvous_round_bound(g.max_degree, start_distance,
                                          cell.label1, cell.label2)
        res = run(g, cell.start1, start2,
                  rendezvous_program(cell.label1), rendezvous_program(cell.label2),
                  SimConfig(round_cap=cap, oracle_mode=cell.oracle_mode,
                            trace_detail="meeting-only"))
        row.update(n=g.num_nodes, m=g.num_edges, max_degree=g.max_degree,
                   start_distance=start_distance, outcome=res.outcome,
                   met_round="" if res.met_round is None else res.met_round,
                   rounds=res.rounds, round_cap=cap, analytic_cap=analytic)
        if res.outcome == MET:
            row["bound_ratio"] = f"{res.rounds / analytic:.6f}"
    except Exception as exc:  # per-cell failures stay in-row
        row["outcome"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def upper_bound_corpus() -> list[Cell]:
    """At least 200 runs across caterpillars, clique rings, rings, and random
    graphs, with labels from the fixed pool."""
    cells: list[Cell] = []

    caterpillar_starts = FAMILIES["caterpillar"].starts
    for spine, degree in itertools.product((1, 2, 4, 8, 16), (3, 4, 8, 16)):
        for policy in ("adversarial", "random"):
            params = (("spine_length", spine), ("degree", degree),
                      ("policy", policy), ("seed", 1))
            s1, s2 = caterpillar_starts(dict(params))
            for l1, l2 in ((2, 5), (0, 2 ** 16 - 1)):
                cells.append(Cell("caterpillar", params, s1, s2, l1, l2))

    for k in (3, 5, 13):
        cols = 8
        starts = [(butterfly_index(k, 0, 0), butterfly_index(k, 0, cols // 2)),
                  (butterfly_index(k, 1, 1), butterfly_index(k, 2, cols // 2))]
        for (s1, s2), (l1, l2) in itertools.product(starts, ((0, 1), (5, 2 ** 10))):
            cells.append(Cell("butterfly",
                              (("clique_size", k), ("columns", cols)),
                              s1, s2, l1, l2))

    for n in (4, 8, 16, 32):
        for rot in range(n):  # all rotations of one numbering
            for l1, l2 in ((3, 2 ** 16 - 1), (2, 2 ** 10)):
                cells.append(Cell("ring",
                                  (("size", n), ("numbering", "random"), ("seed", 3)),
                                  rot, (rot + n // 2) % n, l1, l2))

    for seed in range(10):
        for size, cap in ((25, 4), (50, 8), (200, 16)):
            g = generate_random_connected(size, cap, seed)
            far = farthest_node(g, 0)
            cells.append(Cell("random",
                              (("size", size), ("max_degree", cap), ("seed", seed)),
                              0, far, 2, 2 ** 10))
    return cells


def check_upper_bound() -> CriterionResult:
    cells = upper_bound_corpus()
    assert all(c.label1 in LABEL_POOL and c.label2 in LABEL_POOL for c in cells)
    rows = [run_cell(c) for c in cells]
    violations = [r for r in rows
                  if r["outcome"] != MET or r["rounds"] > r["analytic_cap"]]
    max_ratio = max(float(r["bound_ratio"]) for r in rows if r["bound_ratio"])
    ok = not violations and len(cells) >= 200
    detail = (f"all runs met within 8*degree*(2D+4k+3); max ratio {max_ratio:.3f}"
              if ok else f"{len(violations)} violations, e.g. {violations[:1]}")
    return CriterionResult("1-upper-bound-conformance", ok, len(cells), detail)


def check_lower_bound(fast: bool = False) -> CriterionResult:
    # (degree, label_space, distance, sampling)
    specs = [(16, 2 ** 64, 4, True)]
    specs.append((8, 2 ** 14 if fast else 2 ** 20, 3, False))
    details = []
    ok = True
    for degree, space, distance, sampled in specs:
        inst = build_instance(rendezvous_program, degree=degree,
                              label_space=space, distance=distance,
                              sample_size=1024 if sampled else None)
        verified = verify_frozen_distance(inst)
        good = verified >= inst.guaranteed_horizon and verified >= inst.agreement_horizon
        ok = ok and good
        details.append(
            f"degree={degree} L=2^{space.bit_length() - 1}: frozen {verified} rounds"
            f" >= t*={inst.agreement_horizon} >= floor-bound {inst.guaranteed_horizon}")
    return CriterionResult("2-lower-bound-reproduction", ok, len(specs),
                           "; ".join(details))


def check_caterpillar_cost() -> CriterionResult:
    cases = 0
    worst = None
    ok = True
    for spine, degree in itertools.product((2, 4, 8), (4, 8, 16)):
        cat = generate_caterpillar(spine, degree, policy="adversarial")
        res = run(cat.graph, cat.start1, cat.start2,
                  rendezvous_program(2), rendezvous_program(5),
                  SimConfig(round_cap=10 ** 5, trace_detail="meeting-only"))
        cases += 1
        floor = spine * (degree - 1)
        if res.outcome != MET or res.rounds < floor:
            ok = False
        margin = res.rounds / floor
        if worst is None or margin < worst:
            worst = margin
    return CriterionResult("3-caterpillar-cost", ok, cases,
                           f"meeting rounds >= D*(degree-1); tightest margin {worst:.2f}x")


def check_symmetry_non_meeting() -> CriterionResult:
    g = generate_ring(16)
    res = run(g, 0, 8, rendezvous_program(5), rendezvous_program(5),
              SimConfig(round_cap=10 ** 5, trace_detail="meeting-only"))
    ok = res.outcome == CAP and res.min_distance > 0
    return CriterionResult(
        "4-symmetry-non-meeting", ok, 1,
        f"cap {res.rounds} rounds reached, minimum distance {res.min_distance}")


# ----------------------------------------------------------------------------
# criterion 5: lemma-level property sweeps, >= 1000 cases each
# ----------------------------------------------------------------------------

def _event_prefix(events):
    """Boundary stream up to the label comparison's exit.

    Exit events keep their success flag (probe and degree-bounding outcomes
    must agree between lockstepped agents: success fires an odd number of
    rounds into a call, failure an even number, and both agents compare the
    same global distance in the same rounds). Enter arguments are dropped:
    the b bits legitimately differ at the distinguishing call.
    """
    out = []
    for e in events:
        outcome = e.info[0] if e.kind == "exit" and e.proc != "compare_labels" else None
        out.append((e.round, e.proc, e.kind, outcome))
        if e.proc == "compare_labels" and e.kind == "exit":
            break
    return out


def _random_case_stream(count: int, master_seed: int):
    rng = random.Random(master_seed)
    for _ in range(count):
        n = rng.randrange(4, 25)
        cap = rng.randrange(2, 9)
        seed = rng.randrange(10 ** 6)
        g = generate_random_connected(n, cap, seed)
        s1 = rng.randrange(n)
        s2 = rng.randrange(n)
        while s2 == s1:
            s2 = rng.randrange(n)
        l1 = rng.randrange(64)
        l2 = rng.randrange(64)
        while l2 == l1:
            l2 = rng.randrange(64)
        yield g, s1, s2, l1, l2


def check_lockstep(cases: int = 1000) -> CriterionResult:
    bad = 0
    for g, s1, s2, l1, l2 in _random_case_stream(cases, master_seed=101):
        p1 = rendezvous_program(l1, record_events=True)
        p2 = rendezvous_program(l2, record_events=True)
        cap = default_round_cap(g.max_degree, g.num_nodes, l1, l2)
        run(g, s1, s2, p1, p2, SimConfig(round_cap=cap, trace_detail="meeting-only"))
        if _event_prefix(p1.events) != _event_prefix(p2.events):
            bad += 1
    return CriterionResult("5a-lockstep", bad == 0, cases,
                           "identical sub-procedure boundaries before label comparison"
                           if bad == 0 else f"{bad} diverging traces")


def _joint_live_failures(ev1, ev2):
    """Degrees of bound-degree calls that both agents entered with b=1 in the
    same round and both finished with failure in the same round."""
    def spans(events):
        stack, out = [], {}
        for e in events:
            if e.proc != "bound_degrees":
                continue
            if e.kind == "enter":
                stack.append(e)
            else:
                en = stack.pop()
                if en.info[0] == 1 and e.info[0] is False:
                    out[(en.round, e.round)] = en.info[1]
        return out
    s1, s2 = spans(ev1), spans(ev2)
    return [(s1[k], s2[k]) for k in sorted(set(s1) & set(s2))]


def check_similarity_on_failure() -> CriterionResult:
    """Three fixture families: symmetric rings (degree 2) and fully paired
    clique rings (degrees 6..16) both force joint failures; random graphs
    contribute whatever near-symmetric failures happen to occur."""
    fixtures = []
    for n, (l1, l2) in itertools.product(
            (4, 6, 8, 10, 12, 16, 24, 32),
            itertools.combinations(range(13), 2)):  # 8 sizes x 78 pairs
        fixtures.append((generate_ring(n), 0, n // 2, l1, l2, True))
    for k, (l1, l2) in itertools.product(
            (3, 5, 13), itertools.combinations((0, 1, 2, 5, 9, 2 ** 10), 2)):
        g = number_butterfly(k, 8, 1, 2)
        fixtures.append((g, butterfly_index(k, 0, 0), butterfly_index(k, 0, 4),
                         l1, l2, True))
    fixtures.extend((g, s1, s2, l1, l2, False)
                    for g, s1, s2, l1, l2 in _random_case_stream(400, master_seed=303))

    cases = len(fixtures)
    observed = 0
    bad = 0
    for g, s1, s2, l1, l2, must_fail in fixtures:
        p1 = rendezvous_program(l1, record_events=True)
        p2 = rendezvous_program(l2, record_events=True)
        cap = default_round_cap(g.max_degree, g.num_nodes, l1, l2)
        run(g, s1, s2, p1, p2, SimConfig(round_cap=cap, trace_detail="meeting-only"))
        fails = _joint_live_failures(p1.events, p2.events)
        observed += len(fails)
        bad += sum(1 for d1, d2 in fails if degree_class(d1) != degree_class(d2))
        if must_fail and not fails:
            bad += 1  # the symmetric fixtures must force at least one
    return CriterionResult(
        "5b-similarity-on-failure", bad == 0, cases,
        f"{observed} joint live failures, all degree-bucket-matched" if bad == 0
        else f"{bad} violations")


def check_distinct_exits() -> CriterionResult:
    g = generate_ring(8)
    cases = 0
    bad = 0
    for l1, l2 in itertools.combinations(range(64), 2):
        cases += 1
        p1 = rendezvous_program(l1, record_events=True)
        p2 = rendezvous_program(l2, record_events=True)
        res = run(g, 0, 4, p1, p2, SimConfig(round_cap=10 ** 4, trace_detail="meeting-only"))
        x1 = [e for e in p1.events if e.proc == "compare_labels" and e.kind == "exit"]
        x2 = [e for e in p2.events if e.proc == "compare_labels" and e.kind == "exit"]
        if (res.outcome != MET or not x1 or not x2 or x1[0].round != x2[0].round
                or {x1[0].info[0], x2[0].info[0]} != {0, 1}):
            bad += 1
    return CriterionResult(
        "5c-distinct-exits", bad == 0, cases,
        "opposite bits in the same round for every label pair in 0..63"
        if bad == 0 else f"{bad} violations")


def check_delta_sufficiency(cases: int = 1000) -> CriterionResult:
    bad = 0
    for g, s1, s2, l1, l2 in _random_case_stream(cases, master_seed=202):
        cap = default_round_cap(g.max_degree, g.num_nodes, l1, l2)
        outs = []
        for mode in ("exact", "delta"):
            res = run(g, s1, s2, rendezvous_program(l1), rendezvous_program(l2),
                      SimConfig(round_cap=cap, oracle_mode=mode))
            outs.append((res.met_round, res.trace))
        if outs[0] != outs[1]:
            bad += 1
    return CriterionResult("5d-delta-sufficiency", bad == 0, cases,
                           "exact and delta oracle modes give identical traces"
                           if bad == 0 else f"{bad} diverging runs")


def _floyd_warshall(g: PortGraph) -> list[list[int]]:
    """All-pairs distances by relaxation over the edge list, with no BFS."""
    n = g.num_nodes
    dist = [[0 if u == v else n for v in range(n)] for u in range(n)]
    for u, _, v, _ in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        row_k = dist[k]
        for row in dist:
            via = row[k]
            if via < n:  # n stands for "no path yet"
                row[:] = [via + dk if via + dk < d else d for d, dk in zip(row, row_k)]
    return dist


def check_oracle_equivalence() -> CriterionResult:
    corpus: list[PortGraph] = [
        generate_ring(6), generate_ring(32),
        generate_caterpillar(4, 4).graph,
        generate_caterpillar(2, 8, policy="random", seed=2).graph,
        generate_butterfly(3, 4), generate_butterfly(5, 6),
    ]
    corpus.extend(generate_random_connected(n, 6, seed) for n, seed in
                  ((20, 0), (40, 1), (64, 2), (64, 3)))
    cases = 0
    bad = 0
    for g in corpus:
        assert g.num_nodes <= 64
        table = _floyd_warshall(g)
        per_query = DistanceOracle(g)
        for u in range(g.num_nodes):
            for v in range(g.num_nodes):
                cases += 1
                if per_query.distance(u, v) != table[u][v]:
                    bad += 1
    return CriterionResult("5e-oracle-equivalence", bad == 0, cases,
                           "per-query BFS equals Floyd-Warshall on every pair"
                           if bad == 0 else f"{bad} mismatches")


def check_paired_numbering() -> CriterionResult:
    cases = 0
    bad = 0
    for k, cols, p1, p2 in ((3, 8, 1, 2), (5, 8, 2, 4), (13, 8, 1, 7), (13, 8, 3, 8)):
        g = number_butterfly(k, cols, p1, p2)
        degree = k + 3
        if not is_paired_numbering(g):
            bad += 1
        for v in range(g.num_nodes):
            col = butterfly_coords(k, v)[1]
            for port in g.ports(v):
                cases += 1
                w, q = g.neighbor(v, port)
                wcol = butterfly_coords(k, w)[1]
                if port + q != degree + 1:
                    bad += 1
                elif port in (p1, p2) and wcol != (col + 1) % cols:
                    bad += 1
                elif port in (degree + 1 - p1, degree + 1 - p2) and wcol != (col - 1) % cols:
                    bad += 1
                elif port not in (p1, p2, degree + 1 - p1, degree + 1 - p2) and wcol != col:
                    bad += 1
    return CriterionResult("5f-paired-numbering", bad == 0, cases,
                           "port sums and forward/backward semantics hold on every edge"
                           if bad == 0 else f"{bad} violations")


def check_lemma_properties() -> list[CriterionResult]:
    return [
        check_lockstep(),
        check_similarity_on_failure(),
        check_distinct_exits(),
        check_delta_sufficiency(),
        check_oracle_equivalence(),
        check_paired_numbering(),
    ]


# ----------------------------------------------------------------------------
# criterion 6: CLI determinism
# ----------------------------------------------------------------------------

# the directory holding this rvsim package; child processes import from it
# first, so they run the same copy as the parent whatever their cwd
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLI_COMMANDS = [
    ["generate", "--family", "random", "--size", "30", "--max-degree", "6",
     "--seed", "11", "--out", "g.txt"],
    ["run", "--graph", "g.txt", "--start1", "0", "--start2", "29",
     "--label1", "2", "--label2", "5", "--trace-out", "trace.jsonl"],
    ["sweep", "--family", "ring", "--sizes", "6,8", "--label-pairs", "2:5",
     "--out", "sweep.csv", "--jobs", "2"],
]
CLI_ARTIFACTS = ["g.txt", "trace.jsonl", "sweep.csv"]


def _python(argv: list[str], cwd: str) -> tuple[int, str, str]:
    """Run ``python *argv`` in ``cwd`` with this rvsim package importable;
    return (exit code, stdout, stderr)."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (_PACKAGE_ROOT if not inherited
                         else _PACKAGE_ROOT + os.pathsep + inherited)
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, cwd=cwd, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _cli(args: list[str], cwd: str) -> tuple[int, str, str]:
    return _python(["-m", "rvsim.cli", *args], cwd)


def check_cli_determinism() -> CriterionResult:
    snapshots = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(2):
            snap = []
            for cmd in CLI_COMMANDS:
                code, out, err = _cli(cmd, tmp)
                if code != 0:
                    tail = " | ".join(err.strip().splitlines()[-3:])
                    return CriterionResult(
                        "6-cli-determinism", False, len(CLI_COMMANDS),
                        f"`rvsim {' '.join(cmd)}` exited {code}: {tail}")
                snap.append(out)
            for name in CLI_ARTIFACTS:
                with open(os.path.join(tmp, name), "rb") as fh:
                    snap.append(fh.read())
            snapshots.append(snap)
    ok = snapshots[0] == snapshots[1]
    return CriterionResult("6-cli-determinism", ok, len(CLI_COMMANDS),
                           "repeated invocations byte-identical (stdout and files)"
                           if ok else "outputs differ between repeats")


def run_all(fast: bool = False) -> list[CriterionResult]:
    results = [
        check_upper_bound(),
        check_lower_bound(fast=fast),
        check_caterpillar_cost(),
        check_symmetry_non_meeting(),
    ]
    results.extend(check_lemma_properties())
    results.append(check_cli_determinism())
    return results
