"""The four benchmark workloads.

Each workload is a closed loop with one client: ``prepare`` does the
untimed, once-per-run work, ``setup`` turns the seed into inputs, and
``run_pass`` makes one pass over them, one call after the other, through a
``PassContext`` that times each call and collects the output checks.
``finish`` makes the checks that need every pass. The program only ever
sees the generated inputs, never the seed itself.

``expected.json`` holds, for a set of seeds at full size, each workload's
pass fingerprint as recorded from a known-good commit (and, for ``largen``,
the pinned second starts). ``record_expected.py`` writes it.

rvsim is reached through module attributes at call time (``rv.run``, not a
``from rvsim import run`` binding) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

import rvsim as rv
import rvsim.acceptance as acceptance
import rvsim.cli as cli

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def expected(scale: str, workload: str, seed: int) -> dict | None:
    """The stored entry for ``workload`` at ``seed``, or None when the seed is
    not stored or the sizes are not the full ones."""
    if scale != "full":
        return None
    with open(EXPECTED_PATH, encoding="ascii") as fh:
        return json.load(fh)[workload].get(str(seed))


class PassContext:
    """Times the calls of one pass and records the checks on each."""

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed       # a Speedometer, sampled between calls
        self.ops: list[Op] = []
        self.rounds = 0          # engine (or virtual-world) rounds simulated
        self.labels = 0          # agent programs driven, one per label
        self.label_ops = ""      # name prefix of the calls labels_per_s divides by; "" = all
        self.cells = False       # each call is a cell (corpus); else the pass is the cell
        self.extras: dict[str, float] = {}  # per-layer values the tracer cannot see
        self.fingerprint: object = None     # must repeat on every pass

    def call(self, name: str, fn, *args, **kwargs):
        op = Op(name)
        if self.speed is not None:
            op.before = self.speed.maybe_sample()
        self.ops.append(op)  # first, so a check on a call that raised lands on it
        span = self.tracer.span("bench." + name) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            op.seconds = op.scaled = perf_counter() - t0
        return result

    def check(self, ok: bool, message: str) -> None:
        """Attach a check to the last call; a failed check fails that call."""
        if not ok:
            self.ops[-1].errors.append(message)

    def close(self) -> None:
        """Take the closing speed sample and scale every call's time."""
        if self.speed is not None:
            self.speed.sample()
            for op in self.ops:
                op.scaled = op.seconds * self.speed.factor(op.before)

    @property
    def wall(self) -> float:
        return sum(op.scaled for op in self.ops)

    @property
    def raw_wall(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def label_seconds(self) -> float:
        return sum(op.scaled for op in self.ops if op.name.startswith(self.label_ops))


@dataclass
class Op:
    name: str
    seconds: float = 0.0  # measured
    scaled: float = 0.0   # at the speedometer's nominal machine speed
    before: int = 0       # index of the speed sample taken before the call
    errors: list[str] = field(default_factory=list)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _moves(rows) -> str:
    """Digest of the moves in a trace, from named fields only, so a field
    added to the trace rows later leaves it unchanged."""
    return _digest([(r.port1, r.port2, r.next1, r.next2) for r in rows])


def _kv(text: str) -> dict[str, str]:
    """Parse the CLI's last ``key=value key=value`` line."""
    lines = text.strip().splitlines()
    return dict(part.split("=", 1) for part in lines[-1].split()) if lines else {}


def _floor_bound(degree: int, label_space: int) -> int:
    """floor(log L / (2 log degree)) * floor(degree / 8), in integers."""
    j = 0
    while degree ** (2 * (j + 1)) <= label_space:
        j += 1
    return j * (degree // 8)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    name = ""

    def prepare(self, seed: int, pinned: dict | None) -> None:
        """Untimed work done once per run, before the first set-up; ``pinned``
        is the stored entry for the seed, if any."""

    def finish(self, inputs, check) -> None:
        """Checks that need every pass."""


# ----------------------------------------------------------------------------
# corpus: the 242-cell upper-bound corpus through run_cell, one cell at a time
# ----------------------------------------------------------------------------

# columns the corpus digest covers; columns added later are ignored
_ROW_KEYS = ("family", "params", "n", "m", "start1", "start2", "start_distance",
             "label1", "label2", "oracle_mode", "outcome", "met_round", "rounds",
             "analytic_cap")


class Corpus(Workload):
    name = "corpus"
    # (caterpillar spines, degrees, clique sizes, ring sizes, random seeds, random sizes)
    SIZES = {
        "full": ((1, 2, 4, 8, 16), (3, 4, 8, 16), (3, 5, 13), (4, 8, 16, 32), 10,
                 ((25, 4), (50, 8), (200, 16))),
        "smoke": ((1, 4), (3, 8), (3,), (4, 8), 2, ((25, 4), (50, 8))),
    }

    def __init__(self, scale: str, workdir: str):
        self.sizes = self.SIZES[scale]

    def setup(self, seed: int) -> list:
        """upper_bound_corpus() with its port-numbering and graph seeds moved by
        ``seed``; seed 0 gives that corpus cell for cell."""
        spines, degrees, cliques, rings, n_random, random_sizes = self.sizes
        Cell = acceptance.Cell
        cells = []
        for spine, degree in itertools.product(spines, degrees):
            for policy in ("adversarial", "random"):
                cat = rv.generate_caterpillar(spine, degree, policy, seed=1 + seed)
                for l1, l2 in ((2, 5), (0, 2 ** 16 - 1)):
                    cells.append(Cell("caterpillar",
                                      (("spine_length", spine), ("degree", degree),
                                       ("policy", policy), ("seed", 1 + seed)),
                                      cat.start1, cat.start2, l1, l2))
        for k in cliques:
            cols = 8
            starts = [(rv.butterfly_index(k, 0, 0), rv.butterfly_index(k, 0, cols // 2)),
                      (rv.butterfly_index(k, 1, 1), rv.butterfly_index(k, 2, cols // 2))]
            for (s1, s2), (l1, l2) in itertools.product(starts, ((0, 1), (5, 2 ** 10))):
                cells.append(Cell("butterfly", (("clique_size", k), ("columns", cols)),
                                  s1, s2, l1, l2))
        for n in rings:
            for rot in range(n):
                for l1, l2 in ((3, 2 ** 16 - 1), (2, 2 ** 10)):
                    cells.append(Cell("ring",
                                      (("size", n), ("numbering", "random"), ("seed", 3 + seed)),
                                      rot, (rot + n // 2) % n, l1, l2))
        for gseed in range(n_random * seed, n_random * seed + n_random):
            for size, cap in random_sizes:
                g = rv.generate_random_connected(size, cap, gseed)
                far = acceptance.farthest_node(g, 0)
                cells.append(Cell("random",
                                  (("size", size), ("max_degree", cap), ("seed", gseed)),
                                  0, far, 2, 2 ** 10))
        return cells

    def run_pass(self, cells, ctx: PassContext) -> None:
        rows = []
        for cell in cells:
            row = ctx.call("run_cell", acceptance.run_cell, cell)
            ctx.check(row["outcome"] == rv.MET and not row.get("error"),
                      f"cell {cell}: outcome {row['outcome']} {row.get('error', '')}")
            ctx.check(row["outcome"] != rv.MET or row["rounds"] <= row["analytic_cap"],
                      f"cell {cell}: {row['rounds']} rounds above cap {row['analytic_cap']}")
            rows.append(tuple(row.get(k) for k in _ROW_KEYS))
            if row["rounds"] != "":
                ctx.rounds += row["rounds"]
        ctx.cells = True
        ctx.labels = 2 * len(cells)
        ctx.fingerprint = _digest(rows)


# ----------------------------------------------------------------------------
# lowerbound: build_instance + verify_frozen_distance on two cases
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundCase:
    tag: str
    degree: int
    label_space: int
    distance: int
    sample_size: int | None
    seed: int
    labels: tuple | range  # the label set the case draws from


class LowerBound(Workload):
    name = "lowerbound"
    # (explicit label space for degree 8, sample size for degree 16 over 2^64)
    SIZES = {"full": (2 ** 14, 1024), "smoke": (2 ** 8, 64)}

    def __init__(self, scale: str, workdir: str):
        self.explicit, self.sample = self.SIZES[scale]

    def setup(self, seed: int) -> list[LowerBoundCase]:
        """The explicit degree-8 label set and the gate's sampled degree-16
        case, drawn from ``seed`` (seed 0 is the gate's own draw)."""
        return [
            LowerBoundCase("explicit", 8, self.explicit, 3, None, seed,
                           tuple(range(self.explicit))),
            LowerBoundCase("sampled", 16, 2 ** 64, 4, self.sample, seed,
                           range(2 ** 64)),
        ]

    def run_pass(self, cases, ctx: PassContext) -> None:
        outcome = []
        ctx.label_ops = "build_"
        for case in cases:
            inst = ctx.call("build_" + case.tag, rv.build_instance, rv.rendezvous_program,
                            degree=case.degree, label_space=case.label_space,
                            distance=case.distance, sample_size=case.sample_size,
                            seed=case.seed)
            want = len(case.labels) if case.sample_size is None else case.sample_size
            ctx.check(inst.labels_examined == want,
                      f"{case.tag}: examined {inst.labels_examined} labels, want {want}")
            ctx.check(inst.label1 in case.labels and inst.label2 in case.labels
                      and inst.label1 != inst.label2,
                      f"{case.tag}: labels {inst.label1}, {inst.label2} not a pair from the set")
            try:
                verified = ctx.call("verify_" + case.tag, rv.verify_frozen_distance, inst)
            except rv.HorizonViolatedError as exc:
                ctx.check(False, f"{case.tag}: {exc}")
                verified = -1
            floor = _floor_bound(case.degree, case.label_space)
            ctx.check(verified >= inst.agreement_horizon >= floor,
                      f"{case.tag}: verified {verified} >= t* {inst.agreement_horizon} "
                      f">= floor {floor} does not hold")
            ctx.rounds += inst.labels_examined * inst.extraction_horizon
            ctx.labels += inst.labels_examined
            outcome.append((inst.p1, inst.p2, inst.label1, inst.label2, inst.agreement_horizon))
        ctx.fingerprint = tuple(outcome)


# ----------------------------------------------------------------------------
# largen: `rvsim generate`, then `rvsim run --trace-out`, read_trace and
# replay_check, on random graphs either side of the oracle's table threshold
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LargeGraph:
    path: str
    trace_path: str
    nodes: int
    graph_hash: str
    start2: int
    label1: int
    label2: int
    rounds: int  # the meeting round count a per-query-oracle run predicts


def _run_per_query(g, start1: int, start2: int, label1: int, label2: int, detail: str):
    """``rv.run`` with the oracle's per-query BFS path instead of its all-pairs
    table: the same distances (acceptance criterion 5e) without the table's
    quadratic set-up."""
    args = (g, start1, start2, rv.rendezvous_program(label1), rv.rendezvous_program(label2),
            rv.SimConfig(round_cap=10 ** 6, trace_detail=detail))
    oracle = rv.sim.DistanceOracle
    rv.sim.DistanceOracle = lambda graph: oracle(graph, table_threshold=0)
    try:
        return rv.run(*args)
    finally:
        rv.sim.DistanceOracle = oracle


class LargeN(Workload):
    name = "largen"
    # node counts, max degree 8; start distance 4
    SIZES = {"full": (1000, 6000), "smoke": (60, 200)}
    DISTANCE = 4
    PREFIX_BITS = 40
    # About 1 start in 10 meets inside the first degree-bounding loop (~100
    # rounds instead of ~2500); skipping those keeps the work per seed equal.
    MIN_ROUNDS = 1000
    MAX_TRIES = 20

    def __init__(self, scale: str, workdir: str):
        self.sizes = self.SIZES[scale]
        self.workdir = workdir
        self.graphs: list[LargeGraph] = []
        self.first_rows: dict[str, list] = {}

    def _generate(self, nodes: int, seed: int, path: str):
        code, out = _cli(["generate", "--family", "random", "--size", str(nodes),
                          "--max-degree", "8", "--seed", str(seed), "--out", path])
        if code != 0:
            raise RuntimeError(f"rvsim generate exited {code}: {out}")
        return rv.load_graph(path)

    def prepare(self, seed: int, pinned: dict | None) -> None:
        """Draw from ``seed`` two labels sharing a 40-bit prefix (so the label
        comparison sets the meeting's length), and pick per graph a second
        start 4 hops from node 0. A stored seed pins the start and its round
        count; otherwise the start is the first, in seeded order, whose
        meeting needs at least MIN_ROUNDS rounds in a per-query oracle run."""
        rng = random.Random(seed)
        prefix = rng.getrandbits(self.PREFIX_BITS) | (1 << (self.PREFIX_BITS - 1))
        label1, label2 = prefix << 1, (prefix << 1) | 1
        for nodes in self.sizes:
            path = os.path.join(self.workdir, f"graph_{nodes}.txt")
            g = self._generate(nodes, seed, path)
            dist = rv.bfs_distances(g, 0)
            target = min(self.DISTANCE, max(dist))
            if pinned is not None:
                start2, rounds = pinned["starts"][str(nodes)]
                if dist[start2] != target:
                    raise RuntimeError(f"pinned start {start2} on {nodes} nodes is "
                                       f"{dist[start2]} hops from node 0, not {target}")
            else:
                start2, rounds = self._pick_start(g, dist, target, rng, label1, label2)
            self.graphs.append(LargeGraph(path, os.path.join(self.workdir, f"trace_{nodes}.jsonl"),
                                          nodes, g.content_hash(), start2, label1, label2,
                                          rounds))

    def _pick_start(self, g, dist, target, rng, label1, label2) -> tuple[int, int]:
        candidates = [v for v, d in enumerate(dist) if d == target]
        rng.shuffle(candidates)
        for start2 in candidates[:self.MAX_TRIES]:
            rounds = _run_per_query(g, 0, start2, label1, label2, "meeting-only").rounds
            if rounds >= self.MIN_ROUNDS:
                return start2, rounds
        raise RuntimeError(f"no start on {g.num_nodes} nodes needs {self.MIN_ROUNDS} rounds")

    def setup(self, seed: int) -> list[LargeGraph]:
        """Write and load one graph file per size with ``rvsim generate``."""
        for lg in self.graphs:
            self._generate(lg.nodes, seed, lg.path)
        return self.graphs

    def run_pass(self, graphs, ctx: PassContext) -> None:
        outcome = []
        for lg in graphs:
            tag = str(lg.nodes)
            code, out = ctx.call("run_" + tag, _cli, [
                "run", "--graph", lg.path, "--start1", "0", "--start2", str(lg.start2),
                "--label1", str(lg.label1), "--label2", str(lg.label2),
                "--trace-out", lg.trace_path])
            kv = _kv(out)
            ctx.check(code == 0 and kv.get("outcome") == rv.MET,
                      f"run on {tag} nodes exited {code}: {out.strip()}")
            ctx.check(int(kv.get("rounds", -1)) <= int(kv.get("analytic_cap", -2)),
                      f"run on {tag} nodes above its analytic cap: {out.strip()}")
            ctx.check(kv.get("rounds") == str(lg.rounds),
                      f"run on {tag} nodes took {kv.get('rounds')} rounds, "
                      f"the per-query oracle run {lg.rounds}")
            ctx.rounds += int(kv.get("rounds", 0))
            ctx.labels += 2
            ctx.extras["sim.trace_bytes"] = (ctx.extras.get("sim.trace_bytes", 0)
                                             + os.path.getsize(lg.trace_path))

            header, rows, result, violations = ctx.call("replay_" + tag, self._replay, lg)
            ctx.check(not violations, f"replay on {tag} nodes: {violations[:3]}")
            ctx.check(header.get("graph_hash") == lg.graph_hash
                      and (header.get("start1"), header.get("start2")) == (0, lg.start2)
                      and (header.get("label1"), header.get("label2")) == (lg.label1, lg.label2),
                      f"trace header on {tag} nodes does not match the run: {header}")
            ctx.check(len(rows) == result.get("rounds") == int(kv.get("rounds", -1))
                      and str(result.get("met_round")) == kv.get("met_round")
                      and str(result.get("final1")) == kv.get("final1")
                      and str(result.get("final2")) == kv.get("final2"),
                      f"trace result on {tag} nodes disagrees with the CLI: {result}")
            self.first_rows.setdefault(tag, rows)
            outcome.append((kv.get("rounds"), kv.get("met_round"), _moves(rows)))
        ctx.fingerprint = tuple(outcome)

    @staticmethod
    def _replay(lg: LargeGraph):
        with open(lg.trace_path, "r", encoding="ascii") as fh:
            header, rows, result = rv.read_trace(fh)
        violations = rv.replay_check(rows, rv.load_graph(lg.path))
        return header, rows, result, violations

    def finish(self, graphs, check) -> None:
        """The rows the CLI wrote equal those of an in-process run that uses
        the per-query oracle."""
        for lg in graphs:
            res = _run_per_query(rv.load_graph(lg.path), 0, lg.start2, lg.label1, lg.label2,
                                 "full")
            check(res.trace == self.first_rows.get(str(lg.nodes)),
                  f"trace read back on {lg.nodes} nodes differs from an in-process run")


# ----------------------------------------------------------------------------
# longrun: one ~124k-round meeting on the fully paired degree-16 clique ring
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LongRunInput:
    graph: object
    start1: int
    start2: int
    label1: int
    label2: int
    trace_path: str


class LongRun(Workload):
    name = "longrun"
    ROUND_CAP = 10 ** 6
    SIZES = {"full": 1000, "smoke": 40}  # shared label prefix, in bits

    def __init__(self, scale: str, workdir: str):
        self.prefix_bits = self.SIZES[scale]
        self.workdir = workdir
        self.moves: str | None = None

    def setup(self, seed: int) -> LongRunInput:
        """number_butterfly(13, 8, 1, 2), starts 4 columns apart, and two
        labels that share a random ``prefix_bits``-bit prefix drawn from seed."""
        g = rv.number_butterfly(13, 8, 1, 2)
        prefix = random.Random(seed).getrandbits(self.prefix_bits) | (1 << (self.prefix_bits - 1))
        return LongRunInput(g, rv.butterfly_index(13, 0, 0), rv.butterfly_index(13, 0, 4),
                            prefix << 1, (prefix << 1) | 1,
                            os.path.join(self.workdir, "longrun.jsonl"))

    def _run(self, inp: LongRunInput, mode: str, detail: str):
        return rv.run(inp.graph, inp.start1, inp.start2,
                      rv.rendezvous_program(inp.label1), rv.rendezvous_program(inp.label2),
                      rv.SimConfig(round_cap=self.ROUND_CAP, oracle_mode=mode,
                                   trace_detail=detail))

    @staticmethod
    def _write(inp: LongRunInput, res) -> None:
        header = rv.trace_header(inp.graph, inp.start1, inp.start2, inp.label1, inp.label2,
                                 rv.SimConfig(round_cap=LongRun.ROUND_CAP))
        with open(inp.trace_path, "w", encoding="ascii") as fh:
            rv.write_trace(fh, header, res)

    @staticmethod
    def _read(inp: LongRunInput):
        with open(inp.trace_path, "r", encoding="ascii") as fh:
            return rv.read_trace(fh)

    def run_pass(self, inp: LongRunInput, ctx: PassContext) -> None:
        res = ctx.call("run_exact", self._run, inp, "exact", "full")
        ctx.check(res.met, f"exact run ended {res.outcome} after {res.rounds} rounds")
        ctx.call("trace_write", self._write, inp, res)
        ctx.extras["sim.trace_bytes"] = os.path.getsize(inp.trace_path)
        header, rows, result = ctx.call("trace_read", self._read, inp)
        ctx.check(rows == res.trace and result.get("rounds") == res.rounds
                  and result.get("met_round") == res.met_round,
                  "trace read back differs from the rows held in memory")
        violations = ctx.call("replay", rv.replay_check, rows, inp.graph)
        ctx.check(not violations, f"replay: {violations[:3]}")
        moves = _moves(res.trace)
        rows = res.trace = None  # free ~124k rows before the next run
        delta = ctx.call("run_delta", self._run, inp, "delta", "meeting-only")
        ctx.check((delta.outcome, delta.met_round, delta.rounds, delta.final1, delta.final2)
                  == (res.outcome, res.met_round, res.rounds, res.final1, res.final2),
                  f"delta run ended {delta} but exact run ended {res}")
        ctx.rounds += res.rounds + delta.rounds
        ctx.labels += 4
        self.moves = moves
        ctx.fingerprint = (res.rounds, res.met_round, moves)

    def finish(self, inp: LongRunInput, check) -> None:
        """Delta mode chooses the same moves as exact mode, round by round."""
        moves = _moves(self._run(inp, "delta", "full").trace)
        check(moves == self.moves, "delta-mode moves differ from exact-mode moves")


WORKLOADS = {w.name: w for w in (Corpus, LowerBound, LargeN, LongRun)}
