"""Span tracer that wraps rvsim's public functions from outside the package.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces every
binding of each traced function (in every ``rvsim`` module namespace, so
``from .sim import run`` call sites are covered too) and each traced method
on its class, and ``uninstall`` puts the originals back.

Every traced call pushes a frame on one stack, so the time a call spends in
traced callees is known and its self time is its duration minus that. Calls
of span kind also keep one record (id, parent id, name, start, end) in
memory; hot calls (``AgentProgram.step``, ``DistanceOracle.distance``, BFS,
per-label extraction) keep only counts and totals. BFS calls made while a
``DistanceOracle`` is being constructed are not separate frames: their time
is construction time and their filled entries are table entries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter

# (module, attribute path, traced name, keeps span records)
TARGETS = (
    ("rvsim.graphs", "build", "graphs.build", True),
    ("rvsim.graphs", "generate_caterpillar", "graphs.generate", True),
    ("rvsim.graphs", "generate_butterfly", "graphs.generate", True),
    ("rvsim.graphs", "generate_ring", "graphs.generate", True),
    ("rvsim.graphs", "generate_random_connected", "graphs.generate", True),
    ("rvsim.graphs", "graph_from_text", "graphs.parse", True),
    ("rvsim.graphs", "PortGraph.to_text", "graphs.to_text", True),
    ("rvsim.oracle", "DistanceOracle.__init__", "oracle.construct", True),
    ("rvsim.oracle", "DistanceOracle.distance", "oracle.query", False),
    ("rvsim.oracle", "bfs_distances", "oracle.bfs", False),
    ("rvsim.agents", "AgentProgram.step", "agents.step", False),
    ("rvsim.sim", "run", "sim.run", True),
    ("rvsim.sim", "replay_check", "sim.replay", True),
    ("rvsim.sim", "write_trace", "sim.trace_write", True),
    ("rvsim.sim", "read_trace", "sim.trace_read", True),
    ("rvsim.adversary", "build_instance", "adversary.build_instance", True),
    ("rvsim.adversary", "extract_port_sequence", "adversary.extract", False),
    ("rvsim.adversary", "choose_ports", "adversary.choose_ports", True),
    ("rvsim.adversary", "find_label_pair", "adversary.find_label_pair", True),
    ("rvsim.adversary", "number_butterfly", "adversary.number", True),
    ("rvsim.adversary", "verify_frozen_distance", "adversary.verify", True),
    ("rvsim.acceptance", "run_cell", "acceptance.run_cell", True),
    ("rvsim.acceptance", "materialize", "acceptance.materialize", True),
    ("rvsim.cli", "main", "cli.main", True),
)

# per-layer metric -> unit; values come from Snapshot.layer_metrics
LAYER_UNITS = {
    "graphs.build_s": "s", "graphs.build_calls": "count",
    "graphs.generate_s": "s", "graphs.parse_s": "s", "graphs.to_text_s": "s",
    "oracle.construct_s": "s", "oracle.constructs": "count",
    "oracle.table_entries": "count", "oracle.table_use_ratio": "ratio",
    "oracle.queries": "count", "oracle.query_s": "s",
    "oracle.bfs_calls": "count", "oracle.bfs_s": "s", "oracle.memo_hit_ratio": "ratio",
    "agents.steps": "count", "agents.step_s": "s",
    "sim.runs": "count", "sim.rounds": "count", "sim.loop_s": "s",
    "sim.trace_write_s": "s", "sim.trace_read_s": "s", "sim.trace_bytes": "bytes",
    "sim.replay_s": "s", "sim.replay_violations": "count",
    "adversary.extract_s": "s", "adversary.extract_steps": "count",
    "adversary.choose_ports_s": "s", "adversary.find_label_pair_s": "s",
    "adversary.number_s": "s", "adversary.verify_s": "s",
    "adversary.survivor_ratio": "ratio",
    "acceptance.run_cell_s": "s", "acceptance.materialize_s": "s",
    "acceptance.cells": "count",
    "cli.main_s": "s", "cli.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _filled(dist) -> int:
    """Entries a BFS filled in (unreached nodes read -1)."""
    return len(dist) - dist.count(-1) if isinstance(dist, list) else 0


class Snapshot:
    """Aggregates of one measured interval; snapshots add up."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def __add__(self, other: "Snapshot") -> "Snapshot":
        out = Snapshot()
        for mine, theirs, res in ((self.calls, other.calls, out.calls),
                                  (self.self_s, other.self_s, out.self_s),
                                  (self.total_s, other.total_s, out.total_s),
                                  (self.counts, other.counts, out.counts)):
            for src in (mine, theirs):
                for k, v in src.items():
                    res[k] += v
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values; every ``_s`` value is self time except
        ``acceptance.materialize_s``, which includes the graph it builds."""
        c, s, n = self.calls, self.self_s, self.counts
        entries = n["oracle.table_entries"] + n["oracle.query_entries"]
        return {
            "graphs.build_s": s["graphs.build"],
            "graphs.build_calls": c["graphs.build"],
            "graphs.generate_s": s["graphs.generate"],
            "graphs.parse_s": s["graphs.parse"],
            "graphs.to_text_s": s["graphs.to_text"],
            "oracle.construct_s": s["oracle.construct"],
            "oracle.constructs": c["oracle.construct"],
            "oracle.table_entries": n["oracle.table_entries"],
            "oracle.table_use_ratio": _ratio(n["oracle.pairs_read"], entries),
            "oracle.queries": c["oracle.query"],
            "oracle.query_s": s["oracle.query"],
            "oracle.bfs_calls": c["oracle.bfs"],
            "oracle.bfs_s": s["oracle.bfs"],
            "oracle.memo_hit_ratio": _ratio(n["oracle.memo_hits"], n["oracle.memo_lookups"]),
            "agents.steps": c["agents.step"],
            "agents.step_s": s["agents.step"],
            "sim.runs": c["sim.run"],
            "sim.rounds": n["sim.rounds"],
            "sim.loop_s": s["sim.run"],
            "sim.trace_write_s": s["sim.trace_write"],
            "sim.trace_read_s": s["sim.trace_read"],
            "sim.trace_bytes": n["sim.trace_bytes"],
            "sim.replay_s": s["sim.replay"],
            "sim.replay_violations": n["sim.replay_violations"],
            "adversary.extract_s": s["adversary.extract"],
            "adversary.extract_steps": n["adversary.extract_steps"],
            "adversary.choose_ports_s": s["adversary.choose_ports"],
            "adversary.find_label_pair_s": s["adversary.find_label_pair"],
            "adversary.number_s": s["adversary.number"],
            "adversary.verify_s": s["adversary.verify"],
            "adversary.survivor_ratio": _ratio(n["adversary.survivors"],
                                               n["adversary.candidates"]),
            "acceptance.run_cell_s": s["acceptance.run_cell"],
            "acceptance.materialize_s": self.total_s["acceptance.materialize"],
            "acceptance.cells": c["acceptance.run_cell"],
            "cli.main_s": s["cli.main"],
            "cli.calls": c["cli.main"],
        }

    def hotspots(self) -> list[tuple[str, float]]:
        """Self time per traced name, largest first."""
        return sorted(self.self_s.items(), key=lambda kv: -kv[1])


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._next_id = 0
        # frame = [name, time spent in traced callees, span id]
        self._stack: list[list] = [["root", 0.0, None]]
        self._snap = Snapshot()
        self._oracles: dict[int, list] = {}  # id(oracle) -> [built a table, pairs read]
        self._patches: list[tuple[object, str, object]] = []

    # -- aggregates ---------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self._snap.counts[name] += value

    def take(self) -> Snapshot:
        """Return the aggregates since the last take and start afresh."""
        for state in self._oracles.values():
            self._snap.counts["oracle.pairs_read"] += len(state[1])
            state[1].clear()
        snap, self._snap = self._snap, Snapshot()
        return snap

    # -- frames and spans ---------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        frame = [name, 0.0, None]
        if keep:
            frame[2] = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        dt = t1 - t0
        parent[1] += dt
        name = frame[0]
        snap = self._snap
        snap.calls[name] += 1
        snap.total_s[name] += dt
        snap.self_s[name] += dt - frame[1]
        if frame[2] is not None:
            parent_id = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            self.spans.append((frame[2], parent_id, name, t0, t1))

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name, True)
        t0 = _now()
        try:
            yield
        finally:
            self._leave(frame, t0, _now())

    def _wrap(self, fn, name: str, keep: bool, hook=None):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, keep)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, t0, _now())
            if hook is not None:
                hook(args, result)
            return result
        return traced

    # -- special cases ------------------------------------------------------

    def _wrap_step(self, fn):
        stack, snap_of = self._stack, self

        @functools.wraps(fn)
        def step(prog, obs):
            t0 = _now()
            port = fn(prog, obs)
            dt = _now() - t0
            stack[-1][1] += dt
            snap = snap_of._snap
            snap.calls["agents.step"] += 1
            snap.self_s["agents.step"] += dt
            snap.total_s["agents.step"] += dt
            return port
        return step

    def _wrap_bfs(self, fn):
        generic = self._wrap(fn, "oracle.bfs", False)
        stack = self._stack

        @functools.wraps(fn)
        def bfs(*args, **kwargs):
            top = stack[-1][0]
            if top == "oracle.construct":
                dist = fn(*args, **kwargs)
                self.count("oracle.table_entries", _filled(dist))
                return dist
            dist = generic(*args, **kwargs)
            if top == "oracle.query":
                self.count("oracle.query_entries", _filled(dist))
            return dist
        return bfs

    def _wrap_oracle_init(self, fn):
        oracles = self._oracles

        @functools.wraps(fn)
        def init(oracle, *args, **kwargs):
            before = self._snap.counts["oracle.table_entries"]
            fn(oracle, *args, **kwargs)
            old = oracles.get(id(oracle))  # an id reused after the old oracle died
            if old is not None:
                self.count("oracle.pairs_read", len(old[1]))
            built = self._snap.counts["oracle.table_entries"] > before
            oracles[id(oracle)] = [built, set()]
        return self._wrap(init, "oracle.construct", True)

    def _wrap_distance(self, fn):
        generic = self._wrap(fn, "oracle.query", False)
        oracles = self._oracles

        @functools.wraps(fn)
        def distance(oracle, u, v):
            bfs_before = self._snap.calls["oracle.bfs"]
            d = generic(oracle, u, v)
            state = oracles.get(id(oracle))
            if state is not None:
                state[1].add((u, v))
                if not state[0]:
                    counts = self._snap.counts
                    counts["oracle.memo_lookups"] += 1
                    if self._snap.calls["oracle.bfs"] == bfs_before:
                        counts["oracle.memo_hits"] += 1
            return d
        return distance

    def _hooks(self):
        count = self.count

        def rounds(args, result):
            count("sim.rounds", result.rounds)

        def violations(args, result):
            count("sim.replay_violations", len(result))

        def extract(args, result):
            count("adversary.extract_steps", len(result.ports))

        def survivors(args, result):
            count("adversary.candidates", len(args[0]))
            count("adversary.survivors", len(result[2]))

        return {"sim.run": rounds, "sim.replay": violations,
                "adversary.extract": extract, "adversary.choose_ports": survivors}

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        special = {"agents.step": self._wrap_step, "oracle.bfs": self._wrap_bfs,
                   "oracle.construct": self._wrap_oracle_init,
                   "oracle.query": self._wrap_distance}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "rvsim" or k.startswith("rvsim."))]
        for modname, path, name, keep in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            mod = sys.modules.get(modname)
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                # a silent zero would read as a gain on that layer
                self.uninstall()
                raise LookupError(f"traced target {modname}.{path} ({name}) not found")
            if name in special:
                wrapped = special[name](original)
            else:
                wrapped = self._wrap(original, name, keep, hooks.get(name))
            if owner_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def check_nesting(spans) -> list[str]:
    """Problems with the span tree: unknown parents, children outside their
    parent's interval, or ids used twice."""
    by_id = {}
    problems = []
    for sid, parent, name, start, end in spans:
        if sid in by_id:
            problems.append(f"span id {sid} used twice")
        by_id[sid] = (parent, name, start, end)
        if end < start:
            problems.append(f"span {sid} ({name}) ends before it starts")
    for sid, (parent, name, start, end) in by_id.items():
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"span {sid} ({name}) has unknown parent {parent}")
            continue
        _, pname, pstart, pend = by_id[parent]
        if start < pstart or end > pend:
            problems.append(f"span {sid} ({name}) lies outside parent {parent} ({pname})")
    return problems
