#!/usr/bin/env python3
"""rvsim benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 15 --trace 0

The rvsim package is imported from ``src/`` next to this directory, never
from an installed copy. The run sets up its inputs from ``--seed``, again
between passes (``setup_s`` is the median set-up time), and makes passes
over them, one call after the other, until the passes have taken
``--seconds``. Times are scaled to a nominal machine speed (speed.py).
Every call's outputs are checked, and for the seeds stored in
expected.json the pass fingerprint must equal the stored one. With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
tracing.py) and the spans go to ``.perfbench_out/`` in the repository.
The line before the last is a JSON record of the run's metadata. Exit code
0 means every check passed; 1 means a check failed; 2 means rvsim or the
arguments could not be used.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rounds_per_s": "1/s",
    "cell_p50_ms": "ms", "cell_p95_ms": "ms", "labels_per_s": "1/s", "ok_frac": "ratio",
}

# Set-up runs 3 times before the first pass, then again before each later
# pass, repeated until this slice of time is spent (at least once), so its
# samples spread over the run like the passes do; it is skipped while set-up
# has taken more than SETUP_SHARE of the time passes took.
SETUP_SLICE_S = 0.02
SETUP_SHARE = 0.25


def import_rvsim():
    """Import rvsim from this checkout's src/, or explain why not."""
    if not os.path.isfile(os.path.join(SRC, "rvsim", "__init__.py")):
        raise ImportError(f"no rvsim package under {SRC}")
    sys.path.insert(0, SRC)
    import rvsim
    if os.path.dirname(os.path.dirname(os.path.abspath(rvsim.__file__))) != SRC:
        raise ImportError(f"rvsim came from {rvsim.__file__}, not {SRC}")
    return rvsim


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Run:
    """One benchmark invocation: set-up, timed passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full"):
        from speed import Speedometer
        from tracing import Tracer
        from workloads import WORKLOADS, PassContext, expected
        self.PassContext = PassContext
        self.speed = Speedometer()
        self.workload_name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-",
                                        dir=_makedirs(os.path.join(ROOT, ".perfbench_work")))
        self.workload = WORKLOADS[workload](scale, self.workdir)
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.expected = expected(scale, workload, seed)
        try:
            self.workload.prepare(seed, self.expected)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- pieces -------------------------------------------------------------

    def _setup_slice(self, at_least: int) -> tuple[list[float], list[float]]:
        """Set up at least ``at_least`` times and for SETUP_SLICE_S; returns the
        scaled and the measured set-up times."""
        before = self.speed.sample()
        times: list[float] = []
        while sum(times) < SETUP_SLICE_S or len(times) < at_least:
            gc.collect()
            t0 = perf_counter()
            self.inputs = self.workload.setup(self.seed)
            times.append(perf_counter() - t0)
        self.speed.sample()
        factor = self.speed.factor(before)
        return [t * factor for t in times], times

    def _pass(self, tracer=None):
        gc.collect()
        ctx = self.PassContext(tracer, self.speed)
        if tracer is None:
            self.workload.run_pass(self.inputs, ctx)
        else:
            with tracer.span("bench.pass"):
                self.workload.run_pass(self.inputs, ctx)
        ctx.close()
        for op in ctx.ops:
            self.attempted += 1
            if op.errors:
                self.failed += 1
                self.errors.extend(f"{op.name}: {e}" for e in op.errors)
        return ctx

    def _check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def _finish_checks(self, passes) -> None:
        prints = {repr(p.fingerprint) for p in passes}
        self._check(len(prints) == 1, f"outputs differ between passes of one seed: {prints}")
        if self.expected is not None:
            stored = self.expected["fingerprint"]
            self._check(prints == {stored},
                        f"outputs {sorted(prints)} differ from the stored {stored} of seed "
                        f"{self.seed} (perfbench/expected.json)")
        self.workload.finish(self.inputs, self._check)

    # -- the two modes ------------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """Untraced run: end-to-end metrics and metadata."""
        setups, raw_setups, passes = [], [], []
        measured = 0.0
        while not passes or measured < self.seconds:
            if not passes or sum(raw_setups) <= SETUP_SHARE * measured:
                scaled, raw = self._setup_slice(1 if passes else 3)
                setups += scaled
                raw_setups += raw
            t0 = perf_counter()
            passes.append(self._pass())
            measured += perf_counter() - t0
        peak = peak_rss_mb()  # before the run-level checks, which are not timed
        self._finish_checks(passes)

        walls = [p.wall for p in passes]
        cells = [c for p in passes
                 for c in ([op.scaled for op in p.ops] if p.cells else [p.wall])]
        values = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "peak_rss_mb": peak,
            "rounds_per_s": median(p.rounds / p.wall for p in passes),
            "cell_p50_ms": 1e3 * percentile(cells, 0.50),
            "cell_p95_ms": 1e3 * percentile(cells, 0.95),
            "labels_per_s": median(p.labels / p.label_seconds for p in passes),
            "ok_frac": 1.0 - self.failed / max(self.attempted, 1),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        meta = self._meta(passes, samples={
            "wall_s": len(walls), "setup_s": len(setups), "rounds_per_s": len(passes),
            "cell_p50_ms": len(cells), "cell_p95_ms": len(cells),
            "labels_per_s": len(passes)})
        meta["raw_wall_s"] = median(p.raw_wall for p in passes)
        meta["raw_setup_s"] = median(raw_setups)
        meta["speed_factor"] = values["wall_s"] / meta["raw_wall_s"]
        return metrics, meta

    def measure_traced(self) -> tuple[dict, dict]:
        """Traced run: per-layer metrics, each the median over traced passes of
        one traced set-up plus one traced pass."""
        from tracing import LAYER_UNITS
        tracer = self.tracer
        tracer.install()
        with tracer.span("bench.setup"):
            self.inputs = self.workload.setup(self.seed)
        setup_snap = tracer.take()
        tracer.uninstall()
        untraced = self._pass()
        tracer.install()
        tracer.take()
        passes, layers = [], []
        measured = 0.0
        while not passes or measured < self.seconds:
            t0 = perf_counter()
            ctx = self._pass(tracer)
            measured += perf_counter() - t0
            snap = tracer.take() + setup_snap
            values = snap.layer_metrics()
            for k, v in ctx.extras.items():
                values[k] = values.get(k, 0) + v
            layers.append((values, snap))
            passes.append(ctx)
        tracer.uninstall()
        self._finish_checks([untraced] + passes)

        traced_wall = median(p.wall for p in passes)
        out = {}
        for name in LAYER_UNITS:
            if name == "trace.overhead_ratio":
                value = traced_wall / untraced.wall
            else:
                value = median(values[name] for values, _ in layers)
            out[name] = {"value": value, "unit": LAYER_UNITS[name]}
        last_snap = layers[-1][1]
        meta = self._meta(passes, samples={"per_layer": len(layers)})
        meta["untraced_wall_s"] = untraced.wall
        meta["traced_wall_s"] = traced_wall
        meta["raw_untraced_wall_s"] = untraced.raw_wall
        meta["raw_traced_wall_s"] = median(p.raw_wall for p in passes)
        meta["hotspots_self_s"] = {k: round(v, 6) for k, v in last_snap.hotspots()[:12]}
        meta["spans"] = len(tracer.spans)
        meta["spans_file"] = self._write_spans()
        return out, meta

    def _write_spans(self) -> str:
        out_dir = _makedirs(os.path.join(ROOT, ".perfbench_out"))
        path = os.path.join(out_dir, f"spans-{self.workload_name}-seed{self.seed}.jsonl")
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, start, end in self.tracer.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
        return os.path.relpath(path, ROOT)

    def _meta(self, passes, samples: dict) -> dict:
        ops: dict[str, int] = {}
        for p in passes:
            for op in p.ops:
                ops[op.name] = ops.get(op.name, 0) + 1
        return {
            "workload": self.workload_name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu_model(), "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "passes": len(passes), "operations": ops,
            "pass_wall_s": [round(p.wall, 4) for p in passes],
            "op_median_s": {name: round(median(op.seconds for p in passes for op in p.ops
                                               if op.name == name), 5) for name in ops},
            "rounds_per_pass": passes[0].rounds, "labels_per_pass": passes[0].labels,
            "fingerprint": repr(passes[0].fingerprint),
            "samples": samples,
            "fail_frac": self.failed / max(self.attempted, 1),
        }


def _makedirs(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full") -> tuple[dict, dict]:
    """Run one benchmark invocation in this process; returns (result, meta)."""
    bench = Run(workload, seed, seconds, trace, scale)
    try:
        metrics, meta = bench.measure_traced() if trace else bench.measure()
    finally:
        bench.close()
    meta["errors"] = bench.errors[:20]
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    return result, meta


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "lowerbound", "largen", "longrun"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_rvsim()
    except ImportError as exc:
        print(f"perfbench: cannot import rvsim: {exc}", file=sys.stderr)
        return 2
    try:
        result, meta = run_benchmark(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except Exception:  # a crash inside rvsim is a failed run, not a result
        traceback.print_exc()
        return 1
    for error in meta["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
