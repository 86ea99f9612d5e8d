#!/usr/bin/env python3
"""Write perfbench/expected.json: each workload's pass fingerprint, at full
size, for the stored seeds, and for ``largen`` the pinned second starts.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/record_expected.py

The benchmark then fails any run of a stored seed whose outputs differ, so
a change that alters the program's moves, chosen pairs or meeting rounds
shows up as a failed check rather than as a timing change. Rerun this only
when such a change is intended. It takes about ten minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run as bench

# seeds 0-31 cover the usual sweeps; 7919 is the held-out seed (README.md)
SEEDS = tuple(range(32)) + (7919,)


def record(workload: str, seed: int, workdir: str) -> dict:
    from workloads import WORKLOADS, PassContext
    w = WORKLOADS[workload]("full", workdir)
    w.prepare(seed, None)
    inputs = w.setup(seed)
    ctx = PassContext()
    w.run_pass(inputs, ctx)
    errors = [e for op in ctx.ops for e in op.errors]
    w.finish(inputs, lambda ok, message: ok or errors.append(message))
    if errors:
        raise RuntimeError(f"{workload} seed {seed}: {errors[:3]}")
    entry = {"fingerprint": repr(ctx.fingerprint)}
    if workload == "largen":
        entry["starts"] = {str(lg.nodes): [lg.start2, lg.rounds] for lg in inputs}
    return entry


def main() -> int:
    bench.import_rvsim()
    from workloads import EXPECTED_PATH, WORKLOADS
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=bench._makedirs(
                os.path.join(bench.ROOT, ".perfbench_work")))
            try:
                out[workload][str(seed)] = record(workload, seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(workload, seed, out[workload][str(seed)], file=sys.stderr, flush=True)
    with open(EXPECTED_PATH, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
