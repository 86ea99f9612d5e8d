#!/usr/bin/env python3
"""Build the two headline frozen-distance instances and verify them.

The small one enumerates a 2^20 label space explicitly (takes a few
seconds); the large one samples 1024 labels out of 2^64. Both are checked by
actually simulating the built instance and counting the rounds the distance
stays pinned.

Usage: python3 scripts/lower_bound_demo.py [--skip-explicit] [--graph-dir results]
"""

import argparse
import os
import time

from rvsim import build_instance, rendezvous_program, save_graph, verify_frozen_distance


def show(tag, degree, label_space, distance, sample_size, graph_dir):
    t0 = time.perf_counter()
    inst = build_instance(rendezvous_program, degree=degree,
                          label_space=label_space, distance=distance,
                          sample_size=sample_size)
    verified = verify_frozen_distance(inst)
    elapsed = time.perf_counter() - t0
    print(f"[{tag}] degree={inst.degree} columns={inst.columns} "
          f"labels_examined={inst.labels_examined} sampled={inst.sampled}")
    print(f"[{tag}] reserved pairs p1={inst.p1} p2={inst.p2}; "
          f"labels {inst.label1} / {inst.label2}")
    print(f"[{tag}] frozen for {verified} rounds "
          f">= agreement t*={inst.agreement_horizon} "
          f">= floor bound {inst.guaranteed_horizon}   ({elapsed:.1f}s)")
    if graph_dir:
        os.makedirs(graph_dir, exist_ok=True)
        path = os.path.join(graph_dir, f"lower_bound_{tag}.txt")
        save_graph(inst.graph, path)
        print(f"[{tag}] numbered graph -> {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-explicit", action="store_true",
                        help="skip the 2^20 enumeration (a few seconds)")
    parser.add_argument("--graph-dir", default="",
                        help="also write the numbered graph files here")
    args = parser.parse_args()

    show("sampled-2pow64", degree=16, label_space=2 ** 64, distance=4,
         sample_size=1024, graph_dir=args.graph_dir)
    if not args.skip_explicit:
        show("explicit-2pow20", degree=8, label_space=2 ** 20, distance=3,
             sample_size=None, graph_dir=args.graph_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
