"""Command-line front end.

Subcommands: ``generate`` (graph files), ``run`` (single simulation),
``sweep`` (parameter grids to CSV), ``lowerbound`` (worst-case instance
construction and verification), ``trace check`` (trace replay against a
graph), ``selfcheck`` (the acceptance gate).
Every path is deterministic given its flags; exit codes are 0 for
success/claims-hold, 1 for claim violations, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
import time

from . import acceptance
from .acceptance import SWEEP_COLUMNS, Cell, measured_run, run_cell
from .adversary import HorizonViolatedError, build_instance, verify_frozen_distance
from .agents import rendezvous_program
from .graphs import FAMILIES, load_graph, materialize, save_graph
from .sim import MET, Trace, read_trace, replay_check


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _words(text: str) -> list[str]:
    return text.split(",")


def _label_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        if not chunk:
            continue
        a, _, b = chunk.partition(":")
        pairs.append((int(a), int(b)))
    return pairs


def _label_space(text: str) -> int:
    """Accept plain integers plus 2^k / 2**k shorthand. A power whose decimal
    form would pass the interpreter's limit on integer strings is refused
    from its exponent, before it is computed."""
    text = text.strip()
    for sep in ("^", "**"):
        if sep in text:
            base, _, exp = text.partition(sep)
            base, exp = int(base), int(exp)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
            # |base|^exp has floor(exp * log10|base|) + 1 decimal digits
            if limit and abs(base) > 1 and exp >= limit / math.log10(abs(base)):
                raise argparse.ArgumentTypeError(
                    f"{text} has more than {limit} decimal digits")
            return base ** exp
    return int(text)


def _emit(pairs) -> None:
    print(" ".join(f"{k}={v}" for k, v in pairs))


# ----------------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------------

def cmd_generate(args) -> int:
    family = FAMILIES[args.family]
    missing = [name for name in family.params
               if name not in family.defaults and getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ValueError(f"family {args.family!r} needs {flags}")
    params = {name: getattr(args, name) for name in family.params}
    g = materialize(args.family, params)
    save_graph(g, args.out)
    out = [("family", args.family), ("n", g.num_nodes), ("m", g.num_edges),
           ("max_degree", g.max_degree)]
    if family.starts is not None:
        start1, start2 = family.starts(params)
        out += [("start1", start1), ("start2", start2)]
    out.append(("out", args.out))
    _emit(out)
    return 0


# ----------------------------------------------------------------------------
# run
# ----------------------------------------------------------------------------

def cmd_run(args) -> int:
    g = load_graph(args.graph)
    result, start_distance, cap, analytic = measured_run(
        g, args.start1, args.start2, args.label1, args.label2, args.oracle_mode,
        args.round_cap, args.trace_out)
    out = [("outcome", result.outcome),
           ("met_round", "" if result.met_round is None else result.met_round),
           ("rounds", result.rounds), ("start_distance", start_distance),
           ("round_cap", cap), ("analytic_cap", analytic),
           ("final1", result.final1), ("final2", result.final2),
           ("min_distance", result.min_distance)]
    if result.met:
        out.append(("bound_ratio", f"{result.rounds / analytic:.6f}"))
    _emit(out)
    return 0 if result.met else 1


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

# family parameter -> (sweep flag listing its values, parser of that list)
_SWEEP_LISTS = {
    "spine_length": ("spine_lengths", _ints), "degree": ("degrees", _ints),
    "policy": ("policies", _words), "clique_size": ("clique_sizes", _ints),
    "columns": ("columns", _ints), "size": ("sizes", _ints),
    "numbering": ("numbering", _words), "max_degree": ("max_degrees", _ints),
    "seed": ("seeds", _ints),
}


def _sweep_starts(args, params: dict) -> list[tuple[int, int]]:
    starts = FAMILIES[args.family].starts
    if starts is not None:
        return [starts(params)]
    if args.family == "random":
        return [(0, -1)]  # -1 resolves to the farthest node from start1
    n = params["size"]  # ring: opposite starts, rotated
    rotations = n if args.rotations == 0 else min(args.rotations, n)
    return [(rot, (rot + n // 2) % n) for rot in range(rotations)]


def _sweep_cells(args) -> list[Cell]:
    if args.label_pairs:
        pairs = _label_pairs(args.label_pairs)
        if not pairs:
            raise ValueError(f"--label-pairs {args.label_pairs} holds no label pair")
    else:
        lo, _, hi = args.label_range.partition(":")
        labels = range(int(lo), int(hi))
        if len(labels) < 2:
            raise ValueError(f"--label-range {args.label_range} holds no label pair")
        pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    if any(a < 0 or b < 0 for a, b in pairs):
        raise ValueError("labels must be >= 0")
    names = FAMILIES[args.family].params
    grid = []
    for flag, parse in (_SWEEP_LISTS[name] for name in names):
        values = parse(getattr(args, flag))
        if not values:
            raise ValueError(f"--{flag.replace('_', '-')} lists no value")
        grid.append(values)
    cells: list[Cell] = []
    for values in itertools.product(*grid):
        params = dict(zip(names, values))
        for (s1, s2), (l1, l2) in itertools.product(_sweep_starts(args, params), pairs):
            cells.append(Cell(args.family, tuple(params.items()), s1, s2, l1, l2,
                              args.oracle_mode))
    return sorted(cells, key=Cell.sort_key)


def cmd_sweep(args) -> int:
    if bool(args.label_pairs) == bool(args.label_range):
        print("exactly one of --label-pairs or --label-range is required",
              file=sys.stderr)
        return 2
    for flag, least in (("rotations", 0), ("jobs", 0), ("repeat", 1)):
        if getattr(args, flag) < least:
            raise ValueError(f"--{flag} must be >= {least}")
    cells = _sweep_cells(args)
    repeat = args.repeat
    jobs = args.jobs or os.cpu_count() or 1
    work = cells * repeat  # repeats grouped by position: work[i::len(cells)]
    if jobs > 1 and len(work) > 1:
        # imported here, not at the top: importing the process pool adds about
        # 2.6 MB to every process that imports this module. The pool forks
        # all its workers up front, so ask for no more than there is work.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            results = list(pool.map(run_cell, work, chunksize=8))
    else:
        results = [run_cell(c) for c in work]

    rows = results[:len(cells)]
    unstable = 0
    for rep in range(1, repeat):
        chunk = results[rep * len(cells):(rep + 1) * len(cells)]
        unstable += sum(1 for a, b in zip(rows, chunk) if a != b)

    with open(args.out, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    met = sum(1 for r in rows if r["outcome"] == MET)
    errors = sum(1 for r in rows if r["outcome"] == "error")
    ratios = [float(r["bound_ratio"]) for r in rows if r["bound_ratio"]]
    max_ratio = max(ratios, default=0.0)
    max_rounds = max((r["rounds"] for r in rows if r["rounds"] != ""), default=0)
    _emit([("cells", len(rows)), ("repeat", repeat), ("met", met),
           ("errors", errors), ("unstable", unstable),
           ("max_bound_ratio", f"{max_ratio:.6f}"), ("max_rounds", max_rounds),
           ("out", args.out)])
    claims_hold = met == len(rows) and max_ratio <= 1.0 and unstable == 0
    return 0 if claims_hold else 1


# ----------------------------------------------------------------------------
# lowerbound
# ----------------------------------------------------------------------------

def cmd_lowerbound(args) -> int:
    if args.degree is None and args.clique_size is None:
        print("one of --degree or --clique-size is required", file=sys.stderr)
        return 2
    degree = args.degree if args.degree is not None else args.clique_size + 3
    inst = build_instance(rendezvous_program, degree=degree,
                          label_space=args.label_space, distance=args.distance,
                          sample_size=args.sample_size, seed=args.seed)
    if args.graph_out:
        save_graph(inst.graph, args.graph_out)
    try:
        verified = verify_frozen_distance(inst)
        violated = False
    except HorizonViolatedError as exc:
        verified = -1
        violated = True
        print(f"horizon violated: {exc}", file=sys.stderr)
    _emit([("degree", inst.degree), ("clique_size", inst.clique_size),
           ("columns", inst.columns), ("distance", inst.distance),
           ("label_space", inst.label_space),
           ("labels_examined", inst.labels_examined), ("sampled", inst.sampled),
           ("p1", inst.p1), ("p2", inst.p2),
           ("label1", inst.label1), ("label2", inst.label2),
           ("t_star", inst.agreement_horizon),
           ("t_min", inst.guaranteed_horizon),
           ("verified_horizon", verified)])
    ok = not violated and verified >= inst.agreement_horizon >= inst.guaranteed_horizon
    return 0 if ok else 1


# ----------------------------------------------------------------------------
# trace check
# ----------------------------------------------------------------------------

def _record_violations(header: dict, rows: Trace, result: dict) -> list[str]:
    """Where the rows disagree with the header's starts, with the result's
    round count and final positions, or with their own row indices."""
    violations = []
    starts = (header.get("start1"), header.get("start2"))
    finals = (result.get("final1"), result.get("final2"))
    if len(rows) != result.get("rounds"):
        violations.append(f"trace: {len(rows)} rows, but the result counts "
                          f"{result.get('rounds')} rounds")
    first = (rows[0].pos1, rows[0].pos2) if rows else finals  # no rows: it ends where it starts
    if first != starts:
        violations.append(f"trace: the run starts at {first}, but the header says {starts}")
    if rows and (rows[-1].next1, rows[-1].next2) != finals:
        violations.append(f"trace: the run ends at {(rows[-1].next1, rows[-1].next2)}, "
                          f"but the result says {finals}")
    i = 0  # the index of each run's first row, which its round must equal
    for head, count in rows.runs():
        if head[0] != i:
            violations.append(f"trace: row {i} has round {head[0]}")
            break
        i += count
    return violations


def cmd_trace_check(args) -> int:
    g = load_graph(args.graph)
    with open(args.trace, encoding="ascii") as fh:
        header, rows, result = read_trace(fh)
    if header.get("graph_hash") != g.content_hash():
        raise ValueError(f"{args.trace} was written on graph {header.get('graph_hash')}, "
                         f"not on {args.graph} ({g.content_hash()})")
    violations = _record_violations(header, rows, result) + replay_check(rows, g)
    for violation in violations:
        print(violation)
    _emit([("rows", len(rows)), ("violations", len(violations))])
    return 1 if violations else 0


def cmd_selfcheck(args) -> int:
    """Print each criterion's line as it finishes, and its time to stderr."""
    passed = True
    for check in acceptance.criteria(fast=args.fast):
        start = time.perf_counter()
        res = check()
        print(f"time {res.criterion} {time.perf_counter() - start:.3f} s", file=sys.stderr)
        print(res.line(), flush=True)
        passed = passed and res.passed
    return 0 if passed else 1


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvsim",
        description="Two distance-aware agents meeting on anonymous port-labelled graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a graph file")
    gen.add_argument("--family", required=True, choices=tuple(FAMILIES))
    gen.add_argument("--spine-length", type=int, help="caterpillar spine length")
    gen.add_argument("--degree", type=int, help="caterpillar uniform degree")
    gen.add_argument("--policy", default="adversarial",
                     choices=("adversarial", "random"), help="caterpillar ports")
    gen.add_argument("--clique-size", type=int, help="clique ring: odd clique size")
    gen.add_argument("--columns", type=int, help="clique ring: number of columns")
    gen.add_argument("--size", type=int, help="ring/random node count")
    gen.add_argument("--numbering", default="uniform", choices=("uniform", "random"),
                     help="ring ports")
    gen.add_argument("--max-degree", type=int, help="random graph degree cap")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    runp = sub.add_parser("run", help="simulate one rendezvous")
    runp.add_argument("--graph", required=True)
    runp.add_argument("--start1", type=int, required=True)
    runp.add_argument("--start2", type=int, required=True)
    runp.add_argument("--label1", type=int, required=True)
    runp.add_argument("--label2", type=int, required=True)
    runp.add_argument("--oracle-mode", default="exact", choices=("exact", "delta"))
    runp.add_argument("--round-cap", type=int, default=0,
                      help="0 = derived from degree, distance, and labels")
    runp.add_argument("--trace-out", help="write the full JSONL trace here")
    runp.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run a parameter grid to CSV",
        description="CSV columns, in order: " + ", ".join(SWEEP_COLUMNS))
    sweep.add_argument("--family", required=True, choices=tuple(FAMILIES))
    sweep.add_argument("--spine-lengths", default="", help="comma list (caterpillar)")
    sweep.add_argument("--degrees", default="", help="comma list (caterpillar)")
    sweep.add_argument("--policies", default="adversarial", help="comma list (caterpillar)")
    sweep.add_argument("--clique-sizes", default="", help="comma list (butterfly)")
    sweep.add_argument("--columns", default="", help="comma list (butterfly)")
    sweep.add_argument("--sizes", default="", help="comma list (ring/random)")
    sweep.add_argument("--numbering", default="random", choices=("uniform", "random"),
                       help="ring ports")
    sweep.add_argument("--rotations", type=int, default=0,
                       help="ring start rotations to try; 0 = all")
    sweep.add_argument("--max-degrees", default="", help="comma list (random)")
    sweep.add_argument("--seeds", default="0", help="comma list")
    sweep.add_argument("--label-pairs", default="", help="e.g. 0:1,2:5")
    sweep.add_argument("--label-range", default="",
                       help="lo:hi -> every unordered label pair in [lo, hi)")
    sweep.add_argument("--oracle-mode", default="exact", choices=("exact", "delta"))
    sweep.add_argument("--repeat", type=int, default=1,
                       help="re-run each cell this many times; divergence is a violation")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--jobs", type=int, default=0, help="0 = all cores")
    sweep.set_defaults(func=cmd_sweep)

    low = sub.add_parser("lowerbound", help="build and verify a frozen-distance instance")
    low.add_argument("--degree", type=int, help="uniform degree (odd clique size + 3)")
    low.add_argument("--clique-size", type=int, help="alternative to --degree")
    low.add_argument("--label-space", type=_label_space, required=True,
                     help="integer, or 2^k / 2**k")
    low.add_argument("--distance", type=int, required=True)
    low.add_argument("--sample-size", type=int,
                     help="sample this many labels (default: explicit up to 2^20, else 1024)")
    low.add_argument("--seed", type=int, default=0)
    low.add_argument("--graph-out", help="also write the numbered graph file")
    low.set_defaults(func=cmd_lowerbound)

    trace = sub.add_parser("trace", help="work with trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_check = trace_sub.add_parser(
        "check", help="replay a trace against its graph",
        description="Read a trace, check that its header names the graph, that its "
                    "rows match the header's starts and the result's rounds and final "
                    "positions and are numbered from round 0, and replay every run of "
                    "rows; exit 1 lists the violations.")
    trace_check.add_argument("trace", help="a trace file that run --trace-out wrote")
    trace_check.add_argument("--graph", required=True)
    trace_check.set_defaults(func=cmd_trace_check)

    check = sub.add_parser("selfcheck", help="run the acceptance suite")
    check.add_argument("--fast", action="store_true",
                       help="smoke variant: shrinks the explicit label-space case")
    check.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
