"""Smoke test of the benchmark itself: every workload at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench.import_rvsim()

import rvsim  # noqa: E402
import rvsim.acceptance as acceptance  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus", "lowerbound", "largen", "longrun")
HELD_OUT_SEED = 7919

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _units(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == bench.END_TO_END_UNITS
    assert _units("per_layer") == tracing.LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, meta = bench.run_benchmark(workload, 0, 0.01, trace=False, scale="smoke")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert meta["fail_frac"] == 0 and meta["errors"] == []
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    for key in ("python", "cpu_model", "nproc", "git_commit", "seed", "operations", "samples"):
        assert key in meta


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_nested_spans(workload):
    result, meta = bench.run_benchmark(workload, 0, 0.01, trace=True, scale="smoke")
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["trace.overhead_ratio"]["value"] > 0
    with open(os.path.join(bench.ROOT, meta["spans_file"]), encoding="ascii") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and len(spans) == meta["spans"]
    assert tracing.check_nesting(
        [(s["id"], s["parent"], s["name"], s["start"], s["end"]) for s in spans]) == []
    names = {s["name"] for s in spans}
    assert {"bench.setup", "bench.pass"} <= names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs_and_held_out_seed_passes(workload):
    first = bench.run_benchmark(workload, 3, 0.01, trace=False, scale="smoke")[1]
    again = bench.run_benchmark(workload, 3, 0.01, trace=False, scale="smoke")[1]
    assert first["fingerprint"] == again["fingerprint"]
    held_out, _ = bench.run_benchmark(workload, HELD_OUT_SEED, 0.01, trace=False, scale="smoke")
    assert held_out["correct"]


def test_expected_pins_the_default_and_held_out_seeds():
    for workload in WORKLOADS:
        for seed in (0, HELD_OUT_SEED):
            entry = workloads.expected("full", workload, seed)
            assert entry is not None and entry["fingerprint"]
            if workload == "largen":
                assert set(entry["starts"]) == {str(n) for n in workloads.LargeN.SIZES["full"]}
    assert workloads.expected("smoke", "corpus", 0) is None


def test_a_stored_fingerprint_that_differs_fails_the_run(monkeypatch):
    monkeypatch.setattr(workloads, "expected", lambda scale, w, seed: {"fingerprint": "'0'"})
    result, meta = bench.run_benchmark("corpus", 0, 0.01, trace=False, scale="smoke")
    assert not result["correct"] and result["failed"] == 1
    assert any("stored" in e for e in meta["errors"])


def test_a_missing_trace_target_stops_the_traced_run(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("rvsim.sim", "no_such_function", "sim.gone", True),))
    original = rvsim.sim.run
    with pytest.raises(LookupError, match="no_such_function"):
        tracing.Tracer().install()
    assert rvsim.sim.run is original


def test_self_times_add_up_and_uninstall_restores():
    original = rvsim.sim.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rvsim.sim.run is not original and acceptance.run is rvsim.sim.run
        g = rvsim.generate_ring(12)
        tracer.take()
        with tracer.span("outer"):
            rvsim.sim.run(g, 0, 6, rvsim.rendezvous_program(2), rvsim.rendezvous_program(5))
    finally:
        tracer.uninstall()
    assert rvsim.sim.run is original and acceptance.run is original
    snap = tracer.take()
    (_, _, name, start, end), = [s for s in tracer.spans if s[2] == "outer"]
    assert abs(sum(snap.self_s.values()) - (end - start)) < 1e-6
    assert snap.calls["sim.run"] == 1 and snap.calls["agents.step"] > 0
    assert snap.counts["sim.rounds"] == snap.calls["agents.step"] / 2


def test_default_seed_reproduces_the_gate_inputs():
    corpus = workloads.Corpus("full", "").setup(0)
    assert corpus == acceptance.upper_bound_corpus()
    sampled = workloads.LowerBound("full", "").setup(0)[1]
    assert (sampled.degree, sampled.label_space, sampled.distance,
            sampled.sample_size, sampled.seed) == (16, 2 ** 64, 4, 1024, 0)


def test_floor_bound_is_integer_exact():
    assert workloads._floor_bound(8, 2 ** 16) == 2
    assert workloads._floor_bound(16, 2 ** 64) == 16
    assert workloads._floor_bound(20, 20 ** 6) == 3 * 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
