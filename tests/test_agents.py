import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rvsim import (
    CAP,
    MET,
    SimConfig,
    bound_degrees_program,
    build,
    ceil_log2,
    compare_labels_program,
    constant_program,
    degree_class,
    generate_caterpillar,
    generate_random_connected,
    generate_ring,
    idle_program,
    label_bit_length,
    rendezvous_program,
    rendezvous_round_bound,
    run,
    probe_ports_program,
)
from rvsim.acceptance import _event_prefix, _joint_live_failures
from rvsim.agents import Observation, extended_bit

PATH3 = build(3, [(0, 1, 1, 1), (1, 2, 2, 1)])
EDGE = build(2, [(0, 1, 1, 1)])


def _extended_bits(label):
    """The whole extended label, read through extended_bit up to its end."""
    return tuple(itertools.takewhile(lambda b: b is not None,
                                     (extended_bit(label, j) for j in itertools.count(1))))


def _first_differing_bit(l1, l2):
    """Least 1-based position where the extended bits of two distinct labels differ."""
    return next(j for j in itertools.count(1) if extended_bit(l1, j) != extended_bit(l2, j))


class TestExtendedLabels:
    @pytest.mark.parametrize("label,bits", [
        (1, (1, 1)),
        (5, (1, 0, 0, 0, 1, 1)),
        (0, (0, 1)),
        (2, (1, 0, 0, 1)),
        (3, (1, 0, 1, 1)),
    ])
    def test_examples(self, label, bits):
        assert _extended_bits(label) == bits

    def test_distinguishing_examples(self):
        assert _first_differing_bit(2, 5) == 4
        assert _first_differing_bit(2, 3) == 3
        assert _first_differing_bit(0, 1) == 1

    @given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
    def test_distinguisher_within_twice_shorter_length(self, l1, l2):
        if l1 == l2:
            return
        j = _first_differing_bit(l1, l2)
        assert 1 <= j <= 2 * min(label_bit_length(l1), label_bit_length(l2))

    @given(st.integers(0, 1 << 30), st.integers(1, 70))
    def test_extended_bit_reads_the_extended_label(self, label, j):
        # each source bit followed by a 0, then the last 0 turned into the end marker
        bits = [int(c) for b in format(label, "b") for c in (b, "0")]
        bits[-1] = 1
        assert extended_bit(label, j) == (bits[j - 1] if j <= len(bits) else None)

    @given(st.integers(0, 1 << 30))
    def test_shape(self, label):
        bits = _extended_bits(label)
        k = label_bit_length(label)
        assert len(bits) == 2 * k
        assert bits[-1] == 1  # terminating bit
        assert all(bits[j - 1] == 0 for j in range(2, 2 * k, 2))


class TestTestPorts:
    def test_idle_variant_fails_after_two_delta_rounds(self):
        prog = probe_ports_program(4, 0)
        res = run(PATH3, 0, 2, prog, idle_program(), SimConfig(round_cap=20))
        assert res.outcome == CAP
        assert prog.result is False
        assert prog.rounds_seen == 8
        assert all(r.pos1 == 0 for r in res.trace)  # never moved

    def test_single_edge_sweep_meets_immediately(self):
        prog = probe_ports_program(1, 1)
        res = run(EDGE, 0, 1, prog, idle_program(), SimConfig(round_cap=10))
        assert res.outcome == MET and res.met_round == 0 and res.rounds == 1

    def test_degree_two_port_sequence_and_stay_rounds(self):
        # two co-running sweeps on the uniform ring mirror each other, so the
        # distance never drops: forward tries are 1,2,3,4 with go-backs, and
        # 3 and 4 exceed the degree so those rounds are stays
        ring = generate_ring(8)
        prog = probe_ports_program(4, 1)
        twin = probe_ports_program(4, 1)
        res = run(ring, 0, 4, prog, twin, SimConfig(round_cap=12))
        trace = res.trace
        assert [r.port1 for r in trace[:8]] == [1, 2, 2, 1, 3, 0, 4, 0]
        assert all(trace[i].pos1 == 0 for i in (0, 2, 4, 5, 6, 7))
        assert prog.result is False and prog.rounds_seen == 8
        assert twin.result is False and twin.rounds_seen == 8

    def test_success_can_come_from_peer_movement(self):
        # a b=0 sweep never moves, yet reports success when the other agent
        # closes in during one of its watched rounds
        ring = generate_ring(8)
        watcher = probe_ports_program(4, 0)
        run(ring, 0, 4, watcher, constant_program(1), SimConfig(round_cap=12))
        assert watcher.result is True


class TestBoundDegrees:
    def test_full_failure_duration_degree_four(self):
        # 2 + 4 + 8 rounds of idle-or-sweep phases
        star5 = build(5, [(0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (0, 4, 4, 1)])
        # peer idles on a leaf; every sweep move from the center would meet it
        # at port 1..4 -- avoid by co-running two idle-biased agents instead:
        prog = bound_degrees_program(0)
        res = run(star5, 0, 1, prog, idle_program(), SimConfig(round_cap=20))
        assert prog.result is False
        assert prog.rounds_seen == 14
        assert 2 ** (ceil_log2(4) + 2) - 2 == 14

    def test_degree_one_edge_case(self):
        prog = bound_degrees_program(0)
        res = run(EDGE, 0, 1, prog, idle_program(), SimConfig(round_cap=6))
        assert prog.result is False
        assert prog.rounds_seen == 2

    def test_full_failure_duration_non_power_degree(self):
        # degree 5 rounds up to sweep size 8: 2+4+8+16 = 30 rounds
        star6 = build(6, [(0, p, p, 1) for p in range(1, 6)])
        prog = bound_degrees_program(0)
        run(star6, 0, 1, prog, idle_program(), SimConfig(round_cap=40))
        assert prog.result is False
        assert prog.rounds_seen == 30 == 2 ** (ceil_log2(5) + 2) - 2

    def test_similar_nodes_opposite_bits_both_succeed(self):
        # both endpoints of a 3-path have degree 1; mover sweeps while peer
        # holds still, so both observe the same shrinking round
        mover = bound_degrees_program(1)
        holder = bound_degrees_program(0)
        res = run(PATH3, 0, 2, mover, holder, SimConfig(round_cap=10))
        assert mover.result is True
        assert holder.result is True
        ex1 = [e for e in mover.events if e.proc == "bound_degrees" and e.kind == "exit"]
        ex2 = [e for e in holder.events if e.proc == "bound_degrees" and e.kind == "exit"]
        assert ex1[0].round == ex2[0].round


class TestCompareLabels:
    @pytest.mark.parametrize("l1,l2,expect_index", [
        (2, 3, 3),  # equal lengths, bits differ at the doubled position
        (2, 5, 4),  # shorter label's terminating bit distinguishes
    ])
    def test_exit_round_and_opposite_bits(self, l1, l2, expect_index):
        g = generate_ring(6)
        p1 = compare_labels_program(l1)
        p2 = compare_labels_program(l2)
        res = run(g, 0, 3, p1, p2, SimConfig(round_cap=200))
        assert {p1.result, p2.result} == {0, 1}
        x1 = [e for e in p1.events if e.proc == "compare_labels" and e.kind == "exit"][0]
        x2 = [e for e in p2.events if e.proc == "compare_labels" and e.kind == "exit"][0]
        assert x1.round == x2.round
        assert x1.info[1] == x2.info[1] == expect_index
        assert _first_differing_bit(l1, l2) == expect_index

    def test_fall_through_in_frozen_world(self):
        # drive the program through a paired-port world whose distance never
        # moves: every inner call fails and the loop falls through to 1
        from rvsim.agents import Observation
        prog = compare_labels_program(5)
        obs = Observation(6, 0, 3)
        steps = 0
        while prog.result is None:
            port = prog.step(obs)
            arrival = 7 - port if 1 <= port <= 6 else 0
            obs = Observation(6, arrival, 3)
            steps += 1
            assert steps < 1000
        assert prog.result == 1  # total-function fall-through


class TestRendezvousProgram:
    def test_single_edge_regression(self):
        # hand trace: one joint sweep fails in 2 rounds (swap + swap back),
        # then the label-bit walk starts with bits (0, 1): the 1-bit agent
        # steps onto the holder in round 2
        res = run(EDGE, 0, 1, rendezvous_program(0), rendezvous_program(1),
                  SimConfig(round_cap=100))
        assert res.outcome == MET
        assert res.met_round == 2
        assert res.rounds == 3

    def test_label_order_symmetric(self):
        res = run(EDGE, 0, 1, rendezvous_program(1), rendezvous_program(0),
                  SimConfig(round_cap=100))
        assert res.met_round == 2

    def test_equal_labels_on_uniform_ring_never_meet(self):
        g = generate_ring(8)
        res = run(g, 0, 4, rendezvous_program(5), rendezvous_program(5),
                  SimConfig(round_cap=3000, trace_detail="meeting-only"))
        assert res.outcome == CAP
        assert res.min_distance == 4  # distance never even moved

    @pytest.mark.parametrize("l1,l2", [(0, 1), (2, 5), (3, 1024), (65535, 2)])
    def test_meets_within_analytic_bound_on_rings(self, l1, l2):
        g = generate_ring(12)
        res = run(g, 0, 6, rendezvous_program(l1), rendezvous_program(l2),
                  SimConfig(round_cap=10 ** 5))
        assert res.outcome == MET
        assert res.rounds <= rendezvous_round_bound(2, 6, l1, l2)

    @pytest.mark.parametrize("policy", ["adversarial", "random"])
    def test_meets_on_caterpillars(self, policy):
        cat = generate_caterpillar(4, 4, policy=policy, seed=5)
        res = run(cat.graph, cat.start1, cat.start2,
                  rendezvous_program(2), rendezvous_program(5),
                  SimConfig(round_cap=10 ** 5))
        assert res.outcome == MET
        assert res.rounds <= rendezvous_round_bound(4, 4, 2, 5)


def _observations(seed, n):
    """A random observation stream whose distance rarely drops, so the
    strategy gets past its first loop and reads label bits."""
    rng = random.Random(seed)
    out, d = [], 9
    for _ in range(n):
        degree = rng.randint(1, 6)
        if rng.random() < 0.02:
            d -= 1
        elif rng.random() < 0.05:
            d += 1
        out.append(Observation(degree, rng.randint(0, degree), d))
    return out


def _replay(label, stream):
    prog = rendezvous_program(label, record_events=True)
    return prog, [prog.step(obs) for obs in stream]


class TestForkAndLabelReads:
    @pytest.mark.parametrize("seed", range(6))
    def test_forks_step_independently(self, seed):
        # forks fed different streams each act as a fresh program fed the
        # whole stream; stepping one leaves the other and the original alone
        prefix, tail_a, tail_b = (_observations(seed * 3 + k, 400) for k in range(3))
        prog, _ = _replay(11, prefix)
        a, b = prog.fork(), prog.fork()
        outs_a = [a.step(obs) for obs in tail_a]
        outs_b = [b.step(obs) for obs in tail_b]
        for tail, forked, outs in ((tail_a, a, outs_a), (tail_b, b, outs_b)):
            fresh, fresh_outs = _replay(11, prefix + tail)
            assert fresh_outs[len(prefix):] == outs
            assert fresh.events == forked.events
            assert fresh.rounds_seen == forked.rounds_seen == len(prefix) + len(tail)
        assert prog.rounds_seen == len(prefix)
        assert len(prog.events) < len(a.events)

    @pytest.mark.parametrize("label", [0, 1, 2, 5, 1000, 2 ** 40 + 3])
    def test_unlabelled_program_pauses_on_each_label_read(self, label):
        stream = _observations(label % 97, 3000)
        ref, want = _replay(label, stream)
        blank = rendezvous_program(None, record_events=True)
        got, reads = [], []
        for obs in stream:
            port = blank.step(obs)
            j = blank.pending_bit
            if j:
                assert port == 0
                reads.append(j)
                port = blank.supply_bit(extended_bit(label, j))
            got.append(port)
        assert got == want
        assert blank.events == ref.events
        assert reads == list(range(1, len(reads) + 1)) and reads


def _paired_events(g, s1, s2, l1, l2, cap=5000):
    p1 = rendezvous_program(l1, record_events=True)
    p2 = rendezvous_program(l2, record_events=True)
    res = run(g, s1, s2, p1, p2, SimConfig(round_cap=cap))
    return res, p1, p2


class TestLockstepProperties:
    @given(st.integers(4, 20), st.integers(2, 6), st.integers(0, 200),
           st.integers(0, 63), st.integers(0, 63), st.data())
    def test_lockstep_until_compare_exit(self, n, cap, seed, l1, l2, data):
        g = generate_random_connected(n, cap, seed)
        s1 = data.draw(st.integers(0, n - 1))
        s2 = data.draw(st.integers(0, n - 1).filter(lambda x: x != s1))
        res, p1, p2 = _paired_events(g, s1, s2, l1, l2)
        assert _event_prefix(p1.events) == _event_prefix(p2.events)

    @given(st.sampled_from([4, 6, 8, 10, 12]), st.integers(0, 63), st.integers(0, 63))
    def test_joint_failures_imply_similar_degrees(self, n, l1, l2):
        g = generate_ring(n)
        res, p1, p2 = _paired_events(g, 0, n // 2, l1, l2, cap=5000)
        fails = _joint_live_failures(p1.events, p2.events)
        if l1 != l2:
            assert fails  # the symmetric ring always forces at least one
        for d1, d2 in fails:
            assert degree_class(d1) == degree_class(d2)

    @given(st.integers(0, 63).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, 63).filter(lambda b: b != a))))
    def test_compare_exits_opposite_and_same_round_on_ring(self, pair):
        l1, l2 = pair
        res, p1, p2 = _paired_events(generate_ring(8), 0, 4, l1, l2)
        x1 = [e for e in p1.events if e.proc == "compare_labels" and e.kind == "exit"]
        x2 = [e for e in p2.events if e.proc == "compare_labels" and e.kind == "exit"]
        assert x1 and x2
        assert x1[0].round == x2[0].round
        assert {x1[0].info[0], x2[0].info[0]} == {0, 1}
