import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rvsim import (
    CAP,
    MET,
    DistanceDelta,
    ProcEvent,
    SimConfig,
    TraceRow,
    build,
    ceil_log2,
    degree_class,
    generate_caterpillar,
    generate_random_connected,
    generate_ring,
    label_bit_length,
    rendezvous_program,
    rendezvous_round_bound,
    run,
)
from rvsim.acceptance import _event_prefix, _joint_live_failures
from rvsim.agents import Observation, extended_bit
from stubs import Constant

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


def _calls(events, proc):
    """Each call of one sub-machine as its (enter, exit) events, in call
    order; exit is None for a call the run cut short."""
    mine = [e for e in events if e.proc == proc]
    assert {e.kind for e in mine[::2]} <= {"enter"} and {e.kind for e in mine[1::2]} <= {"exit"}
    return list(itertools.zip_longest(mine[::2], mine[1::2]))


def _frozen_run(degree, rounds):
    """Step the strategy with label 5 (extended bits 1,0,0,0,1,1) through a
    world whose ports pair q <-> degree+1-q, whose out-of-range ports are
    stays and whose distance never moves; the program and its raw ports."""
    prog = rendezvous_program(5, record_events=True)
    ports, obs = [], Observation(degree, 0, 3)
    for _ in range(rounds):
        port = prog.step(obs)
        ports.append(port)
        obs = Observation(degree, degree + 1 - port if 1 <= port <= degree else 0, 3)
    return prog, ports


class TestTestPorts:
    def test_idle_variant_fails_after_two_delta_rounds(self):
        # at the hub of a five-leaf star the first degree-bounding call runs
        # idle sweeps of sizes 1, 2 and 4 before its live sweep of size 8,
        # which meets the idle peer on leaf 1 at once
        star6 = build(6, [(0, p, p, 1) for p in range(1, 6)])
        prog = rendezvous_program(3, record_events=True)
        res = run(star6, 0, 1, prog, Constant(), SimConfig(round_cap=40))
        assert res.outcome == MET and res.met_round == 14
        (enter, exit), = [c for c in _calls(prog.events, "probe_ports") if c[0].info == (4, 0)]
        assert exit.info == (False,) and exit.round - enter.round == 8
        assert all(r.port1 == 0 and r.pos1 == 0 for r in res.trace[enter.round:exit.round])

    def test_single_edge_sweep_meets_immediately(self):
        # a degree-1 node rounds up to one live sweep of size 1
        prog = rendezvous_program(4, record_events=True)
        res = run(EDGE, 0, 1, prog, Constant(), SimConfig(round_cap=10))
        assert res.outcome == MET and res.met_round == 0 and res.rounds == 1
        assert prog.events[-1] == ProcEvent(0, "probe_ports", "enter", (1, 1))

    def test_degree_two_port_sequence_and_stay_rounds(self):
        # equal labels on the uniform ring mirror each other, so the distance
        # never drops: an idle sweep of size 1, then a live sweep of size 2
        # whose forward tries 1, 2 are each retraced through the entry port
        ring = generate_ring(8)
        prog, twin = (rendezvous_program(5, record_events=True) for _ in range(2))
        res = run(ring, 0, 4, prog, twin, SimConfig(round_cap=7))
        trace = res.trace
        assert [r.port1 for r in trace[:6]] == [0, 0, 1, 2, 2, 1]
        assert all(trace[i].pos1 == 0 for i in (0, 1, 2, 4)) and trace[5].next1 == 0
        for p in (prog, twin):
            calls = _calls(p.events, "probe_ports")[:2]
            assert [(enter.round, enter.info, exit.round, exit.info) for enter, exit in calls] \
                == [(0, (1, 0), 2, (False,)), (2, (2, 1), 6, (False,))]

    def test_out_of_range_tries_are_stays(self):
        # degree 3 rounds up to a live sweep of size 4 after 6 idle rounds:
        # tries 1..3 come back through their paired ports, the try of port 4
        # is a stay, so its go-back is a stay too
        _, ports = _frozen_run(3, 14)
        assert ports == [0] * 6 + [1, 3, 2, 2, 3, 1, 4, 0]

    def test_success_can_come_from_peer_movement(self):
        # a live=0 sweep never moves, yet reports success when the other
        # agent closes in during one of its watched rounds
        ring = generate_ring(8)
        watcher = rendezvous_program(5, record_events=True)
        res = run(ring, 0, 4, watcher, Constant(1), SimConfig(round_cap=2))
        enter, exit = _calls(watcher.events, "probe_ports")[0]
        assert (enter.info, exit.round, exit.info) == ((1, 0), 1, (True,))
        assert res.trace[0].port1 == 0

    @given(st.integers(4, 20), st.integers(2, 6), st.integers(0, 200),
           st.integers(0, 63), st.integers(0, 63), st.data())
    def test_every_sweep_of_the_strategy_keeps_the_lemma(self, n, cap, seed, l1, l2, data):
        # a failed sweep lasts exactly 2*delta rounds and ends where it began;
        # a successful one ends an odd number of rounds in, below 2*delta; an
        # idle sweep chooses port 0 in every round it spans
        g = generate_random_connected(n, cap, seed)
        s1 = data.draw(st.integers(0, n - 1))
        s2 = data.draw(st.integers(0, n - 1).filter(lambda x: x != s1))
        res, p1, p2 = _paired_events(g, s1, s2, l1, l2)
        col = dict(zip(TraceRow._fields, zip(*res.trace)))
        for prog, agent in ((p1, "1"), (p2, "2")):
            pos, port, nxt = (col[field + agent] for field in ("pos", "port", "next"))
            for enter, exit in _calls(prog.events, "probe_ports"):
                delta, live = enter.info
                end = exit.round if exit else res.rounds
                if live == 0:
                    assert set(port[enter.round:end]) <= {0}
                if exit is None:
                    continue
                took = end - enter.round
                if exit.info == (True,):
                    assert took % 2 == 1 and took < 2 * delta
                else:
                    assert took == 2 * delta
                    assert nxt[end - 1] == pos[enter.round]


def _assert_every_call_fails_in(degree, rounds):
    """In the frozen world every degree-bounding call fails: the first
    loop's (b=1), one per extended bit of label 5, then the final loop's
    (b=1). Each lasts 2**(ceil_log2(degree)+2) - 2 rounds."""
    assert rounds == 2 ** (ceil_log2(degree) + 2) - 2
    prog, _ = _frozen_run(degree, 10 * rounds)
    calls = [c for c in _calls(prog.events, "bound_degrees") if c[1]]
    assert len(calls) == 9
    assert {enter.info for enter, _ in calls} == {(0, degree), (1, degree)}
    assert {(exit.round - enter.round, exit.info) for enter, exit in calls} == {(rounds, (False,))}


class TestBoundDegrees:
    def test_full_failure_duration_degree_four(self):
        # 2 + 4 + 8 rounds of idle-or-sweep phases
        _assert_every_call_fails_in(4, 14)

    def test_full_failure_duration_degree_two(self):
        _assert_every_call_fails_in(2, 6)

    def test_degree_one_edge_case(self):
        _assert_every_call_fails_in(1, 2)

    def test_full_failure_duration_non_power_degree(self):
        # degrees 5 and 6 round up to sweep size 8: 2+4+8+16 = 30 rounds
        _assert_every_call_fails_in(5, 30)
        _assert_every_call_fails_in(6, 30)

    def test_similar_nodes_opposite_bits_both_succeed(self):
        # at the distinguishing bit the 1-bit agent sweeps while the 0-bit
        # agent holds still at a node of the same degree, so both calls
        # observe the same shrinking round
        for l1, l2 in ((2, 3), (2, 5), (0, 1)):
            _, p1, p2 = _paired_events(generate_ring(8), 0, 4, l1, l2)
            calls = []
            for p in (p1, p2):
                i = next(i for i, e in enumerate(p.events)
                         if e.proc == "compare_labels" and e.kind == "exit")
                calls.append(_calls(p.events[:i], "bound_degrees")[-1])
            (enter1, exit1), (enter2, exit2) = calls
            assert exit1.info == exit2.info == (True,)
            assert (enter1.round, exit1.round) == (enter2.round, exit2.round)
            assert {enter1.info[0], enter2.info[0]} == {0, 1}
            assert enter1.info[1] == enter2.info[1] == 2


class TestCompareLabels:
    @pytest.mark.parametrize("l1,l2,expect_index", [
        (2, 3, 3),  # equal lengths, bits differ at the doubled position
        (2, 5, 4),  # shorter label's terminating bit distinguishes
    ])
    def test_exit_round_and_opposite_bits(self, l1, l2, expect_index):
        _, p1, p2 = _paired_events(generate_ring(6), 0, 3, l1, l2, cap=200)
        x1, x2 = ([e for e in p.events if e.proc == "compare_labels" and e.kind == "exit"][0]
                  for p in (p1, p2))
        assert {x1.info[0], x2.info[0]} == {0, 1}
        assert x1.round == x2.round
        assert x1.info[1] == x2.info[1] == expect_index
        assert _first_differing_bit(l1, l2) == expect_index

    def test_fall_through_in_frozen_world(self):
        # every inner call fails, so the walk runs past the extended label's
        # end and falls through to 1 (a total function)
        prog, _ = _frozen_run(6, 8 * 30)
        exits = [e.info for e in prog.events if e.proc == "compare_labels" and e.kind == "exit"]
        assert exits == [(1, None)]


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


_DELTAS = (DistanceDelta.SAME, DistanceDelta.SAME, DistanceDelta.DECREASED,
           DistanceDelta.INCREASED)


def _repeating_stream(data, delta_readings):
    """Observations from bytes: a byte below 128 repeats the previous object
    (and asks for a fork when its low nibble is 1); any other byte makes a new
    one whose degree, arrival port and reading change come from its bits."""
    out, d = [Observation(2, 0, DistanceDelta.SAME if delta_readings else 7)], 7
    for b in data:
        if b < 128:
            out.append(out[-1])
            continue
        degree = 1 + (b & 3)
        change = (b >> 4) & 3
        if delta_readings:
            reading = _DELTAS[change]
        else:
            d += (0, 0, -1, 1)[change]
            reading = d
        out.append(Observation(degree, min((b >> 2) & 3, degree), reading))
    return out


class TestRepeatedObservations:
    @given(st.binary(max_size=600), st.booleans(), st.booleans(), st.integers(0, 63))
    def test_an_object_repeated_never_changes_an_answer(self, data, delta_readings,
                                                        unlabelled, label):
        # a repeated object may take the quiet-round shortcut; its copies never
        # can, since each is a new object: both must see the same answers,
        # across forks taken in quiet stretches and paused label reads
        stream = _repeating_stream(data, delta_readings)
        fast = rendezvous_program(None if unlabelled else label, record_events=True)
        slow = rendezvous_program(label, record_events=True)
        forks = [False] + [b < 128 and b & 15 == 1 for b in data]
        for obs, fork in zip(stream, forks):
            if fork:
                fast = fast.fork()
            port = fast.step(obs)
            if fast.pending_bit:
                assert port == 0
                # a sweep that ends in a label read has run to its end, so the
                # same object again asks for the bit and never stays put quietly
                with pytest.raises(RuntimeError, match="never supplied"):
                    fast.step(obs)
                port = fast.supply_bit(extended_bit(label, fast.pending_bit))
            assert port == slow.step(Observation(*obs))
        assert fast.rounds_seen == slow.rounds_seen == len(stream)
        assert fast.events == slow.events


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
