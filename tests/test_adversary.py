import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from rvsim import (
    AdversaryInstance,
    DistanceOracle,
    HorizonViolatedError,
    InvalidParamsError,
    PortSequence,
    SimConfig,
    bfs_distances,
    build_instance,
    butterfly_coords,
    butterfly_index,
    choose_ports,
    constant_program,
    extract_port_sequence,
    extract_port_sequences,
    find_label_pair,
    generate_caterpillar,
    guaranteed_horizon,
    hamiltonian_cycles,
    is_paired_numbering,
    number_butterfly,
    rendezvous_program,
    run,
    verify_frozen_distance,
)
from rvsim.adversary import class_table, default_extraction_horizon


class TestExtraction:
    def test_first_two_rounds_idle_for_rendezvous(self):
        seq = extract_port_sequence(rendezvous_program, 9, degree=16,
                                    frozen_distance=5, horizon=12)
        assert seq.ports[0] == 0 and seq.ports[1] == 0

    def test_deterministic(self):
        a = extract_port_sequence(rendezvous_program, 42, 8, 3, 100)
        b = extract_port_sequence(rendezvous_program, 42, 8, 3, 100)
        assert a == b

    def test_constant_stub(self):
        seq = extract_port_sequence(lambda lab: constant_program(3), 0, 16, 5, 20)
        assert seq.ports == bytes([3] * 20)

    def test_out_of_range_actions_normalize_to_stay(self):
        seq = extract_port_sequence(lambda lab: constant_program(99), 0, 16, 5, 6)
        assert seq.ports == bytes(6)

    def test_odd_degree_rejected(self):
        with pytest.raises(InvalidParamsError):
            extract_port_sequence(rendezvous_program, 0, 7, 3, 10)
        with pytest.raises(InvalidParamsError):
            extract_port_sequences([0, 1], 7, 3, 10)

    @pytest.mark.parametrize("degree,labels,horizon", [
        (6, range(2 ** 10), 1200),
        (8, range(2 ** 10), default_extraction_horizon(8, 2 ** 10)),
        (16, [random.Random(3 + i).getrandbits(64) for i in range(256)], 1000),
    ], ids=["deg6-long", "deg8-default", "deg16-sampled"])
    def test_trie_walk_matches_black_box(self, degree, labels, horizon):
        batch = extract_port_sequences(labels, degree, 3, horizon)
        assert [s.label for s in batch] == list(labels)
        for seq in batch:
            assert seq == extract_port_sequence(rendezvous_program, seq.label, degree, 3,
                                                horizon)
        if horizon >= 1000:  # many labels diverge
            assert len({s.ports for s in batch}) >= 100
        else:
            # within 66 rounds only extended bits 1 and 2 are read, so at most
            # four leaves, and labels in one leaf share one bytes object
            assert len({id(s.ports) for s in batch}) <= 4


class TestChoosePorts:
    def test_all_idle_tie_break(self):
        seqs = [PortSequence(lab, bytes(10)) for lab in range(4)]
        p1, p2, survivors = choose_ports(seqs, 8)
        assert (p1, p2) == (1, 2)
        assert survivors == [0, 1, 2, 3]

    def test_hand_built_toy(self):
        seqs = [PortSequence(0, bytes([1, 1, 1, 1])),
                PortSequence(1, bytes([2, 2, 2, 2]))]
        p1, p2, survivors = choose_ports(seqs, 8)
        assert (p1, p2) == (3, 4)
        assert survivors == [0, 1]

    @given(st.integers(2, 12), st.lists(st.integers(0, 8), min_size=1, max_size=40),
           st.integers(0, 10 ** 6))
    def test_averaging_bounds_on_random_stubs(self, n_labels, shape, seed):
        import random
        rng = random.Random(seed)
        t = len(shape)
        degree = 8
        seqs = [PortSequence(lab, bytes(rng.randint(0, degree) for _ in range(t)))
                for lab in range(n_labels)]
        p1, p2, survivors = choose_ports(seqs, degree)
        special = {p1, p2, degree + 1 - p1, degree + 1 - p2}
        s_total = sum(1 for s in seqs for x in s.ports if x in special)
        assert s_total <= 4 * t * n_labels / degree  # the two rarest pairs
        assert 2 * len(survivors) >= n_labels
        for s in seqs:
            if s.label in survivors:
                own = sum(1 for x in s.ports if x in special)
                assert own * degree <= 8 * t


    @given(st.lists(st.binary(min_size=6, max_size=6), min_size=1, max_size=4),
           st.lists(st.integers(0, 3), min_size=2, max_size=30))
    def test_repeated_sequences_count_per_label(self, shapes, picks):
        # labels may share one ports object or hold equal copies; choose_ports
        # must count every label, as a per-label scan does
        degree = 8
        shapes = [bytes(b % (degree + 1) for b in shape) for shape in shapes]
        seqs = [PortSequence(lab, shapes[k % len(shapes)] if lab % 2
                             else bytes(bytearray(shapes[k % len(shapes)])))
                for lab, k in enumerate(picks)]
        totals = {p: sum(s.ports.count(p) + s.ports.count(degree + 1 - p) for s in seqs)
                  for p in range(1, degree // 2 + 1)}
        p1, p2 = sorted(sorted(totals, key=lambda p: (totals[p], p))[:2])
        special = (p1, p2, degree + 1 - p1, degree + 1 - p2)
        survivors = [s.label for s in seqs
                     if degree * sum(s.ports.count(x) for x in special) <= 8 * 6]
        assert choose_ports(seqs, degree) == (p1, p2, survivors)


class TestFindLabelPair:
    def test_identical_class_strings_agree_fully(self):
        seqs = [PortSequence(0, bytes([0, 3, 0, 3])),
                PortSequence(1, bytes([3, 0, 3, 0]))]
        # with (p1, p2) = (1, 2), ports 0 and 3 are both stay-class
        l1, l2, t_star = find_label_pair(seqs, 8, 1, 2)
        assert (l1, l2, t_star) == (0, 1, 4)

    def test_first_divergence_bounds_prefix(self):
        # class strings AAC.. vs ABC..: prefix length 1
        seqs = [PortSequence(0, bytes([1, 2, 0])),
                PortSequence(1, bytes([1, 8, 0]))]  # 8 = 9-1 is backward class
        l1, l2, t_star = find_label_pair(seqs, 8, 1, 2)
        assert t_star == 1

    @given(st.integers(2, 16), st.integers(1, 30), st.integers(0, 10 ** 6))
    def test_pure_stay_sequences_agree_fully(self, n_labels, t, seed):
        import random
        rng = random.Random(seed)
        stay_ports = [0, 3, 6]  # with (p1,p2)=(1,2) on degree 8: complements 8,7
        seqs = [PortSequence(lab, bytes(rng.choice(stay_ports) for _ in range(t)))
                for lab in range(n_labels)]
        _, _, t_star = find_label_pair(seqs, 8, 1, 2)
        assert t_star == t

    def test_picks_longest_common_prefix(self):
        # brute-force oracle over all pairs
        import itertools, random
        rng = random.Random(5)
        degree = 8
        seqs = [PortSequence(lab, bytes(rng.randint(0, degree) for _ in range(12)))
                for lab in range(10)]
        from rvsim.adversary import class_string
        best = -1
        for a, b in itertools.combinations(seqs, 2):
            sa = class_string(a, degree, 2, 3)
            sb = class_string(b, degree, 2, 3)
            lcp = 0
            while lcp < 12 and sa[lcp] == sb[lcp]:
                lcp += 1
            best = max(best, lcp)
        _, _, t_star = find_label_pair(seqs, degree, 2, 3)
        assert t_star == best

    def test_proper_prefix_agrees_on_the_shorter_length(self):
        seqs = [PortSequence(1, b"\x01\x02"), PortSequence(2, b"\x01\x02\x03")]
        assert find_label_pair(seqs, 8, 1, 2) == (1, 2, 2)

    def test_ties_resolve_to_the_first_sorted_group(self):
        # class strings AB (labels 7, 9) and BA (labels 1, 2) agree in full
        seqs = [PortSequence(1, bytes([8, 1])), PortSequence(9, bytes([1, 8])),
                PortSequence(2, bytes([8, 2])), PortSequence(7, bytes([2, 7]))]
        assert find_label_pair(seqs, 8, 1, 2) == (7, 9, 2)

    @given(st.sampled_from([4, 6, 8]), st.data())
    def test_matches_sorted_scan_reference(self, degree, data):
        """Grouping by class string picks the same pair, ties included, as
        sorting every (class string, label) pair and scanning neighbours."""
        length = data.draw(st.integers(0, 4), label="length")
        pool = data.draw(st.lists(st.binary(min_size=length, max_size=length + 1).map(
            lambda b: bytes(x % (degree + 1) for x in b)), min_size=1, max_size=5))
        labels = data.draw(st.lists(st.integers(0, 40), min_size=2, max_size=24))
        seqs = [PortSequence(lab, data.draw(st.sampled_from(pool))) for lab in labels]
        p1, p2 = sorted(data.draw(st.lists(st.integers(1, degree // 2), min_size=2,
                                           max_size=2, unique=True)))
        table = class_table(degree, p1, p2)
        keyed = sorted((seq.ports.translate(table), seq.label) for seq in seqs)
        best_len, best_pair = -1, (0, 0)
        for (sa, la), (sb, lb) in zip(keyed, keyed[1:]):
            lcp = next((i for i, (x, y) in enumerate(zip(sa, sb)) if x != y),
                       min(len(sa), len(sb)))
            if lcp > best_len:
                best_len, best_pair = lcp, (min(la, lb), max(la, lb))
        assert find_label_pair(seqs, degree, p1, p2) == (*best_pair, best_len)


class TestNumbering:
    @pytest.mark.parametrize("k", [3, 5, 7, 9, 13])
    def test_hamiltonian_decomposition_covers_clique(self, k):
        cycles = hamiltonian_cycles(k)
        assert len(cycles) == (k - 1) // 2
        seen = set()
        for cycle in cycles:
            assert sorted(cycle) == list(range(k))  # each one Hamiltonian
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                e = (min(a, b), max(a, b))
                assert e not in seen  # edge-disjoint
                seen.add(e)
        assert len(seen) == k * (k - 1) // 2

    def test_small_paired_numbering(self):
        g = number_butterfly(3, 4, 1, 2)
        assert is_paired_numbering(g)
        assert all(pu + pv == 7 for _, pu, _, pv in g.edges())

    @pytest.mark.parametrize("k,p,p1,p2", [(3, 4, 1, 2), (5, 8, 2, 4), (13, 6, 1, 7)])
    def test_forward_backward_semantics(self, k, p, p1, p2):
        g = number_butterfly(k, p, p1, p2)
        degree = k + 3
        assert is_paired_numbering(g)
        for v in range(g.num_nodes):
            assert set(g.ports(v)) == set(range(1, degree + 1))
            _, col = butterfly_coords(k, v)
            for port in g.ports(v):
                w, _ = g.neighbor(v, port)
                _, wcol = butterfly_coords(k, w)
                if port in (p1, p2):
                    assert wcol == (col + 1) % p
                elif port in (degree + 1 - p1, degree + 1 - p2):
                    assert wcol == (col - 1) % p
                else:
                    assert wcol == col

    def test_bad_pair_ids_rejected(self):
        with pytest.raises(InvalidParamsError):
            number_butterfly(3, 4, 2, 2)
        with pytest.raises(InvalidParamsError):
            number_butterfly(3, 4, 0, 1)
        with pytest.raises(InvalidParamsError):
            number_butterfly(3, 4, 1, 5)  # above degree/2


class TestBuildInstance:
    def test_small_end_to_end(self):
        inst = build_instance(rendezvous_program, degree=6, label_space=16, distance=2)
        assert inst.clique_size == 3
        assert inst.label1 < inst.label2 < 16
        assert 1 <= inst.p1 < inst.p2 <= 3
        assert is_paired_numbering(inst.graph)
        d = bfs_distances(inst.graph, inst.start1)[inst.start2]
        assert d == inst.distance == 2
        verified = verify_frozen_distance(inst)
        assert verified >= inst.agreement_horizon >= inst.guaranteed_horizon

    def test_even_clique_rejected(self):
        with pytest.raises(InvalidParamsError):
            build_instance(rendezvous_program, degree=7, label_space=8, distance=3)

    def test_distance_below_log_clique_rejected(self):
        with pytest.raises(InvalidParamsError):
            build_instance(rendezvous_program, degree=16, label_space=8, distance=2)

    def test_guaranteed_horizon_formula(self):
        assert guaranteed_horizon(16, 2 ** 64) == (64 // 8) * 2 == 16
        assert guaranteed_horizon(8, 2 ** 20) == (20 // 6) * 1 == 3
        # exact powers, where a float log2 ratio rounds one block low
        assert guaranteed_horizon(20, 20 ** 6) == 3 * 2 == 6
        assert guaranteed_horizon(14, 14 ** 10) == 5 * 1 == 5

    @pytest.mark.parametrize("degree,space,want", [
        (8, 2 ** 14, 67), (8, 2 ** 20, 68), (16, 2 ** 64, 144), (6, 16, 49),
        # exact powers, where a float log2 ratio rounds one block high
        (6, 6 ** 14, 55), (12, 12 ** 10, 106),
    ])
    def test_default_extraction_horizon(self, degree, space, want):
        assert default_extraction_horizon(degree, space) == want

    def test_black_box_factory_builds_the_same_instance(self):
        # build_instance walks the label trie for rendezvous_program and runs
        # any other factory per label; both must agree
        wrapped = lambda label: rendezvous_program(label)  # noqa: E731
        for space, distance in ((16, 2), (2 ** 10, 2)):
            assert (build_instance(wrapped, 6, space, distance)
                    == build_instance(rendezvous_program, 6, space, distance))

    def test_sampled_big_label_space(self):
        inst = build_instance(rendezvous_program, degree=8, label_space=2 ** 40,
                              distance=3, sample_size=32, seed=1)
        assert inst.sampled and inst.labels_examined == 32
        assert verify_frozen_distance(inst) >= inst.agreement_horizon

    def test_equal_label_hook_freezes_forever(self):
        inst = build_instance(rendezvous_program, degree=6, label_space=16, distance=2)
        twin = dataclasses.replace(inst, label2=inst.label1)
        cap = inst.agreement_horizon + 8 * inst.degree  # verify's watch window
        verified = verify_frozen_distance(twin)
        assert verified >= cap  # never deviates within the watch window

    def test_extraction_fidelity_on_numbered_graph(self):
        # while the distance stays frozen, the real engine must replay exactly
        # the exit ports recorded in the virtual world (stays normalized to 0)
        inst = build_instance(rendezvous_program, degree=6, label_space=16, distance=2)
        seqs = {lab: extract_port_sequence(rendezvous_program, lab, inst.degree,
                                           inst.distance, inst.agreement_horizon)
                for lab in (inst.label1, inst.label2)}
        res = run(inst.graph, inst.start1, inst.start2,
                  rendezvous_program(inst.label1), rendezvous_program(inst.label2),
                  SimConfig(round_cap=inst.agreement_horizon, trace_detail="full"))
        for r, row in enumerate(res.trace):
            for port, lab in ((row.port1, inst.label1), (row.port2, inst.label2)):
                norm = port if 1 <= port <= inst.degree else 0
                assert norm == seqs[lab].ports[r], f"round {r}"

    def test_fault_injection_detected(self):
        inst = build_instance(rendezvous_program, degree=6, label_space=16, distance=2)
        g = inst.graph
        degree = inst.degree
        fwd, back = inst.p1, degree + 1 - inst.p1
        # swap the forward/backward roles of the p1 pair at every column-0
        # vertex: an agent starting there walks the wrong way along the ring
        edges = []
        for u, pu, v, pv in g.edges():
            if butterfly_coords(inst.clique_size, u)[1] == 0 and pu in (fwd, back):
                pu = back if pu == fwd else fwd
            if butterfly_coords(inst.clique_size, v)[1] == 0 and pv in (fwd, back):
                pv = back if pv == fwd else fwd
            edges.append((u, pu, v, pv))
        from rvsim import build
        bad = dataclasses.replace(inst, graph=build(g.num_nodes, edges))
        with pytest.raises(HorizonViolatedError):
            verify_frozen_distance(bad)


class TestCaterpillarAdversary:
    def test_forward_spine_edge_gets_highest_port(self):
        g = generate_caterpillar(2, 4, policy="adversarial").graph
        assert g.neighbor(0, 4)[0] == 1
        assert g.neighbor(2, 4)[0] == 1

    def test_random_policy_valid_and_deterministic(self):
        a = generate_caterpillar(3, 5, policy="random", seed=4).graph
        b = generate_caterpillar(3, 5, policy="random", seed=4).graph
        assert a == b

    @pytest.mark.parametrize("d,degree", [(2, 4), (4, 4), (2, 8)])
    def test_meeting_cost_at_least_distance_times_degree(self, d, degree):
        cat = generate_caterpillar(d, degree, policy="adversarial")
        res = run(cat.graph, cat.start1, cat.start2,
                  rendezvous_program(2), rendezvous_program(5),
                  SimConfig(round_cap=10 ** 5, trace_detail="meeting-only"))
        assert res.outcome == "met"
        assert res.rounds >= d * (degree - 1)
