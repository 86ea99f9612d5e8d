"""Constructive worst-case instances.

Against any deterministic program factory, the pipeline here builds a
clique-ring graph and a pair of labels that provably freeze the inter-agent
distance: record each label's port choices in a port-indistinguishable world
(for the rendezvous strategy over the trie of its label reads, so labels that
share a prefix share its simulation), pick the two port pairs the programs use
most rarely, reserve those pairs for the bridge edges between adjacent
cliques, and select two labels whose forward/backward/stay patterns agree on a
long prefix. While the patterns agree the two agents shift columns in unison,
so every distance reading is useless.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .agents import (AgentProgram, Observation, ceil_log2, extended_bit,
                     rendezvous_program)
from .graphs import (InvalidParamsError, PortGraph, _check_butterfly_params, build,
                     butterfly_index)
from .oracle import DistanceOracle
from .sim import SimConfig, run

ProgramFactory = Callable[[int], AgentProgram]

CLASS_FORWARD = ord("A")
CLASS_BACKWARD = ord("B")
CLASS_STAY = ord("C")


class DegenerateDeltaError(InvalidParamsError):
    """Degree too small to reserve two distinct port pairs."""


class HorizonViolatedError(RuntimeError):
    """Simulated distance deviated before the promised horizon."""


@dataclass(frozen=True)
class PortSequence:
    """Exit ports of one label over the extraction horizon, one byte per
    round; out-of-range actions are normalized to 0 (they are stays)."""

    label: int
    ports: bytes


def _frozen_world(degree: int, frozen_distance: int, horizon: int):
    """Check the extraction parameters and return the first observation and
    ``record(out, port)``, which appends the port to ``out`` (out-of-range
    ports as 0) and returns the observation the next round starts with."""
    if degree % 2 != 0:
        raise InvalidParamsError("paired port numbering needs an even degree")
    if degree > 255:
        raise InvalidParamsError("extraction stores ports as bytes; degree must be <= 255")
    if horizon < 1:
        raise InvalidParamsError("horizon must be >= 1")
    comp = degree + 1
    obs_by_arrival = tuple(Observation(degree, a, frozen_distance) for a in range(comp))
    stay_obs = obs_by_arrival[0]

    def record(out: bytearray, x: int) -> Observation:
        if 1 <= x <= degree:
            out.append(x)
            return obs_by_arrival[comp - x]
        out.append(0)
        return stay_obs

    return stay_obs, record


def extract_port_sequence(make_program: ProgramFactory, label: int, degree: int,
                          frozen_distance: int, horizon: int) -> PortSequence:
    """Record a program's first ``horizon`` exit ports in a virtual world
    where every node has ``degree`` ports paired as q <-> degree+1-q and the
    distance reading never moves off ``frozen_distance``.

    Runs ``make_program(label)`` as a black box: the path for factories whose
    programs cannot fork, and the reference for ``extract_port_sequences``."""
    obs, record = _frozen_world(degree, frozen_distance, horizon)
    step = make_program(label).step
    out = bytearray()
    for _ in range(horizon):
        obs = record(out, step(obs))
    return PortSequence(label, bytes(out))


def extract_port_sequences(labels: Iterable[int], degree: int, frozen_distance: int,
                           horizon: int) -> dict[bytes, list[int]]:
    """Map each distinct ``extract_port_sequence(rendezvous_program, label,
    ...).ports`` to the labels that emit it, in no promised order.

    One unlabelled rendezvous program walks the trie of label reads through
    the frozen world. Where it asks for extended bit ``j``, the labels still
    on its path are split by that bit (0, 1 or past the end) and the program
    is forked once per part, so every shared prefix is stepped once.
    """
    start, record = _frozen_world(degree, frozen_distance, horizon)
    groups: dict[bytes, list[int]] = {}
    # (program, ports so far, labels on this path, next observation)
    stack = [(rendezvous_program(None), bytearray(), labels, start)]
    while stack:
        prog, out, members, obs = stack.pop()
        while len(out) < horizon:
            port = prog.step(obs)
            j = prog.pending_bit
            if j:
                parts: dict[int | None, list[int]] = {}
                for label in members:
                    parts.setdefault(extended_bit(label, j), []).append(label)
                for bit, part in parts.items():
                    child, child_out = prog.fork(), bytearray(out)
                    stack.append((child, child_out, part,
                                  record(child_out, child.supply_bit(bit))))
                break
            obs = record(out, port)
        else:
            groups.setdefault(bytes(out), []).extend(members)
    return groups


def choose_ports(groups: Mapping[bytes, Sequence[int]], degree: int) -> tuple[int, int, dict]:
    """Pick the two port pairs the recorded programs touch least, counting
    every label of each sequence in ``groups``.

    Returns ``(p1, p2, survivors)``: the sub-dict of sequences whose touch
    count of {p1, p2, degree+1-p1, degree+1-p2} is at most 8t/degree.
    Averaging guarantees at least half the labels survive.
    """
    if degree % 2 != 0:
        raise InvalidParamsError("need an even degree")
    half = degree // 2
    if half < 2:
        raise DegenerateDeltaError(f"degree {degree} has fewer than two port pairs")
    n = sum(map(len, groups.values()))
    if not n:
        raise InvalidParamsError("no labels given")
    t = len(next(iter(groups)))
    if any(len(ports) != t for ports in groups):
        raise InvalidParamsError("sequences must share one horizon")

    totals = [0] * (half + 1)
    for ports, labels in groups.items():
        for p in range(1, half + 1):
            totals[p] += len(labels) * (ports.count(p) + ports.count(degree + 1 - p))
    ranked = sorted(range(1, half + 1), key=lambda p: (totals[p], p))
    p1, p2 = sorted(ranked[:2])

    special = (p1, p2, degree + 1 - p1, degree + 1 - p2)
    survivors = {ports: labels for ports, labels in groups.items()
                 if degree * sum(ports.count(x) for x in special) <= 8 * t}
    if 2 * sum(map(len, survivors.values())) < n:
        raise RuntimeError("averaging bound broken: fewer than half the labels survive")
    return p1, p2, survivors


def class_table(degree: int, p1: int, p2: int) -> bytes:
    """Translate table mapping a port byte to its move class: forward (A),
    backward (B), or stays-in-clique (C, including port 0)."""
    table = bytearray([CLASS_STAY] * 256)
    table[p1] = table[p2] = CLASS_FORWARD
    table[degree + 1 - p1] = table[degree + 1 - p2] = CLASS_BACKWARD
    return bytes(table)


def find_label_pair(groups: Mapping[bytes, Sequence[int]], degree: int,
                    p1: int, p2: int) -> tuple[int, int, int]:
    """Label pair whose class strings share the longest common prefix.

    Returns ``(label1, label2, prefix_length)`` with label1 < label2. The
    maximum is found as if the ``(class string, label)`` pairs were sorted and
    neighbours scanned; ties resolve to the first sorted position. Each port
    sequence in ``groups`` is translated once and its labels merged by class
    string: a class of two or more labels agrees on its whole string, and a
    class boundary pairs the previous class's largest label with the next's
    smallest.
    """
    if sum(map(len, groups.values())) < 2:
        raise InvalidParamsError("need at least two labels to pair")
    table = class_table(degree, p1, p2)
    classes: dict[bytes, list[int]] = {}
    for ports, labels in groups.items():
        classes.setdefault(ports.translate(table), []).extend(labels)
    best_len, best_pair = -1, (0, 0)
    prev: tuple[bytes, int] | None = None  # previous class's string and largest label
    for s in sorted(classes):
        labels = sorted(classes[s])
        if prev is not None:
            ps, pl = prev
            lcp = next((i for i, (x, y) in enumerate(zip(ps, s)) if x != y),
                       min(len(ps), len(s)))
            if lcp > best_len:
                best_len, best_pair = lcp, (min(pl, labels[0]), max(pl, labels[0]))
        if len(labels) > 1 and len(s) > best_len:
            best_len, best_pair = len(s), (labels[0], labels[1])
        prev = s, labels[-1]
    return best_pair[0], best_pair[1], best_len


# ----------------------------------------------------------------------------
# paired numbering of the clique-ring graph
# ----------------------------------------------------------------------------

def hamiltonian_cycles(k: int) -> list[list[int]]:
    """Split K_k (odd k) into (k-1)/2 edge-disjoint Hamiltonian cycles.

    Rotation construction: zig-zag path on vertices 0..k-2 closed through the
    fixed vertex k-1, rotated (k-1)/2 times.
    """
    if k < 3 or k % 2 == 0:
        raise InvalidParamsError(f"need odd k >= 3, got {k}")
    m = (k - 1) // 2
    base = [0]
    for t in range(1, 2 * m):
        base.append((t + 1) // 2 if t % 2 else 2 * m - t // 2)
    return [[k - 1] + [(s + j) % (2 * m) for s in base] for j in range(m)]


def number_butterfly(clique_size: int, columns: int, p1: int, p2: int) -> PortGraph:
    """Clique-ring graph with fully paired ports (port_u + port_v = degree+1).

    Exit ports p1/p2 always step one column forward, their complements one
    column back, and each remaining pair rides one oriented Hamiltonian cycle
    of the local clique.
    """
    k, p = clique_size, columns
    _check_butterfly_params(k, p)
    degree = k + 3
    half = degree // 2
    if not (1 <= p1 <= half and 1 <= p2 <= half and p1 != p2):
        raise InvalidParamsError(f"need distinct pair ids in 1..{half}, got ({p1}, {p2})")
    spare = [q for q in range(1, half + 1) if q not in (p1, p2)]
    cycles = hamiltonian_cycles(k)
    edges = []
    for j in range(p):
        jn = (j + 1) % p
        base, base_next = j * k, jn * k
        for i in range(k):
            edges.append((base + i, p1, base_next + (2 * i) % k, degree + 1 - p1))
            edges.append((base + i, p2, base_next + (2 * i + 1) % k, degree + 1 - p2))
        for q, cycle in zip(spare, cycles):
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                edges.append((base + a, q, base + b, degree + 1 - q))
    return build(k * p, edges)


def is_paired_numbering(g: PortGraph) -> bool:
    dmax = g.max_degree
    if any(g.degree(v) != dmax for v in range(g.num_nodes)):
        return False
    return all(pu + pv == dmax + 1 for _, pu, _, pv in g.edges())


# ----------------------------------------------------------------------------
# end-to-end instance construction and verification
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversaryInstance:
    degree: int
    clique_size: int
    columns: int
    label_space: int
    distance: int
    p1: int
    p2: int
    label1: int
    label2: int
    graph: PortGraph
    start1: int
    start2: int
    agreement_horizon: int    # prefix length exhibited by the chosen pair
    guaranteed_horizon: int   # max j with degree**(2j) <= L, times floor(degree/8)
    extraction_horizon: int
    labels_examined: int
    sampled: bool


def _whole_blocks(degree: int, label_space: int) -> int:
    """Largest ``j`` with ``degree**(2j) <= label_space``, in integers, so
    exact powers are not rounded down."""
    if degree < 2:
        raise InvalidParamsError(f"degree must be at least 2, got {degree}")
    blocks = 0
    while degree ** (2 * (blocks + 1)) <= label_space:
        blocks += 1
    return blocks


def guaranteed_horizon(degree: int, label_space: int) -> int:
    """Largest ``j`` with ``degree**(2j) <= label_space``, times ``degree // 8``."""
    return _whole_blocks(degree, label_space) * (degree // 8)


def default_extraction_horizon(degree: int, label_space: int) -> int:
    """Least ``b`` with ``degree**(2b) >= label_space``, times
    ``ceil(degree / 8)``, plus one degree-bounding call's ``8 * degree``."""
    blocks = _whole_blocks(degree, label_space)
    if degree ** (2 * blocks) < label_space:
        blocks += 1
    return blocks * ((degree + 7) // 8) + 8 * degree


EXPLICIT_LABEL_CAP = 2 ** 20
DEFAULT_SAMPLE_SIZE = 1024


def build_instance(make_program: ProgramFactory, degree: int, label_space: int,
                   distance: int, sample_size: int | None = None,
                   seed: int = 0, horizon: int | None = None) -> AdversaryInstance:
    """Full pipeline: extract every label's port sequence, reserve the rare
    port pairs, pick the longest-agreeing label pair, and number the graph.

    The rendezvous strategy is extracted over its label trie
    (``extract_port_sequences``); any other factory runs once per label.

    Label spaces above 2**20 are sampled (``sample_size`` labels drawn
    deterministically from ``seed``; default 1024). Pass ``sample_size``
    explicitly to sample smaller spaces too.
    """
    k = degree - 3
    if k < 3 or k % 2 == 0:
        raise InvalidParamsError(f"degree must be an odd clique size + 3, got {degree}")
    if label_space < 2:
        raise InvalidParamsError("need a label space of at least 2")
    if distance < ceil_log2(k):
        raise InvalidParamsError(
            f"distance {distance} below ceil(log2({k})) = {ceil_log2(k)}")

    if sample_size is None and label_space > EXPLICIT_LABEL_CAP:
        sample_size = DEFAULT_SAMPLE_SIZE
    if sample_size is not None:
        if sample_size < 2:
            raise InvalidParamsError("sample_size must be >= 2")
        rng = random.Random(seed)
        want = min(sample_size, label_space)
        drawn: set[int] = set()
        while len(drawn) < want:
            drawn.add(rng.randrange(label_space))
        labels = sorted(drawn)
    else:
        labels = range(label_space)

    t = horizon if horizon is not None else default_extraction_horizon(degree, label_space)
    if make_program is rendezvous_program:
        groups = extract_port_sequences(labels, degree, distance, t)
    else:
        groups = {}
        for lab in labels:
            ports = extract_port_sequence(make_program, lab, degree, distance, t).ports
            groups.setdefault(ports, []).append(lab)
    p1, p2, survivors = choose_ports(groups, degree)
    label1, label2, t_star = find_label_pair(survivors, degree, p1, p2)

    columns = 2 * (distance + ceil_log2(k))
    graph = number_butterfly(k, columns, p1, p2)
    return AdversaryInstance(
        degree=degree, clique_size=k, columns=columns, label_space=label_space,
        distance=distance, p1=p1, p2=p2, label1=label1, label2=label2,
        graph=graph,
        start1=butterfly_index(k, 0, 0), start2=butterfly_index(k, 0, distance),
        agreement_horizon=t_star,
        guaranteed_horizon=guaranteed_horizon(degree, label_space),
        extraction_horizon=t, labels_examined=len(labels),
        sampled=sample_size is not None)


def verify_frozen_distance(instance: AdversaryInstance,
                           extra_rounds: int | None = None) -> int:
    """Run the real engine on the built instance and count the leading rounds
    whose start-of-round distance equals the planned distance.

    Raises HorizonViolatedError if the count falls short of the instance's
    agreement horizon: that would mean extraction or numbering is unfaithful.
    """
    slack = extra_rounds if extra_rounds is not None else 8 * instance.degree
    cap = instance.agreement_horizon + slack
    result = run(instance.graph, instance.start1, instance.start2,
                 rendezvous_program(instance.label1), rendezvous_program(instance.label2),
                 SimConfig(round_cap=cap, oracle_mode="exact", trace_detail="full"))
    # a run's rows share one distance, so the first differing row starts a run
    verified = next((head.round for head, _ in result.trace.runs()
                     if head.dist != instance.distance), None)
    if verified is None:
        final = DistanceOracle(instance.graph).distance(result.final1, result.final2)
        verified = len(result.trace) + (final == instance.distance)
    if verified < instance.agreement_horizon:
        raise HorizonViolatedError(
            f"distance deviated in round {verified}, before the promised "
            f"{instance.agreement_horizon}")
    return verified
