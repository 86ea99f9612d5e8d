"""Deterministic rendezvous programs for two distance-aware agents.

A program is a state machine with explicit, copyable state: the engine feeds
it one Observation per round and gets back the port to take (0, or anything
outside 1..degree, means stay put this round). Control flow between rounds is
free; only moves consume rounds. Programs may compare consecutive distance
readings but never see node identities, so the same code runs under exact
readings and under increase/decrease/same readings alike.

The rendezvous strategy, built from three sub-machines:

* a port test sweep: try ports 1..delta in order, hopping back after every
  try that did not strictly shrink the distance; report success on the first
  shrinking round, staying where that move landed;
* a degree-bounding loop: idle through geometrically growing windows, then
  run one full sweep sized past the local degree -- two agents doing this in
  lockstep discover whether their degrees share a dyadic bucket without any
  communication;
* a label-bit comparison: walk the bits of the agent's padded label, sweeping
  on 1-bits and idling on 0-bits, until the two agents' bits first differ;
  the padding guarantees a differing bit within twice the shorter bit length.

The main loop bounds degrees while it keeps paying off, compares labels once
to pick a single mover, then lets the mover close the remaining distance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

from .oracle import DistanceDelta


class Observation(NamedTuple):
    """What an agent learns at the start of a round.

    ``arrival_port`` is 0 when the agent stayed put last round, else the entry
    port of the edge it traversed. ``distance_reading`` is the exact hop count
    or a DistanceDelta, depending on the engine's oracle mode.
    """

    degree: int
    arrival_port: int
    distance_reading: int | DistanceDelta


# An action is just the chosen port number; 0 or out-of-range means stay.
Action = int

# bound once: an Enum member read through its class is a slow attribute lookup
_DECREASED = DistanceDelta.DECREASED


def label_bit_length(label: int) -> int:
    """Bits of a label, counting label 0 as the one-bit string '0'."""
    if label < 0:
        raise ValueError("labels are non-negative")
    return label.bit_length() or 1


def extended_bit(label: int, j: int) -> int | None:
    """Bit ``j`` (1-based) of the label's extended label, or None past its end:
    source bits (most significant first) at odd positions, the terminating 1
    at position 2k, zeros at the other even positions."""
    k = label.bit_length() or 1
    if j > 2 * k:
        return None
    if j % 2:
        return (label >> (k - (j + 1) // 2)) & 1
    return 1 if j == 2 * k else 0


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive argument")
    return (x - 1).bit_length()


def degree_class(d: int) -> int:
    """Dyadic degree bucket: 0 for degree 1, else j with 2**(j-1) < d <= 2**j."""
    return ceil_log2(d)


# ----------------------------------------------------------------------------
# the strategy as one explicit state machine
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcEvent:
    """Sub-machine boundary marker for trace-level verification."""

    round: int
    proc: str
    kind: str  # "enter" | "exit"
    info: tuple


# What the next observation answers (AgentProgram._stage).
_START = 0  # the first observation starts the outermost sub-machine
_SWEEP = 1  # a port sweep; its position in rounds says what the observation answers
_READ = 2   # paused on a label read; only unlabelled programs, see supply_bit

# What happens when the current degree-bounding call returns (AgentProgram._phase).
_FIRST = 0    # bound again while it succeeds
_COMPARE = 1  # walking the extended label's bits
_FINAL = 2    # bound forever with the bit the comparison chose


class AgentProgram:
    """One agent as an explicit, copyable state machine.

    ``step`` takes one Observation and returns the port to take. All control
    flow between rounds happens inside one step; only moves consume rounds.
    The state is the strategy's phase, the current sweep (liveness ``live``,
    the round ``t0`` of its first try, the round ``end`` = t0 + 2*delta that
    ends it, the observation before its last try, and ``until``), the
    degree-bounding call around it (flag ``b``, sweep ``level``, ``top``
    level) and the extended-label position ``j`` read last. The sweep's
    position is the number of rounds since ``t0``: an odd position answers a
    try, an even one makes the next try, or ends the sweep at ``end``.

    Most rounds of the strategy are quiet: an idle sweep stays put, and while
    the observation does not change, each of its rounds answers the same way.
    So ``until`` is the round that ends an idle sweep whose last try read no
    decrease (else 0), and a step given the very observation object of that
    try before then stays put at once. The same object carries the same
    reading, which is neither below itself nor a decrease, so the answer is
    the one the full step would give.

    The label is read in one transition only: starting bit ``j`` of the label
    comparison asks for extended position ``j`` and gets 0, 1 or None (past
    the end). A program built without a label pauses there: ``pending_bit``
    names ``j`` and ``supply_bit`` finishes the paused step. ``fork`` copies
    the state, so extraction over many labels steps each shared prefix once.

    With ``record_events`` the program logs a ProcEvent as each sub-machine
    call enters and exits, so tests check the lemmas on the strategy itself.
    Build programs with ``rendezvous_program``.
    """

    __slots__ = ("_stage", "_phase", "_label", "_round", "_events", "_live", "_t0",
                 "_end", "_until", "_before", "_b", "_level", "_top", "_j")

    def __init__(self, label: int | None = None, record_events: bool = False):
        if label is not None and label < 0:
            raise ValueError("labels are non-negative")
        self._stage = _START
        self._phase = _FIRST
        self._label = label
        self._round = 0
        self._events: list[ProcEvent] | None = [] if record_events else None
        self._live = self._t0 = self._end = self._until = 0
        self._level = self._top = self._j = 0
        self._b = 1  # the first loop bounds degrees with a live top sweep
        # before the sweep's last try; while paused, the observation to resume from
        self._before: Observation | None = None

    @property
    def events(self) -> list[ProcEvent] | None:
        return self._events

    @property
    def rounds_seen(self) -> int:
        return self._round

    @property
    def pending_bit(self) -> int:
        """Extended-label position a paused program waits for, else 0."""
        return self._j if self._stage == _READ else 0

    def fork(self) -> AgentProgram:
        """An independent copy of the whole state, events included."""
        twin = copy.copy(self)
        if self._events is not None:
            twin._events = list(self._events)
        return twin

    def step(self, obs: Observation) -> Action:
        rnd = self._round
        if rnd < self._until and obs is self._before:  # a quiet round of an idle sweep
            self._round = rnd + 1
            return 0
        if self._stage == _SWEEP:
            p = rnd - self._t0
            if p & 1:
                # One round separates the two readings, so under delta readings
                # the strict comparison collapses to "the last round decreased".
                reading = obs.distance_reading
                if (reading is _DECREASED if isinstance(reading, DistanceDelta)
                        else reading < self._before.distance_reading):
                    port = self._probe_done(True, obs)
                else:
                    port = obs.arrival_port * self._live  # retrace the same edge
            elif rnd < self._end:
                self._before = obs
                if self._live:
                    port = (p >> 1) + 1
                else:
                    port = 0
                    self._until = 0 if obs.distance_reading is _DECREASED else self._end
            else:
                port = self._probe_done(False, obs)
        elif self._stage == _START:
            port = self._bound(self._b, obs)
        else:
            raise RuntimeError(f"label bit {self._j} was never supplied")
        if port is None:  # paused on a label read: no move this step
            return 0
        self._round = rnd + 1
        return port

    def supply_bit(self, bit: int | None) -> Action:
        """Answer a paused label read (0, 1 or None past the end) and finish
        the step it paused."""
        if self._stage != _READ:
            raise RuntimeError("no label read is pending")
        port = self._read(bit, self._before)
        if port is None:
            return 0
        self._round += 1
        return port

    # -- transitions; each returns the port to emit, or None ----------------

    def _log(self, proc: str, kind: str, *info) -> None:
        # sweeps and degree-bounding calls start and end every few rounds, so
        # their sites test _events first: a call that logs nothing still costs
        if self._events is not None:
            self._events.append(ProcEvent(self._round, proc, kind, info))

    def _probe(self, delta: int, live: int, obs: Observation) -> Action | None:
        """Port sweep: try ports 1..delta (times ``live``), undoing every try
        that did not get closer. Success on the first round whose post-move
        distance is strictly below its pre-move distance, staying at the
        post-move node; else failure after exactly 2*delta rounds. With
        live=0 every move is a stay, so the sweep only watches for the peer."""
        if self._events is not None:
            self._log("probe_ports", "enter", delta, live)
        rnd = self._round
        end = rnd + 2 * delta
        self._live, self._t0, self._end, self._before = live, rnd, end, obs
        self._until = 0 if live or obs.distance_reading is _DECREASED else end
        self._stage = _SWEEP
        return live

    def _probe_done(self, s: bool, obs: Observation) -> Action | None:
        if self._events is not None:
            self._log("probe_ports", "exit", s)
        level = self._level
        if s or level == self._top:
            if self._events is not None:
                self._log("bound_degrees", "exit", s)
            return self._bound_done(s, obs)
        level += 1
        self._level = level
        return self._probe(1 << level, self._b if level == self._top else 0, obs)

    def _bound(self, b: int, obs: Observation) -> Action | None:
        """Degree bounding: idle sweeps of sizes 1, 2, .., then one sweep of
        liveness ``b`` past the local degree.

        Two agents entering this in the same round keep identical phase timing
        while neither succeeds; a joint failure therefore certifies their
        degrees share a dyadic bucket, and opposite b values at same-bucket
        nodes force a joint success (the mover covers all its ports while the
        peer holds still). Full-failure duration is 2**(ceil_log2(deg)+2) - 2
        rounds.
        """
        top = ceil_log2(obs.degree)
        if self._events is not None:
            self._log("bound_degrees", "enter", b, obs.degree)
        self._b, self._top, self._level = b, top, 0
        return self._probe(1, b if top == 0 else 0, obs)

    def _bound_done(self, s: bool, obs: Observation) -> Action | None:
        phase = self._phase
        if phase == _FIRST:
            if s:
                return self._bound(1, obs)
            self._phase = _COMPARE
            return self._compare(obs)
        if phase == _FINAL:
            return self._bound(self._b, obs)
        if s:  # comparing labels: bit j produced the first success
            self._log("compare_labels", "exit", self._b, self._j)
            return self._compare_done(self._b, obs)
        return self._next_bit(obs)

    def _compare(self, obs: Observation) -> Action | None:
        """Label comparison: degree-bound with each extended-label bit as the
        liveness flag and return the bit that first produced a success.

        When both agents run this side by side from a joint failure, rounds
        stay aligned and the first success lands exactly at the distinguishing
        bit position, handing the two agents opposite bits in the same round.
        If nothing ever succeeds (no peer, or a frozen distance), fall through
        to 1 so the caller still gets a total answer.
        """
        self._log("compare_labels", "enter")
        self._j = 0
        return self._next_bit(obs)

    def _next_bit(self, obs: Observation) -> Action | None:
        self._j += 1
        if self._label is None:
            self._before = obs
            self._stage = _READ
            return None
        return self._read(extended_bit(self._label, self._j), obs)

    def _read(self, bit: int | None, obs: Observation) -> Action | None:
        if bit is None:
            self._log("compare_labels", "exit", 1, None)
            return self._compare_done(1, obs)
        return self._bound(bit, obs)

    def _compare_done(self, bit: int, obs: Observation) -> Action | None:
        self._phase = _FINAL
        return self._bound(bit, obs)


def rendezvous_program(label: int | None, record_events: bool = False) -> AgentProgram:
    """The full strategy for one agent; runs until the engine halts it.
    ``label=None`` gives the unlabelled program that trie extraction forks."""
    return AgentProgram(label, record_events)

# ----------------------------------------------------------------------------
# round-count bounds
# ----------------------------------------------------------------------------

def rendezvous_round_bound(max_degree: int, start_distance: int,
                           label1: int, label2: int) -> int:
    """Explicit-constant worst-case rounds for the rendezvous strategy.

    One degree-bounding call lasts at most 8*max_degree rounds; the first
    loop pays for at most start_distance+1 calls, the label comparison for at
    most 2*min_bits+1, and the mover's final approach for start_distance more.
    Those calls sum to 8*max_degree*(2D+2k+2) with D = start_distance and
    k = min_bits, but this returns the stated, looser 8*max_degree*(2D+4k+3),
    the bound the gate and the sweep's analytic_cap column check. Whether to
    tighten it is left to the roadmap item on where the rounds go.
    """
    k_min = min(label_bit_length(label1), label_bit_length(label2))
    return 8 * max_degree * (2 * start_distance + 4 * k_min + 3)


def default_round_cap(max_degree: int, start_distance: int,
                      label1: int, label2: int) -> int:
    """Comfortable engine cap for algorithm runs, hard-ceilinged at 1e6."""
    k_max = max(label_bit_length(label1), label_bit_length(label2))
    return min(16 * max_degree * (start_distance + 2 * k_max + 4), 10 ** 6)
