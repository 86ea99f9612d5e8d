"""Rendezvous of two distance-aware agents on anonymous port-labelled graphs:
graph generators, an exact distance oracle, the agent strategy, a lockstep
round engine, and worst-case instance builders."""

from .graphs import (
    CaterpillarGraph,
    DisconnectedError,
    DuplicatePortError,
    GraphError,
    GraphFormatError,
    InfeasibleParamsError,
    InvalidParamsError,
    PortGapError,
    PortGraph,
    bfs_distances,
    build,
    butterfly_coords,
    butterfly_index,
    caterpillar_node_count,
    generate_butterfly,
    generate_caterpillar,
    generate_random_connected,
    generate_ring,
    graph_from_text,
    horizontal_distance,
    load_graph,
    save_graph,
)
from .oracle import DistanceDelta, DistanceOracle, delta
from .agents import (
    Action,
    AgentProgram,
    Observation,
    ProcEvent,
    ceil_log2,
    default_round_cap,
    degree_class,
    label_bit_length,
    rendezvous_program,
    rendezvous_round_bound,
)
from .sim import (
    CAP,
    MET,
    InvalidStartError,
    RunResult,
    SimConfig,
    Trace,
    TraceFormatError,
    TraceRow,
    read_trace,
    replay_check,
    run,
    trace_header,
    write_trace,
)
from .adversary import (
    AdversaryInstance,
    DegenerateDeltaError,
    HorizonViolatedError,
    PortSequence,
    build_instance,
    choose_ports,
    extract_port_sequence,
    extract_port_sequences,
    find_label_pair,
    guaranteed_horizon,
    hamiltonian_cycles,
    is_paired_numbering,
    number_butterfly,
    verify_frozen_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
