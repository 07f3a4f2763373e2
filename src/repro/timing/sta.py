"""Static timing analysis on sized circuit DAGs.

Polarity-aware block-based STA using the eq. 1 delay model: every net
carries separate rising/falling arrival times and transition times; gate
arcs map input polarity to output polarity through the cell's inversion
property.  Loads are assembled from the fan-out input capacitances plus a
configurable primary-output (register) load, exactly the bounded-path
boundary conditions of the paper lifted to whole circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cells.library import Library
from repro.netlist.circuit import Circuit, GateInstance
from repro.netlist.wireload import WireLoadModel
from repro.timing.delay_model import Edge


#: One timed fan-in arc of a gate: ``(driving net, input edge, delay ps,
#: output edge)``, exactly as :func:`propagate_gate` timed it.
ArcTiming = Tuple[str, Edge, float, Edge]


@dataclass(frozen=True)
class ArrivalEvent:
    """Latest arrival of one polarity at a net."""

    time_ps: float
    transition_ps: float
    #: (driving net, input edge at that driver) or None at primary inputs.
    cause: Optional[Tuple[str, Edge]] = None


@dataclass
class StaResult:
    """Full-circuit timing annotation.

    Attributes
    ----------
    arrivals:
        ``net -> {Edge -> ArrivalEvent}``.
    loads_ff:
        External load seen by each gate output.
    critical_delay_ps:
        Worst arrival over all primary outputs and polarities.
    critical_output:
        The (net, edge) achieving it.
    arcs:
        ``gate -> (ArcTiming, ...)``: every fan-in arc of the gate, timed
        under its driver's arrival transition, in propagation order.
        ``None`` on the result of
        :meth:`~repro.timing.incremental.IncrementalSta.update`, which
        leaves the O(circuit) copy to
        :meth:`~repro.timing.incremental.IncrementalSta.result`.
    order:
        The gates in the topological order the validated circuit was
        timed in (never mutated in place).  K-path extraction takes its
        reverse potentials from ``arcs`` in this order instead of
        re-sorting and re-timing the circuit.
    """

    arrivals: Dict[str, Dict[Edge, ArrivalEvent]]
    loads_ff: Dict[str, float]
    critical_delay_ps: float
    critical_output: Tuple[str, Edge]
    arcs: Optional[Dict[str, Tuple[ArcTiming, ...]]]
    order: List[str]

    def arrival(self, net: str, edge: Edge) -> float:
        """Arrival time of ``edge`` at ``net`` (ps)."""
        return self.arrivals[net][edge].time_ps


def gate_sizes(circuit: Circuit, library: Library) -> Dict[str, float]:
    """Current per-gate input capacitance, defaulting to the cell minimum."""
    sizes: Dict[str, float] = {}
    for gate in circuit.gates.values():
        cell = library.cell(gate.kind)
        sizes[gate.name] = (
            gate.cin_ff if gate.cin_ff is not None else cell.cin_min(library.tech)
        )
    return sizes


def gate_external_load(
    sinks: Sequence[str],
    sizes: Mapping[str, float],
    is_output: bool,
    output_load_ff: float,
    wire_model: Optional["WireLoadModel"] = None,
) -> float:
    """External load (fF) of one gate output.

    The single-gate kernel shared by :func:`external_loads` and the
    incremental engine; both must sum the fan-out capacitances in the
    same (fan-out map) order so their results stay bit-identical.
    """
    load = sum(sizes[succ] for succ in sinks)
    n_sinks = len(sinks)
    if is_output:
        load += output_load_ff
        n_sinks += 1
    if wire_model is not None:
        load += wire_model.wire_cap_ff(n_sinks)
    return load


def external_loads(
    circuit: Circuit,
    library: Library,
    output_load_ff: Optional[float] = None,
    sizes: Optional[Mapping[str, float]] = None,
    wire_model: Optional["WireLoadModel"] = None,
) -> Dict[str, float]:
    """External load (fF) at every gate output.

    Fan-out gate input capacitances, plus ``output_load_ff`` on every
    primary output net (default: four reference inverters -- a register
    input), plus -- when a :class:`~repro.netlist.wireload.WireLoadModel`
    is supplied -- the fan-out based routing estimate.
    """
    if output_load_ff is None:
        output_load_ff = 4.0 * library.cref
    if sizes is None:
        sizes = gate_sizes(circuit, library)
    fanout = circuit.fanout_map()
    output_set = set(circuit.outputs)
    return {
        name: gate_external_load(
            fanout.get(name, ()), sizes, name in output_set, output_load_ff, wire_model
        )
        for name in circuit.gates
    }


def propagate_gate(
    gate: GateInstance,
    library: Library,
    size_ff: float,
    load_ff: float,
    arrivals: Mapping[str, Dict[Edge, ArrivalEvent]],
) -> Tuple[Dict[Edge, ArrivalEvent], Tuple[ArcTiming, ...]]:
    """Latest arrival events at one gate output, plus its timed arcs.

    The per-gate propagation kernel of block-based STA, shared verbatim
    by :func:`analyze` and :class:`~repro.timing.incremental.IncrementalSta`
    so a cone re-propagation reproduces the full run bit for bit
    (including the strict ``>`` tie-breaking and dict insertion order).
    Each arc is timed through the library's delay backend; the analytic
    backend delegates straight to
    :func:`~repro.timing.delay_model.gate_delay`, keeping the default
    stack bit-identical to the pre-backend code.  The second element
    records every arc's delay and output edge (see
    :attr:`StaResult.arcs`).
    """
    cell = library.cell(gate.kind)
    backend = library.delay_backend
    tech = library.tech
    best: Dict[Edge, ArrivalEvent] = {}
    arcs: List[ArcTiming] = []
    for source in gate.fanin:
        for in_edge, event in arrivals[source].items():
            timing = backend.gate_timing(
                cell,
                tech,
                size_ff,
                load_ff,
                event.transition_ps,
                in_edge,
            )
            arcs.append((source, in_edge, timing.delay_ps, timing.output_edge))
            candidate = ArrivalEvent(
                time_ps=event.time_ps + timing.delay_ps,
                transition_ps=timing.tout_ps,
                cause=(source, in_edge),
            )
            current = best.get(timing.output_edge)
            if current is None or candidate.time_ps > current.time_ps:
                best[timing.output_edge] = candidate
    return best, tuple(arcs)


def critical_endpoint(
    arrivals: Mapping[str, Dict[Edge, ArrivalEvent]],
    outputs: Sequence[str],
) -> Tuple[float, Tuple[str, Edge]]:
    """Worst arrival over the primary outputs (shared selection kernel)."""
    critical_time = -1.0
    critical: Tuple[str, Edge] = ("", Edge.RISE)
    for net in outputs:
        for edge, event in arrivals[net].items():
            if event.time_ps > critical_time:
                critical_time = event.time_ps
                critical = (net, edge)
    if critical_time < 0:
        raise ValueError("circuit has no timed outputs")
    return critical_time, critical


def analyze(
    circuit: Circuit,
    library: Library,
    input_transition_ps: float = 0.0,
    output_load_ff: Optional[float] = None,
    sizes: Optional[Mapping[str, float]] = None,
    wire_model: Optional["WireLoadModel"] = None,
) -> StaResult:
    """Run polarity-aware STA; returns arrivals and the critical delay."""
    order = circuit.validate()
    if sizes is None:
        sizes = gate_sizes(circuit, library)
    loads = external_loads(circuit, library, output_load_ff, sizes, wire_model)

    arrivals: Dict[str, Dict[Edge, ArrivalEvent]] = {}
    for net in circuit.inputs:
        arrivals[net] = {
            Edge.RISE: ArrivalEvent(0.0, input_transition_ps),
            Edge.FALL: ArrivalEvent(0.0, input_transition_ps),
        }

    arcs: Dict[str, Tuple[ArcTiming, ...]] = {}
    for name in order:
        arrivals[name], arcs[name] = propagate_gate(
            circuit.gates[name], library, sizes[name], loads[name], arrivals
        )

    critical_time, critical = critical_endpoint(arrivals, circuit.outputs)
    return StaResult(
        arrivals=arrivals,
        loads_ff=loads,
        critical_delay_ps=critical_time,
        critical_output=critical,
        arcs=arcs,
        order=order,
    )


def trace_critical_gates(result: StaResult, circuit: Circuit) -> List[str]:
    """Backtrack the critical path; returns gate names input-side first."""
    net, edge = result.critical_output
    chain: List[str] = []
    while net in circuit.gates:
        chain.append(net)
        event = result.arrivals[net][edge]
        if event.cause is None:
            break
        source, in_edge = event.cause
        net, edge = source, in_edge
    chain.reverse()
    return chain
