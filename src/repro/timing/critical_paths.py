"""K most-critical path extraction and path <-> circuit conversion.

POPS ("Performance Optimization by Path Selection") works on a small,
user-specified number of critical paths (refs. [11-12] of the paper).  We
extract them with a best-first search guided by a reverse potential
computed under the STA slews -- an A*-style enumeration that yields paths
in (near) decreasing delay order -- then re-evaluate each candidate path
exactly and sort.  The potential is a backward max over the arc timings
the STA annotation already holds, so extraction re-times only the arcs
the search itself expands.

Extracted paths are converted to :class:`~repro.timing.path.BoundedPath`
objects: off-path fan-out becomes the fixed ``cside`` loads, the driving
size of the first gate becomes the fixed input capacitance, and the total
external load of the last gate becomes the terminal load -- the bounded
boundary conditions of section 2.2.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cells.library import Library
from repro.netlist.circuit import Circuit
from repro.timing.delay_model import Edge
from repro.timing.evaluation import evaluate_path
from repro.timing.path import BoundedPath, PathStage
from repro.timing.sta import StaResult, analyze, external_loads, gate_sizes


@dataclass(frozen=True)
class ExtractedPath:
    """A gate-name path plus its bounded-path realisation.

    Attributes
    ----------
    gate_names:
        Gates along the path, input side first.
    input_edge:
        Polarity entering the first gate.
    path:
        The bounded-path view used by every optimizer.
    delay_ps:
        Exact eq. 1 delay of the path at the extraction sizing.
    """

    gate_names: Tuple[str, ...]
    input_edge: Edge
    path: BoundedPath
    delay_ps: float


def to_bounded_path(
    circuit: Circuit,
    library: Library,
    gate_names: Sequence[str],
    input_edge: Edge,
    sizes: Optional[Mapping[str, float]] = None,
    output_load_ff: Optional[float] = None,
    input_transition_ps: float = 0.0,
) -> BoundedPath:
    """Freeze a gate-name chain into a bounded path.

    ``sizes`` provides the off-path loading context (defaults to the
    current circuit sizing); the first gate's current size becomes the
    fixed drive.
    """
    if not gate_names:
        raise ValueError("gate_names must be non-empty")
    if sizes is None:
        sizes = gate_sizes(circuit, library)
    loads = external_loads(circuit, library, output_load_ff, sizes)
    return _freeze_path(
        circuit, library, gate_names, input_edge, sizes, loads, input_transition_ps
    )


def _freeze_path(
    circuit: Circuit,
    library: Library,
    gate_names: Sequence[str],
    input_edge: Edge,
    sizes: Mapping[str, float],
    loads: Mapping[str, float],
    input_transition_ps: float,
) -> BoundedPath:
    """:func:`to_bounded_path` under given sizes and gate-output loads."""
    stages: List[PathStage] = []
    for position, name in enumerate(gate_names):
        gate = circuit.gate(name)
        if position + 1 < len(gate_names):
            next_name = gate_names[position + 1]
            next_gate = circuit.gate(next_name)
            if name not in next_gate.fanin:
                raise ValueError(
                    f"{next_name!r} is not a fan-out of {name!r}: not a path"
                )
            cside = loads[name] - sizes[next_name]
        else:
            cside = 0.0
        cell = library.cell(gate.kind)
        stages.append(PathStage(cell=cell, cside_ff=max(cside, 0.0), name=name))

    cterm = loads[gate_names[-1]]
    return BoundedPath(
        stages=tuple(stages),
        cin_first_ff=sizes[gate_names[0]],
        cterm_ff=cterm,
        input_edge=input_edge,
        tin_first_ps=input_transition_ps,
    )


def apply_path_sizes(
    circuit: Circuit, gate_names: Sequence[str], sizes: Sequence[float]
) -> None:
    """Write a path sizing vector back onto the circuit instances."""
    arr = np.asarray(sizes, dtype=float)
    if arr.shape != (len(gate_names),):
        raise ValueError("sizes must match gate_names")
    for name, cin in zip(gate_names, arr):
        circuit.gate(name).cin_ff = float(cin)


def _reverse_potentials(
    outputs: Sequence[str], sta: StaResult
) -> Dict[Tuple[str, Edge], float]:
    """Max remaining delay from (net, edge) to any primary output.

    A backward max over the annotation's arc timings, gates taken in
    reverse topological order: each arc was timed under the STA slew at
    its input pin, which makes the potential a tight (if not strictly
    admissible) heuristic.  A net that reaches no output gets no entry.
    """
    potential: Dict[Tuple[str, Edge], float] = {}
    for net in outputs:
        potential[(net, Edge.RISE)] = 0.0
        potential[(net, Edge.FALL)] = 0.0
    arcs = sta.arcs
    for name in reversed(sta.order):
        for source, in_edge, delay_ps, out_edge in arcs[name]:
            downstream = potential.get((name, out_edge))
            if downstream is None:
                continue
            candidate = delay_ps + downstream
            current = potential.get((source, in_edge))
            if current is None or candidate > current:
                potential[(source, in_edge)] = candidate
    return potential


def k_critical_paths(
    circuit: Circuit,
    library: Library,
    k: int = 1,
    input_transition_ps: float = 0.0,
    output_load_ff: Optional[float] = None,
    max_expansions: int = 200_000,
    sta: Optional[StaResult] = None,
) -> List[ExtractedPath]:
    """Extract the ``k`` most critical paths of a sized circuit.

    Returns them sorted by exact path delay, longest first.  ``k = 1``
    degenerates to the classic critical path.  ``sta`` skips the
    internal full analysis when the caller already holds the circuit's
    current annotation (e.g. an
    :class:`~repro.timing.incremental.IncrementalSta` engine's
    :meth:`~repro.timing.incremental.IncrementalSta.result`); it must
    have been computed under the same transition/load parameters and
    carry its arc timings.
    Either way its ``loads_ff`` also freeze every candidate's side and
    terminal loads, its arc timings and topological order give the
    search potential, and one fan-out map serves the whole search.  The
    circuit is validated by the analysis that produced the annotation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sizes = gate_sizes(circuit, library)
    if sta is None:
        sta = analyze(
            circuit,
            library,
            input_transition_ps=input_transition_ps,
            output_load_ff=output_load_ff,
            sizes=sizes,
        )
    elif sta.arcs is None:
        raise ValueError(
            "sta carries no arc timings; pass IncrementalSta.result(), "
            "not the return value of update()"
        )
    loads = sta.loads_ff
    fanout = circuit.fanout_map()
    potential = _reverse_potentials(circuit.outputs, sta)

    counter = itertools.count()
    heap: List[Tuple[float, int, str, Edge, float, float, Tuple[str, ...]]] = []
    for net in circuit.inputs:
        for edge in (Edge.RISE, Edge.FALL):
            pot = potential.get((net, edge))
            if pot is None:
                continue
            heapq.heappush(
                heap,
                (-pot, next(counter), net, edge, 0.0, input_transition_ps, ()),
            )

    output_set = set(circuit.outputs)
    backend = library.delay_backend
    results: List[ExtractedPath] = []
    seen_paths: set = set()
    expansions = 0
    # Collect extra candidates: the heuristic is approximate, so over-pull
    # then exact-sort.
    want = max(k * 3, k + 2)
    while heap and len(results) < want and expansions < max_expansions:
        neg_priority, _, net, edge, arrival, slew, prefix = heapq.heappop(heap)
        expansions += 1
        is_gate = net in circuit.gates
        if is_gate and net in output_set:
            if prefix not in seen_paths:
                seen_paths.add(prefix)
                first_edge = _path_input_edge(circuit, library, prefix, edge)
                bounded = _freeze_path(
                    circuit,
                    library,
                    prefix,
                    first_edge,
                    sizes,
                    loads,
                    input_transition_ps,
                )
                exact = evaluate_path(
                    bounded, [sizes[g] for g in prefix], library
                ).total_delay_ps
                results.append(
                    ExtractedPath(
                        gate_names=prefix,
                        input_edge=first_edge,
                        path=bounded,
                        delay_ps=exact,
                    )
                )
        for succ in fanout.get(net, ()):
            gate = circuit.gates[succ]
            cell = library.cell(gate.kind)
            timing = backend.gate_timing(
                cell, library.tech, sizes[succ], loads[succ], slew, edge
            )
            pot = potential.get((succ, timing.output_edge))
            if pot is None and succ not in output_set:
                continue
            new_arrival = arrival + timing.delay_ps
            priority = new_arrival + (pot or 0.0)
            heapq.heappush(
                heap,
                (
                    -priority,
                    next(counter),
                    succ,
                    timing.output_edge,
                    new_arrival,
                    timing.tout_ps,
                    prefix + (succ,),
                ),
            )

    results.sort(key=lambda p: p.delay_ps, reverse=True)
    return results[:k]


def _path_input_edge(
    circuit: Circuit, library: Library, gate_names: Sequence[str], last_edge: Edge
) -> Edge:
    """Recover the path-entry polarity from the polarity at the last output."""
    edge = last_edge
    for name in reversed(gate_names):
        cell = library.cell(circuit.gate(name).kind)
        if cell.inverting:
            edge = edge.flipped
    return edge


def critical_path(
    circuit: Circuit,
    library: Library,
    input_transition_ps: float = 0.0,
    output_load_ff: Optional[float] = None,
    sta: Optional[StaResult] = None,
) -> ExtractedPath:
    """The single most critical path (convenience wrapper)."""
    paths = k_critical_paths(
        circuit,
        library,
        k=1,
        input_transition_ps=input_transition_ps,
        output_load_ff=output_load_ff,
        sta=sta,
    )
    if not paths:
        raise ValueError(f"no paths found in circuit {circuit.name!r}")
    return paths[0]
