"""Netlist-level buffer insertion: polarity-preserving inverter pairs.

The path-level experiments follow the paper's polarity-free convention
(single inverters); writing an insertion back onto a *netlist* must keep
the logic intact, so the circuit driver inserts inverter pairs: the
flagged gate's entire fan-out (and its primary-output role, if any) moves
behind the pair, realising the same load dilution.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.netlist.circuit import Circuit
from repro.timing.incremental import IncrementalSta


def insert_buffer_pair(
    circuit: Circuit,
    gate_name: str,
    library: Optional[Library] = None,
    cin_ff: Optional[float] = None,
) -> Tuple[str, str]:
    """Insert an inverter pair after ``gate_name`` (in place).

    Every reader of ``gate_name`` -- fan-out gates and the primary-output
    list -- is reconnected to the pair's output, so the original gate
    drives only the first inverter.  Returns the two inverter net names.

    ``cin_ff`` sizes both inverters (defaults to four reference inverters
    when a library is given, otherwise unsized).
    """
    gate = circuit.gate(gate_name)  # raises on unknown names
    first = f"{gate_name}_bufa"
    second = f"{gate_name}_bufb"
    if first in circuit.gates or second in circuit.gates:
        raise ValueError(f"{gate_name!r} already carries an inserted pair")

    if cin_ff is None and library is not None:
        cin_ff = 4.0 * library.cref

    # Rewire the readers first (the pair must not read itself).
    for reader in circuit.gates.values():
        if gate_name in reader.fanin:
            reader.fanin = tuple(
                second if net == gate_name else net for net in reader.fanin
            )
    circuit.add_gate(first, GateKind.INV, [gate_name], cin_ff=cin_ff)
    circuit.add_gate(second, GateKind.INV, [first], cin_ff=cin_ff)
    if gate_name in circuit.outputs:
        circuit.outputs = [
            second if net == gate_name else net for net in circuit.outputs
        ]
    circuit.validate()
    return first, second


def remove_buffer_pair(circuit: Circuit, gate_name: str) -> None:
    """Exact inverse of :func:`insert_buffer_pair` (in place).

    The pair's readers -- fan-out gates and any primary-output slot --
    are reconnected to ``gate_name`` and both inverters are deleted,
    restoring the pre-insertion netlist (gate insertion order of the
    surviving gates included, so a from-scratch STA of the restored
    circuit is bit-identical to one that never saw the trial).
    """
    circuit.gate(gate_name)  # raises on unknown names
    first = f"{gate_name}_bufa"
    second = f"{gate_name}_bufb"
    if first not in circuit.gates or second not in circuit.gates:
        raise ValueError(f"{gate_name!r} carries no inserted pair")
    del circuit.gates[first]
    del circuit.gates[second]
    for reader in circuit.gates.values():
        if second in reader.fanin:
            reader.fanin = tuple(
                gate_name if net == second else net for net in reader.fanin
            )
    if second in circuit.outputs:
        circuit.outputs = [
            gate_name if net == second else net for net in circuit.outputs
        ]
    circuit.validate()


def trial_buffer_pairs(
    circuit: Circuit,
    library: Library,
    candidates: Sequence[str],
    engine: Optional[IncrementalSta] = None,
    cin_ff: Optional[float] = None,
) -> Dict[str, float]:
    """Critical delay with a buffer pair trial-inserted after each candidate.

    Each candidate is inserted, re-timed incrementally (structure
    refresh plus the pair's fan-out cone -- not a full STA) and undone
    before the next trial.  The circuit and the engine leave exactly as
    they arrived -- *including* when a re-timing or removal raises
    mid-trial: the in-flight pair is unwound and the engine re-synced
    before the exception propagates.  Returns ``candidate -> critical
    delay (ps)``.
    """
    if engine is None:
        engine = IncrementalSta(circuit, library)
    elif engine.circuit is not circuit:
        raise ValueError("engine must track the probed circuit")
    delays: Dict[str, float] = {}
    try:
        for name in candidates:
            insert_buffer_pair(circuit, name, library, cin_ff=cin_ff)
            try:
                delays[name] = engine.refresh_structure().critical_delay_ps
            finally:
                remove_buffer_pair(circuit, name)
    finally:
        engine.refresh_structure()
    return delays


def reduce_delay_with_buffers(
    circuit: Circuit,
    library: Library,
    limits: Optional[Dict] = None,
    max_insertions: int = 8,
    engine: Optional[IncrementalSta] = None,
) -> Tuple[Circuit, Tuple[str, ...], float]:
    """Greedy netlist-level load dilution: trial, keep the best, repeat.

    Each round flags the gates whose fan-out ratio exceeds their
    ``Flimit`` (:func:`~repro.buffering.insertion.overloaded_gates`),
    trial-inserts a polarity-preserving pair after each flagged gate and
    keeps the single insertion that lowers the circuit's critical delay
    most.  Rounds repeat until no trial helps or ``max_insertions`` is
    reached.  Mutates ``circuit`` in place; returns it with the names of
    the buffered gates and the final critical delay.
    """
    from repro.buffering.insertion import default_flimits, overloaded_gates

    if limits is None:
        limits = default_flimits(library)
    if engine is None:
        engine = IncrementalSta(circuit, library)
    elif engine.circuit is not circuit:
        raise ValueError("engine must track the probed circuit")
    inserted: List[str] = []
    best_delay = engine.critical_delay_ps
    while len(inserted) < max_insertions:
        flagged = [
            name
            for name in overloaded_gates(circuit, library, limits, sta=engine.result())
            if "_buf" not in name and f"{name}_bufa" not in circuit.gates
        ]
        if not flagged:
            break
        trials = trial_buffer_pairs(circuit, library, flagged, engine=engine)
        winner = min(trials, key=lambda name: trials[name])
        if trials[winner] >= best_delay - 1e-9:
            break
        insert_buffer_pair(circuit, winner, library)
        best_delay = engine.refresh_structure().critical_delay_ps
        inserted.append(winner)
    return circuit, tuple(inserted), best_delay
