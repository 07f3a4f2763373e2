"""Combinational circuit DAG: gates, nets, topological utilities.

The netlist layer is deliberately simple -- named single-output gates wired
by fan-in lists -- because that is exactly the ISCAS'85 ``.bench`` data
model the paper evaluates on.  Sizing state (per-gate input capacitance) is
carried on the instances so the circuit-level optimizer and the STA engine
share one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cells.gate_types import GateKind, logic_eval, num_inputs


class NetlistError(ValueError):
    """Structural problem in a circuit (dangling net, cycle, arity...)."""


@dataclass
class GateInstance:
    """One gate in a circuit.

    Attributes
    ----------
    name:
        Net name of the gate output (``.bench`` convention: one net per
        gate, named after it).
    kind:
        Logic primitive.
    fanin:
        Ordered input net names (primary inputs or other gate outputs).
    cin_ff:
        Per-input capacitance -- the sizing state.  ``None`` means
        "not yet sized"; the timing layer substitutes the library minimum.
    """

    name: str
    kind: GateKind
    fanin: Tuple[str, ...]
    cin_ff: Optional[float] = None

    def __post_init__(self) -> None:
        expected = num_inputs(self.kind)
        if len(self.fanin) != expected:
            raise NetlistError(
                f"gate {self.name!r} of kind {self.kind} expects {expected} "
                f"inputs, got {len(self.fanin)}"
            )


class Circuit:
    """A combinational netlist: primary I/O plus a DAG of gates."""

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, GateInstance] = {}

    # -- construction -------------------------------------------------

    def add_input(self, name: str) -> str:
        """Declare a primary input net."""
        if name in self.gates:
            raise NetlistError(f"net {name!r} already defined as a gate")
        if name not in self.inputs:
            self.inputs.append(name)
        return name

    def add_output(self, name: str) -> str:
        """Mark a net as a primary output (must exist by validation time)."""
        if name not in self.outputs:
            self.outputs.append(name)
        return name

    def add_gate(
        self,
        name: str,
        kind: GateKind,
        fanin: Sequence[str],
        cin_ff: Optional[float] = None,
    ) -> GateInstance:
        """Add a gate whose output net is ``name``."""
        if name in self.gates:
            raise NetlistError(f"duplicate gate {name!r}")
        if name in self.inputs:
            raise NetlistError(f"net {name!r} already declared as primary input")
        gate = GateInstance(name=name, kind=kind, fanin=tuple(fanin), cin_ff=cin_ff)
        self.gates[name] = gate
        return gate

    # -- structure ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.gates)

    def __contains__(self, net: str) -> bool:
        return net in self.gates or net in self.inputs

    def gate(self, name: str) -> GateInstance:
        """Look up a gate by output net name."""
        try:
            return self.gates[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r}") from None

    def fanout_map(self) -> Dict[str, List[str]]:
        """Net name -> list of gate names it feeds."""
        fanout: Dict[str, List[str]] = {net: [] for net in self.inputs}
        for name in self.gates:
            fanout.setdefault(name, [])
        for gate in self.gates.values():
            for source in gate.fanin:
                fanout.setdefault(source, []).append(gate.name)
        return fanout

    def topological_order(self) -> List[str]:
        """Gate names in topological order; raises on cycles."""
        indegree: Dict[str, int] = {}
        for gate in self.gates.values():
            indegree[gate.name] = sum(1 for f in gate.fanin if f in self.gates)
        ready = [name for name, deg in sorted(indegree.items()) if deg == 0]
        fanout = self.fanout_map()
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for succ in fanout.get(name, ()):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.gates):
            raise NetlistError(f"circuit {self.name!r} contains a combinational cycle")
        return order

    def validate(self) -> List[str]:
        """Check structural sanity: no dangling nets, acyclic, outputs exist.

        Returns the topological order the acyclicity check sorted, so
        callers that validate before walking the circuit sort it once.
        """
        known: Set[str] = set(self.inputs) | set(self.gates)
        for gate in self.gates.values():
            for source in gate.fanin:
                if source not in known:
                    raise NetlistError(
                        f"gate {gate.name!r} reads undefined net {source!r}"
                    )
        for out in self.outputs:
            if out not in known:
                raise NetlistError(f"primary output {out!r} is undefined")
        if not self.outputs:
            raise NetlistError("circuit has no primary outputs")
        return self.topological_order()

    def depth(self) -> int:
        """Maximum logic depth in gate counts."""
        level: Dict[str, int] = {net: 0 for net in self.inputs}
        for name in self.topological_order():
            gate = self.gates[name]
            level[name] = 1 + max((level[f] for f in gate.fanin), default=0)
        return max((level[name] for name in self.gates), default=0)

    def stats(self) -> Dict[str, int]:
        """Gate-count statistics by kind plus totals."""
        counts: Dict[str, int] = {}
        for gate in self.gates.values():
            counts[gate.kind.value] = counts.get(gate.kind.value, 0) + 1
        counts["total_gates"] = len(self.gates)
        counts["inputs"] = len(self.inputs)
        counts["outputs"] = len(self.outputs)
        counts["depth"] = self.depth() if self.gates else 0
        return counts

    # -- fingerprints -------------------------------------------------

    def state_key(self) -> Tuple:
        """Hashable fingerprint of structure *and* sizing.

        Any mutation that can change timing -- topology, gate kinds,
        fan-in order, per-gate sizes -- changes the key, so analyses
        memoized under it can never go stale (the session caches and the
        sweep warm-start memos both rely on this).
        """
        return (
            self.name,
            tuple(self.inputs),
            tuple(self.outputs),
            tuple(
                (gate.name, gate.kind.value, gate.fanin, gate.cin_ff)
                for gate in self.gates.values()
            ),
        )

    def structure_key(self) -> Tuple:
        """The sizing-free prefix of :meth:`state_key`.

        Two circuits with the same structure key differ at most in
        per-gate ``cin_ff`` values -- exactly the precondition for
        re-timing one from the other with an incremental cone update.
        """
        return (
            self.name,
            tuple(self.inputs),
            tuple(self.outputs),
            tuple(
                (gate.name, gate.kind.value, gate.fanin)
                for gate in self.gates.values()
            ),
        )

    # -- behaviour ----------------------------------------------------

    def simulate(self, input_values: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate every net for one input vector."""
        values: Dict[str, bool] = {}
        for net in self.inputs:
            if net not in input_values:
                raise NetlistError(f"missing value for primary input {net!r}")
            values[net] = bool(input_values[net])
        for name in self.topological_order():
            gate = self.gates[name]
            values[name] = logic_eval(gate.kind, [values[f] for f in gate.fanin])
        return values

    def output_values(self, input_values: Mapping[str, bool]) -> Dict[str, bool]:
        """Primary-output slice of :meth:`simulate`."""
        values = self.simulate(input_values)
        return {net: values[net] for net in self.outputs}

    # -- copies -------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep copy (gate instances are re-created)."""
        dup = Circuit(name or self.name)
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        for gate in self.gates.values():
            dup.gates[gate.name] = GateInstance(
                name=gate.name, kind=gate.kind, fanin=gate.fanin, cin_ff=gate.cin_ff
            )
        return dup


def equivalent(
    first: Circuit,
    second: Circuit,
    vectors: Iterable[Mapping[str, bool]],
) -> bool:
    """Whether two circuits agree on every supplied input vector.

    The circuits must share primary input/output names.  Used by the
    restructuring engine to certify De Morgan rewrites.
    """
    if set(first.inputs) != set(second.inputs):
        raise NetlistError("circuits have different primary inputs")
    if set(first.outputs) != set(second.outputs):
        raise NetlistError("circuits have different primary outputs")
    for vector in vectors:
        if first.output_values(vector) != second.output_values(vector):
            return False
    return True


def exhaustive_vectors(inputs: Sequence[str], limit: int = 16):
    """All 2^n vectors for small input counts (n <= limit)."""
    n = len(inputs)
    if n > limit:
        raise ValueError(f"too many inputs for exhaustive enumeration ({n})")
    for code in range(1 << n):
        yield {net: bool((code >> i) & 1) for i, net in enumerate(inputs)}
