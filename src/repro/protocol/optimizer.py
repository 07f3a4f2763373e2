"""The POPS optimization protocol (Fig. 7) -- path and circuit drivers.

The protocol, verbatim from the paper:

1. **Library characterisation**: tabulate ``Flimit`` for every gate pair.
2. **Optimization-space characterisation**: classify paths, compute the
   delay bounds ``Tmax`` / ``Tmin``.
3. **Constraint distribution**:

   * ``Tc < Tmin``          -> structure modification (buffers, then De
     Morgan rewriting) until the constraint becomes feasible;
   * weak constraint        -> gate sizing (constant sensitivity);
   * medium constraint      -> buffer insertion for area reduction
     (kept only if it actually reduces the implementation area);
   * hard constraint        -> buffer insertion & global sizing.

The circuit driver applies the path protocol to the K most critical
paths, re-extracting after each pass (path interaction through the side
loads), until the circuit's critical delay meets the constraint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.buffering.insertion import (
    default_flimits,
    distribute_with_buffers,
    min_delay_with_buffers,
)
from repro.cells.library import Library
from repro.netlist.circuit import Circuit, GateInstance
from repro.obs.telemetry import OptimizerTelemetry, PassTelemetry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.protocol.domains import (
    ConstraintDomain,
    DomainClassification,
    classify_constraint,
)
from repro.resilience.policy import checkpoint
from repro.restructuring.demorgan import (
    distribute_with_restructuring,
    restructurable_stages,
)
from repro.sizing.bounds import min_delay_bound, tmin_memo
from repro.sizing.sensitivity import distribute_constraint
from repro.timing.critical_paths import apply_path_sizes, k_critical_paths
from repro.timing.incremental import IncrementalSta
from repro.timing.path import BoundedPath


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of the Fig. 7 protocol on one path.

    Attributes
    ----------
    method:
        The technique the protocol selected: ``"sizing"``,
        ``"buffering"``, ``"buffering+sizing"`` or ``"restructuring"``.
    path / sizes:
        The final (possibly structurally modified) implementation.
    area_um:
        Full implementation cost, including any off-path inverters
        introduced by restructuring.
    domain:
        The constraint classification that drove the selection.
    feasible:
        Whether the returned implementation meets ``Tc``.
    """

    method: str
    domain: DomainClassification
    path: BoundedPath
    sizes: np.ndarray
    delay_ps: float
    area_um: float
    tc_ps: float
    feasible: bool
    tmin_ps: float

    @property
    def slack_ps(self) -> float:
        """Constraint slack of the returned implementation (ps)."""
        return self.tc_ps - self.delay_ps


def optimize_path(
    path: BoundedPath,
    library: Library,
    tc_ps: float,
    limits: Optional[Dict] = None,
    allow_restructuring: bool = True,
    weight_mode: str = "uniform",
    conserve_structure: bool = False,
    tmin_ps: Optional[float] = None,
) -> ProtocolResult:
    """Run the full Fig. 7 protocol on one bounded path.

    ``conserve_structure`` keeps the path's gate list intact whenever the
    constraint is reachable by sizing alone (the circuit driver uses it so
    results can be written back onto the netlist; structural help is then
    applied at the netlist level).  ``tmin_ps`` lets callers that already
    ran the eq. 4 fixed point on this exact path (the Session facade, a
    Tc-sweep) skip recomputing it for the domain classification.
    """
    if tc_ps <= 0:
        raise ValueError("tc_ps must be positive")
    if limits is None:
        limits = default_flimits(library)

    if tmin_ps is not None:
        tmin = tmin_ps
    else:
        tmin, _, _, _ = min_delay_bound(path, library)
    classification = classify_constraint(tc_ps, tmin)
    domain = classification.domain

    if conserve_structure and domain in (
        ConstraintDomain.MEDIUM,
        ConstraintDomain.HARD,
    ):
        result = distribute_constraint(path, library, tc_ps, weight_mode=weight_mode)
        if result.feasible:
            return ProtocolResult(
                method="sizing",
                domain=classification,
                path=path,
                sizes=result.sizes,
                delay_ps=result.achieved_delay_ps,
                area_um=result.area_um,
                tc_ps=tc_ps,
                feasible=True,
                tmin_ps=tmin,
            )

    if domain is ConstraintDomain.WEAK:
        result = distribute_constraint(path, library, tc_ps, weight_mode=weight_mode)
        return ProtocolResult(
            method="sizing",
            domain=classification,
            path=path,
            sizes=result.sizes,
            delay_ps=result.achieved_delay_ps,
            area_um=result.area_um,
            tc_ps=tc_ps,
            feasible=result.feasible,
            tmin_ps=tmin,
        )

    if domain is ConstraintDomain.MEDIUM:
        plain = distribute_constraint(path, library, tc_ps, weight_mode=weight_mode)
        buffered, buffered_path, inserted = distribute_with_buffers(
            path, library, tc_ps, limits=limits, mode="global",
            weight_mode=weight_mode,
        )
        # Buffers are kept only when they reduce the implementation area.
        if inserted and buffered.feasible and buffered.area_um < plain.area_um:
            return ProtocolResult(
                method="buffering",
                domain=classification,
                path=buffered_path,
                sizes=buffered.sizes,
                delay_ps=buffered.achieved_delay_ps,
                area_um=buffered.area_um,
                tc_ps=tc_ps,
                feasible=buffered.feasible,
                tmin_ps=tmin,
            )
        return ProtocolResult(
            method="sizing",
            domain=classification,
            path=path,
            sizes=plain.sizes,
            delay_ps=plain.achieved_delay_ps,
            area_um=plain.area_um,
            tc_ps=tc_ps,
            feasible=plain.feasible,
            tmin_ps=tmin,
        )

    if domain is ConstraintDomain.HARD:
        buffered, buffered_path, inserted = distribute_with_buffers(
            path, library, tc_ps, limits=limits, mode="global",
            weight_mode=weight_mode,
        )
        if buffered.feasible:
            return ProtocolResult(
                method="buffering+sizing" if inserted else "sizing",
                domain=classification,
                path=buffered_path,
                sizes=buffered.sizes,
                delay_ps=buffered.achieved_delay_ps,
                area_um=buffered.area_um,
                tc_ps=tc_ps,
                feasible=True,
                tmin_ps=tmin,
            )
        # Fall through to structure modification.

    # Infeasible by sizing alone: structure modification.
    buffered_min = min_delay_with_buffers(path, library, limits=limits, mode="global")
    if buffered_min.delay_ps <= tc_ps:
        result = distribute_constraint(
            buffered_min.path, library, tc_ps, weight_mode=weight_mode
        )
        return ProtocolResult(
            method="buffering+sizing",
            domain=classification,
            path=buffered_min.path,
            sizes=result.sizes,
            delay_ps=result.achieved_delay_ps,
            area_um=result.area_um,
            tc_ps=tc_ps,
            feasible=result.feasible,
            tmin_ps=tmin,
        )

    if allow_restructuring and restructurable_stages(path):
        result, rewritten = distribute_with_restructuring(
            path, library, tc_ps, limits=limits, weight_mode=weight_mode
        )
        return ProtocolResult(
            method="restructuring",
            domain=classification,
            path=rewritten.path,
            sizes=result.sizes,
            delay_ps=result.achieved_delay_ps,
            area_um=result.area_um + rewritten.side_inverter_area_um,
            tc_ps=tc_ps,
            feasible=result.feasible,
            tmin_ps=tmin,
        )

    # Nothing met Tc: return the best (buffered minimum-delay) attempt.
    return ProtocolResult(
        method="buffering+sizing",
        domain=classification,
        path=buffered_min.path,
        sizes=buffered_min.sizes,
        delay_ps=buffered_min.delay_ps,
        area_um=buffered_min.area_um,
        tc_ps=tc_ps,
        feasible=buffered_min.delay_ps <= tc_ps,
        tmin_ps=tmin,
    )


def _apply_structural_outcome(
    working: Circuit,
    library: Library,
    candidate,
    outcome: ProtocolResult,
) -> bool:
    """Write a structure-modifying path outcome back onto the netlist.

    Buffered stages (``<gate>_buf<i>`` names) become polarity-preserving
    inverter pairs after the flagged gate; De Morgan rewrites
    (``<gate>_dm*`` names) apply the netlist-level NOR -> NAND transform.
    The surviving original gates then receive their optimized sizes.
    """
    from repro.buffering.netlist_insertion import insert_buffer_pair
    from repro.restructuring.demorgan import demorgan_nor_to_nand

    original = set(candidate.gate_names)
    touched = False
    buffered_gates = set()
    rewritten_gates = set()
    for stage in outcome.path.stages:
        if stage.name in original:
            continue
        base = stage.name
        if "_buf" in base:
            buffered_gates.add(base.split("_buf")[0])
        elif "_dm" in base:
            rewritten_gates.add(base.split("_dm")[0])
    for name in sorted(buffered_gates):
        if name in working.gates and f"{name}_bufa" not in working.gates:
            insert_buffer_pair(working, name, library)
            touched = True
    for name in sorted(rewritten_gates):
        gate = working.gates.get(name)
        if gate is not None and gate.kind.value.startswith("nor"):
            rewritten = demorgan_nor_to_nand(working, name)
            working.gates = rewritten.gates
            working.outputs = rewritten.outputs
            touched = True
    # Keep the original gates' optimized sizes where they survived.
    for stage, cin in zip(outcome.path.stages, outcome.sizes):
        if stage.name in original and stage.name in working.gates:
            working.gates[stage.name].cin_ff = float(cin)
            touched = True
    return touched


@dataclass
class WarmStart:
    """Carry-over state for warm-starting a sweep over one benchmark.

    Passing the same instance to consecutive :func:`optimize_circuit`
    calls on copies of one netlist lets each call reuse what earlier
    calls computed instead of recomputing it:

    * ``bounds_memo`` -- eq. 4 fixed-point solves
      (:func:`~repro.sizing.bounds.min_delay_bound`) keyed by library
      and path fingerprint; constraint points work on largely identical
      candidate paths, and a path's ``Tmin`` does not depend on ``Tc``.
      Activated via :func:`~repro.sizing.bounds.tmin_memo` around the
      whole run, so the sizing/buffering/restructuring layers all share
      it; a Session activates it around the whole job, so the job's
      delay-bounds solve shares it too.  The
      activation is a context variable: it is visible only to the thread
      (or asyncio task) running this call, so concurrent runs in one
      process each see their own memo.
    * ``extraction_memo`` -- K-critical-path extractions keyed by exact
      circuit state; every sweep point starts from the same netlist
      state, so the first pass's extraction is shared verbatim.

    Every memo serves values that are pure functions of their key --
    warm-started results are therefore *identical* to cold ones, not
    merely close (the sweep determinism tests assert byte equality of
    the record payloads).

    A warm start is **bound to one library**: the first
    :func:`optimize_circuit` call pins ``library``, and later calls with
    a different one are rejected -- the memos' values embed that
    library's characterisation, and the extraction memo's keys do not
    name the library (the eq. 4 memo's keys carry
    :meth:`~repro.cells.library.Library.fingerprint`).
    """

    bounds_memo: Dict[Tuple, Tuple] = field(default_factory=dict)
    extraction_memo: Dict[Tuple, List] = field(default_factory=dict)
    library: Optional[Library] = None


@dataclass
class CircuitOptimizationResult:
    """Outcome of the circuit-level driver.

    Attributes
    ----------
    critical_delay_ps:
        Post-optimization STA critical delay.
    path_results:
        Per-pass path protocol outcomes, in application order.
    passes:
        Number of extract-optimize-reapply rounds executed.
    rescued_gates:
        Gates that received a netlist-level buffer pair in the opt-in
        ``rescue_buffers`` endgame (empty unless it ran and helped).
    telemetry:
        The pass-by-pass :class:`~repro.obs.telemetry.OptimizerTelemetry`
        of the run (delay trajectory, move accounting, rollback and
        rescue outcomes).  Always collected by :func:`optimize_circuit`;
        carried outside the serialized payload (the envelope's optional
        ``telemetry`` block), so payload bytes are unchanged.
    """

    circuit: Circuit
    tc_ps: float
    critical_delay_ps: float
    feasible: bool
    path_results: List[ProtocolResult] = field(default_factory=list)
    passes: int = 0
    rescued_gates: Tuple[str, ...] = ()
    telemetry: Optional[OptimizerTelemetry] = None


def optimize_circuit(
    circuit: Circuit,
    library: Library,
    tc_ps: float,
    k_paths: int = 4,
    max_passes: int = 6,
    limits: Optional[Dict] = None,
    weight_mode: str = "uniform",
    allow_restructuring: bool = True,
    warm: Optional[WarmStart] = None,
    rescue_buffers: bool = False,
    tracer: Optional[Tracer] = None,
    engine: Optional[IncrementalSta] = None,
) -> CircuitOptimizationResult:
    """Apply the path protocol over a circuit's critical paths.

    Pure sizing decisions are written back onto the netlist; passes where
    the protocol had to modify the structure keep the sizing of the
    original gates (structural write-back is the caller's choice, since
    it changes net names).  Iterates until the STA critical delay meets
    ``Tc`` or the improvement stalls.

    ``warm`` carries pure-function memos between calls of a Tc-sweep
    (see :class:`WarmStart`); it changes only how much work is re-done,
    never the result.  ``engine`` (optional) is an incremental engine
    under ``library`` and default boundary conditions whose circuit is
    a private copy of ``circuit``: the run takes both over as its
    working copy and engine instead of copying ``circuit`` and running
    a full build (a Session passes a copy of its cached engine, which
    already annotates the job's start state).

    ``rescue_buffers`` (opt-in) adds a netlist-level endgame when the
    path protocol alone leaves ``Tc`` unmet: greedy
    :func:`~repro.buffering.netlist_insertion.reduce_delay_with_buffers`
    rounds on the rolled-back best state, each trial scored by an
    incremental re-timing.  Insertions are kept only when they lower the
    critical delay, so the default (``False``) and any non-improving run
    leave the result unchanged.

    ``tracer`` (optional) records ``optimize.pass`` / ``optimize.path``
    spans on an enabled :class:`repro.obs.Tracer`; pass-level
    :class:`~repro.obs.telemetry.OptimizerTelemetry` is collected
    unconditionally (its cost is a few integers per pass) and attached
    to the returned result.  Neither changes the optimization outcome.
    """
    if limits is None:
        limits = default_flimits(library)
    if warm is not None:
        # The memos embed one library's characterisation; reusing them
        # under another would serve wrong extractions/bounds silently.
        if warm.library is None:
            warm.library = library
        elif warm.library is not library:
            raise ValueError(
                "WarmStart is bound to a different library; "
                "use one WarmStart per library"
            )
    # One incremental engine tracks ``working`` for the whole run: each
    # pass re-times only the fan-out cones of the gates it touched
    # instead of re-running full STA (bit-identical by construction).
    if engine is None:
        working = circuit.copy()
        engine = IncrementalSta(working, library)
    elif engine.library is not library or engine.circuit is circuit:
        raise ValueError(
            "engine must time a private copy of the circuit under this library"
        )
    else:
        working = engine.circuit
    results: List[ProtocolResult] = []
    passes = 0
    # The run owns the engine's tracer attachment: enabled tracers see
    # ``sta.update`` spans, anything else resets a possibly stale
    # attachment on an engine the caller handed over.
    trc = tracer if tracer is not None and tracer.enabled else None
    engine.tracer = trc
    span_tracer = trc if trc is not None else NULL_TRACER

    def extract(first_pass: bool) -> List:
        # Only the *first* pass starts from a state shared across sweep
        # points (the pristine benchmark); later passes carry Tc-specific
        # sizing, so memoizing them would grow the warm state with
        # full-circuit keys that can essentially never hit again.
        if warm is None or not first_pass:
            return k_critical_paths(working, library, k=k_paths, sta=engine.result())
        key = (working.state_key(), k_paths)
        cached = warm.extraction_memo.get(key)
        if cached is None:
            cached = k_critical_paths(
                working, library, k=k_paths, sta=engine.result()
            )
            warm.extraction_memo[key] = cached
        return cached

    # The best state seen so far covers *structure and sizes*: a pass
    # after the snapshot may insert buffers or apply a De Morgan rewrite,
    # and rolling back only the sizes would corrupt the returned circuit
    # (orphaned buffers kept, rewritten gates missing -- the restore bug
    # this driver used to have).
    best_state = working.copy()
    best_delay = engine.critical_delay_ps
    stalled_passes = 0
    telemetry = OptimizerTelemetry(
        tc_ps=tc_ps, initial_delay_ps=engine.critical_delay_ps
    )
    best_pass = 0  # pass index whose end state is the best seen (0 = initial)
    # A warm run shares the eq. 4 fixed-point memo with every pure path
    # solver below this frame (sizing, buffering, restructuring); cold
    # runs (memo None) compute everything in place, identically.
    with tmin_memo(warm.bounds_memo if warm is not None else None):
        for _ in range(max_passes):
            if best_delay <= tc_ps:
                break
            checkpoint()  # a stopped job raises between passes and paths
            passes += 1
            pass_started = time.perf_counter()
            pass_t = PassTelemetry(
                index=passes - 1, critical_delay_ps=float(best_delay)
            )
            with span_tracer.span("optimize.pass", index=passes - 1):
                extracted = extract(first_pass=passes == 1)
                pass_t.paths_extracted = len(extracted)
                progressed = False
                # Path outcomes within a pass never read the engine (they
                # work on the extraction-time path snapshots), so sizing
                # write-backs are batched into one cone update per pass
                # instead of one per candidate -- bit-identical by the
                # incremental-STA contract, since ``working`` carries every
                # size the moment it is applied.
                pending_updates: List[str] = []
                for candidate in extracted:
                    if candidate.delay_ps <= tc_ps:
                        pass_t.skipped += 1
                        continue
                    checkpoint()
                    pass_t.proposed += 1
                    with span_tracer.span(
                        "optimize.path", delay_ps=float(candidate.delay_ps)
                    ) as path_span:
                        outcome = optimize_path(
                            candidate.path,
                            library,
                            tc_ps,
                            limits=limits,
                            allow_restructuring=allow_restructuring,
                            weight_mode=weight_mode,
                            conserve_structure=True,
                        )
                        path_span.set(
                            method=outcome.method,
                            feasible=bool(outcome.feasible),
                        )
                    results.append(outcome)
                    if len(outcome.path) == len(candidate.path):
                        apply_path_sizes(
                            working, candidate.gate_names, outcome.sizes
                        )
                        pending_updates.extend(candidate.gate_names)
                        pass_t.applied_sizing += 1
                        progressed = True
                    else:
                        if _apply_structural_outcome(
                            working, library, candidate, outcome
                        ):
                            # A structure refresh re-times from ``working``
                            # wholesale, subsuming any pending size updates.
                            engine.refresh_structure()
                            pending_updates.clear()
                            pass_t.applied_structural += 1
                            progressed = True
                if pending_updates:
                    engine.update(tuple(pending_updates))
                pass_t.critical_delay_ps = float(engine.critical_delay_ps)
                pass_t.elapsed_s = time.perf_counter() - pass_started
                telemetry.passes.append(pass_t)
            if not progressed:
                break
            # Sizing one path reloads adjacent paths (the interaction the
            # paper warns about).  A pass may regress transiently -- the
            # next extraction then targets the newly critical side path --
            # so keep the best state seen and only stop after two stalled
            # passes.
            delay_now = engine.critical_delay_ps
            if delay_now < best_delay - 1e-6:
                best_delay = delay_now
                best_state = working.copy()
                best_pass = passes
                stalled_passes = 0
            else:
                stalled_passes += 1
                if stalled_passes >= 2:
                    break

    # "Same structure" is exactly the structure-key invariant: equal gate
    # insertion order (load sums follow fan-out-map order), kinds, fan-in
    # and outputs -- only per-gate sizing may differ.
    if working.structure_key() == best_state.structure_key():
        # Pure-sizing rollback: feed the engine exactly the gates whose
        # size moved since the best snapshot, so the final re-time pays
        # only their fan-out cones (passing every gate name would make
        # the engine diff the whole circuit -- an O(circuit) update that
        # defeats the cone-limited design).
        changed = []
        for name, gate in best_state.gates.items():
            if working.gates[name].cin_ff != gate.cin_ff:
                working.gates[name].cin_ff = gate.cin_ff
                changed.append(name)
        final = engine.update(changed)
        telemetry.rollback = "sizing" if changed else "none"
    else:
        # Structural rollback: rebuild the gate table from the snapshot
        # (insertion order included) and let the engine diff both ways.
        working.gates = {
            gate.name: GateInstance(
                name=gate.name,
                kind=gate.kind,
                fanin=gate.fanin,
                cin_ff=gate.cin_ff,
            )
            for gate in best_state.gates.values()
        }
        working.outputs = list(best_state.outputs)
        final = engine.refresh_structure()
        telemetry.rollback = "structural"
    if telemetry.rollback != "none":
        telemetry.rolled_back_passes = passes - best_pass

    # Opt-in endgame: when the path protocol alone cannot meet Tc, try
    # netlist-level load dilution on the best state.  The greedy rounds
    # keep an insertion only when it strictly lowers the critical delay,
    # so a fruitless rescue changes nothing.
    rescued: Tuple[str, ...] = ()
    if rescue_buffers and final.critical_delay_ps > tc_ps:
        from repro.buffering.netlist_insertion import reduce_delay_with_buffers

        delay_before_rescue = float(final.critical_delay_ps)
        with span_tracer.span("optimize.rescue") as rescue_span:
            _, rescued, _ = reduce_delay_with_buffers(
                working, library, limits=limits, engine=engine
            )
            if rescued:
                final = engine.result()
            rescue_span.set(gates=len(rescued))
        telemetry.rescue = {
            "attempted": True,
            "gates": [str(name) for name in rescued],
            "delay_before_ps": delay_before_rescue,
            "delay_after_ps": float(final.critical_delay_ps),
        }

    telemetry.final_delay_ps = float(final.critical_delay_ps)
    return CircuitOptimizationResult(
        circuit=working,
        tc_ps=tc_ps,
        critical_delay_ps=final.critical_delay_ps,
        feasible=final.critical_delay_ps <= tc_ps,
        path_results=results,
        passes=passes,
        rescued_gates=rescued,
        telemetry=telemetry,
    )
