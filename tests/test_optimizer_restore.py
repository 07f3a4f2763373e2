"""Regression tests for the circuit driver's best-state restore.

The driver keeps the best state seen across passes and rolls back to it
before returning.  Historically the snapshot covered only gate *sizes*:
a pass after the best snapshot that modified structure (buffer pairs,
De Morgan rewrites) was silently kept with rolled-back sizes -- a
corrupted "best" circuit.  These tests drive the driver with scripted
path outcomes so a post-best structural pass happens deterministically,
then assert the returned circuit is exactly the best state.  The final
re-time must also stay cone-limited: only the gates whose size actually
changed in the rollback may be handed to the incremental engine.  The
opt-in ``rescue_buffers`` endgame runs on that restored state, so its
contract is pinned here too: off by default, never worse, and kept in
the serialized result.
"""

import numpy as np
import pytest

import repro.protocol.optimizer as opt
from repro.api.serialization import circuit_result_from_dict, circuit_result_to_dict
from repro.cells.gate_types import GateKind
from repro.cells.library import default_library
from repro.iscas.loader import load_benchmark
from repro.netlist.circuit import Circuit
from repro.protocol.domains import classify_constraint
from repro.protocol.optimizer import ProtocolResult, WarmStart, optimize_circuit
from repro.sizing.bounds import min_delay_bound
from repro.timing.incremental import IncrementalSta
from repro.timing.path import BoundedPath, PathStage
from repro.timing.sta import analyze


def _neutral_sizes(stages, library):
    """Per-stage library-minimum sizes: numerically identical to unsized.

    Keeps the scripted outcomes *size-neutral* so the only timing delta
    they introduce is the structural edit itself (which regresses, making
    the pre-edit state the best one -- the scenario under test).
    """
    return np.asarray(
        [library.cell(stage.cell.kind).cin_min(library.tech) for stage in stages]
    )


def _structural_buffer_outcome(path, library, tc_ps):
    """A scripted outcome that asks for a buffer pair after the last gate."""
    inv = library.cell(GateKind.INV)
    last = path.stages[-1].name.split("_buf")[0]
    stages = path.stages + (
        PathStage(cell=inv, cside_ff=0.0, name=f"{last}_buf0"),
    )
    new_path = BoundedPath(
        stages=stages,
        cin_first_ff=path.cin_first_ff,
        cterm_ff=path.cterm_ff,
        input_edge=path.input_edge,
        tin_first_ps=path.tin_first_ps,
    )
    sizes = _neutral_sizes(stages, library)
    tmin, _, _, _ = min_delay_bound(path, library)
    return ProtocolResult(
        method="buffering+sizing",
        domain=classify_constraint(tc_ps, tmin),
        path=new_path,
        sizes=sizes,
        delay_ps=tmin,
        area_um=float(np.sum(sizes)),
        tc_ps=tc_ps,
        feasible=False,
        tmin_ps=tmin,
    )


def _structural_demorgan_outcome(path, library, tc_ps):
    """A scripted outcome that rewrites the path's first NOR via De Morgan."""
    inv = library.cell(GateKind.INV)
    target = next(
        stage for stage in path.stages if stage.cell.kind.value.startswith("nor")
    )
    nand = library.cell(GateKind.NAND2)
    stages = []
    for stage in path.stages:
        if stage is target:
            stages.append(PathStage(cell=inv, cside_ff=0.0, name=f"{target.name}_dm_in0"))
            stages.append(
                PathStage(cell=nand, cside_ff=0.0, name=f"{target.name}_dm_nand")
            )
            stages.append(PathStage(cell=inv, cside_ff=stage.cside_ff, name=target.name))
        else:
            stages.append(stage)
    new_path = BoundedPath(
        stages=tuple(stages),
        cin_first_ff=path.cin_first_ff,
        cterm_ff=path.cterm_ff,
        input_edge=path.input_edge,
        tin_first_ps=path.tin_first_ps,
    )
    sizes = _neutral_sizes(stages, library)
    tmin, _, _, _ = min_delay_bound(path, library)
    return ProtocolResult(
        method="restructuring",
        domain=classify_constraint(tc_ps, tmin),
        path=new_path,
        sizes=sizes,
        delay_ps=tmin,
        area_um=float(np.sum(sizes)),
        tc_ps=tc_ps,
        feasible=False,
        tmin_ps=tmin,
    )


@pytest.fixture()
def nor_chain():
    """A tiny all-NOR netlist (every path stage is rewritable)."""
    c = Circuit("norchain")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("n1", GateKind.NOR2, ["a", "b"])
    c.add_gate("n2", GateKind.NOR2, ["n1", "b"])
    c.add_gate("n3", GateKind.NOR2, ["n2", "a"])
    c.add_output("n3")
    c.validate()
    return c


class TestPostBestStructuralRestore:
    """A structural pass after the best snapshot must be rolled back."""

    def test_buffers_inserted_after_best_are_removed(self, lib, monkeypatch):
        circuit = load_benchmark("fpd")
        baseline = analyze(circuit, lib)
        tc = 0.5 * baseline.critical_delay_ps  # infeasible: passes never meet Tc

        monkeypatch.setattr(
            opt,
            "optimize_path",
            lambda path, library, tc_ps, **kw: _structural_buffer_outcome(
                path, library, tc_ps
            ),
        )
        result = optimize_circuit(circuit, lib, tc, k_paths=1, max_passes=4)

        # The buffer pair regressed the delay, so the best state is the
        # original netlist: same gates, original (unsized) sizes.
        assert set(result.circuit.gates) == set(circuit.gates)
        assert not any("_buf" in name for name in result.circuit.gates)
        assert [g.cin_ff for g in result.circuit.gates.values()] == [
            g.cin_ff for g in circuit.gates.values()
        ]
        assert result.circuit.outputs == circuit.outputs
        # ...and the reported delay is the delay OF the returned circuit.
        fresh = analyze(result.circuit, lib)
        assert result.critical_delay_ps == fresh.critical_delay_ps
        assert result.critical_delay_ps == baseline.critical_delay_ps

    def test_demorgan_rewrite_after_best_is_rolled_back(self, lib, monkeypatch, nor_chain):
        baseline = analyze(nor_chain, lib)
        tc = 0.5 * baseline.critical_delay_ps

        monkeypatch.setattr(
            opt,
            "optimize_path",
            lambda path, library, tc_ps, **kw: _structural_demorgan_outcome(
                path, library, tc_ps
            ),
        )
        result = optimize_circuit(nor_chain, lib, tc, k_paths=1, max_passes=4)

        # Pre-fix this kept the INV/NAND/INV rewrite (and its _dm gates)
        # while rolling back only the snapshotted sizes.
        assert set(result.circuit.gates) == set(nor_chain.gates)
        assert not any("_dm" in name for name in result.circuit.gates)
        assert result.circuit.gates["n2"].kind is GateKind.NOR2
        fresh = analyze(result.circuit, lib)
        assert result.critical_delay_ps == fresh.critical_delay_ps
        assert result.critical_delay_ps == baseline.critical_delay_ps

    def test_improving_structural_pass_is_kept(self, lib):
        """The rollback must not undo structure that IS the best state."""
        circuit = load_benchmark("c432")
        sta = analyze(circuit, lib)
        # Infeasibly tight: the real protocol reaches for structure.
        result = optimize_circuit(
            circuit, lib, 0.55 * sta.critical_delay_ps, k_paths=2, max_passes=3
        )
        fresh = analyze(result.circuit, lib)
        assert result.critical_delay_ps == fresh.critical_delay_ps
        assert result.critical_delay_ps <= sta.critical_delay_ps + 1e-6


class TestFinalUpdateCone:
    """The closing re-time feeds the engine only the gates that changed."""

    def test_final_update_is_not_whole_circuit(self, lib, monkeypatch):
        calls = []

        class RecordingEngine(IncrementalSta):
            def update(self, changed_gates):
                names = list(changed_gates)
                calls.append(len(names))
                return super().update(names)

        monkeypatch.setattr(opt, "IncrementalSta", RecordingEngine)
        circuit = load_benchmark("c432")
        sta = analyze(circuit, lib)
        result = optimize_circuit(
            circuit, lib, 1.05 * sta.critical_delay_ps, k_paths=2, max_passes=4
        )
        assert calls, "driver never updated the engine"
        # Every update -- the final rollback included -- names only path
        # gates / rollback diffs, never the whole netlist (c432 is ~10x
        # larger than any of its critical paths).
        assert max(calls) < len(result.circuit.gates)


class TestWarmStartIdentity:
    """Warm-started runs must be byte-identical to cold runs."""

    def test_warm_results_match_cold(self, lib):
        circuit = load_benchmark("fpd")
        sta = analyze(circuit, lib)
        warm = WarmStart()
        for ratio in (1.6, 1.3, 1.1):
            tc = ratio * sta.critical_delay_ps / 1.8
            hot = optimize_circuit(circuit, lib, tc, warm=warm)
            cold = optimize_circuit(circuit, lib, tc)
            assert circuit_result_to_dict(hot) == circuit_result_to_dict(cold)
        # The memos actually filled up (the speed-up side of the bargain)
        # -- and the extraction memo holds only the shared first-pass
        # state, not one full-circuit key per point per pass.
        assert warm.bounds_memo
        assert len(warm.extraction_memo) == 1

    def test_warm_start_is_bound_to_one_library(self, lib):
        circuit = load_benchmark("fpd")
        warm = WarmStart()
        optimize_circuit(circuit, lib, 1500.0, max_passes=1, warm=warm)
        assert warm.library is lib
        # The memos embed lib's characterisation: another library must
        # not be served from them.
        with pytest.raises(ValueError, match="different library"):
            optimize_circuit(circuit, default_library(), 1500.0, warm=warm)


class TestHandedOverEngine:
    """``optimize_circuit(engine=...)`` runs on the engine's own copy."""

    def test_result_matches_a_fresh_build(self, lib, monkeypatch):
        circuit = load_benchmark("fpd")
        before = circuit.state_key()
        tc = 0.8 * analyze(circuit, lib).critical_delay_ps
        engine = IncrementalSta(circuit.copy(), lib)
        refreshes = []
        real = IncrementalSta.refresh_structure

        def counting(self):
            refreshes.append(self)
            return real(self)

        monkeypatch.setattr(IncrementalSta, "refresh_structure", counting)
        handed = optimize_circuit(circuit, lib, tc, engine=engine)
        handed_refreshes = len(refreshes)
        fresh = optimize_circuit(circuit, lib, tc)
        assert circuit_result_to_dict(handed) == circuit_result_to_dict(fresh)
        assert handed.circuit is engine.circuit
        assert engine.stats.full_builds == 1
        assert circuit.state_key() == before
        # The handed-over engine is already in sync: no re-sync (retarget)
        # beyond the structural edits a fresh build's run makes too.
        assert handed_refreshes == len(refreshes) - handed_refreshes

    def test_engine_over_the_callers_circuit_or_library_is_rejected(self, lib):
        circuit = load_benchmark("fpd")
        with pytest.raises(ValueError, match="private copy"):
            optimize_circuit(circuit, lib, 1500.0, engine=IncrementalSta(circuit, lib))
        other = IncrementalSta(circuit.copy(), default_library(k_ratio=2.5))
        with pytest.raises(ValueError, match="private copy"):
            optimize_circuit(circuit, lib, 1500.0, engine=other)


class TestOptimizerIntegration:
    def test_final_delay_matches_full_sta(self, lib):
        # The consolidated per-pass engine updates must leave the final
        # annotation bit-identical to a from-scratch analysis.
        result = optimize_circuit(
            load_benchmark("c432"), lib, tc_ps=3000.0, max_passes=3
        )
        oracle = analyze(result.circuit, lib)
        assert result.critical_delay_ps == oracle.critical_delay_ps

    def test_rescue_buffers_defaults_off(self, lib):
        plain = optimize_circuit(load_benchmark("fpd"), lib, tc_ps=500.0, max_passes=2)
        assert plain.rescued_gates == ()

    def test_rescue_buffers_only_improves(self, lib):
        plain = optimize_circuit(load_benchmark("fpd"), lib, tc_ps=500.0, max_passes=2)
        rescued = optimize_circuit(
            load_benchmark("fpd"), lib, tc_ps=500.0, max_passes=2, rescue_buffers=True
        )
        assert rescued.critical_delay_ps <= plain.critical_delay_ps
        if rescued.rescued_gates:
            for name in rescued.rescued_gates:
                assert f"{name}_bufa" in rescued.circuit.gates
        oracle = analyze(rescued.circuit, lib)
        assert rescued.critical_delay_ps == oracle.critical_delay_ps

    def test_rescued_gates_round_trip(self, lib):
        result = optimize_circuit(
            load_benchmark("fpd"), lib, tc_ps=500.0, max_passes=2, rescue_buffers=True
        )
        data = circuit_result_to_dict(result)
        back = circuit_result_from_dict(data, lib)
        assert back.rescued_gates == result.rescued_gates
        # Old payloads without the field deserialize to the default.
        data.pop("rescued_gates")
        assert circuit_result_from_dict(data, lib).rescued_gates == ()
