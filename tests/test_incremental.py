"""Incremental STA engine: cone updates vs the full-analysis oracle.

The contract under test is *bit-identity*: after any sequence of sizing
and structural edits, :class:`repro.timing.incremental.IncrementalSta`
must hold exactly the arrivals, loads and critical endpoint that a
from-scratch :func:`repro.timing.sta.analyze` of the mutated circuit
produces -- no tolerances anywhere.
"""

import random

import pytest

from repro.buffering.insertion import default_flimits, overloaded_gates
from repro.buffering.netlist_insertion import (
    insert_buffer_pair,
    reduce_delay_with_buffers,
    remove_buffer_pair,
    trial_buffer_pairs,
)
from repro.cells.library import default_library
from repro.iscas.loader import load_benchmark
from repro.netlist.builders import ripple_carry_adder
from repro.sizing.sensitivity import circuit_gate_sensitivities
from repro.timing.incremental import IncrementalSta
from repro.timing.sta import analyze


@pytest.fixture(scope="module")
def lib():
    return default_library()


def assert_matches_oracle(engine, circuit, lib, context=""):
    """Every arrival, load, arc timing and the critical endpoint, exactly."""
    got = engine.result()
    ref = analyze(circuit, lib)
    assert got.critical_delay_ps == ref.critical_delay_ps, context
    assert got.critical_output == ref.critical_output, context
    assert got.loads_ff == ref.loads_ff, context
    assert got.arrivals == ref.arrivals, context
    assert got.arcs == ref.arcs, context
    assert got.order == ref.order, context


class TestFullBuild:
    def test_initial_state_equals_analyze(self, lib):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        assert_matches_oracle(engine, circuit, lib)

    def test_rebuild_after_out_of_band_edits(self, lib):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        for gate in circuit.gates.values():
            gate.cin_ff = 3.0
        engine.rebuild()
        assert_matches_oracle(engine, circuit, lib)

    def test_respects_boundary_parameters(self, lib):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(
            circuit, lib, input_transition_ps=25.0, output_load_ff=10.0
        )
        ref = analyze(circuit, lib, input_transition_ps=25.0, output_load_ff=10.0)
        assert engine.result().arrivals == ref.arrivals
        assert engine.result().loads_ff == ref.loads_ff


class TestSizingUpdates:
    def test_single_gate_update(self, lib):
        circuit = load_benchmark("c432")
        engine = IncrementalSta(circuit, lib)
        name = next(iter(circuit.gates))
        circuit.gates[name].cin_ff = 7.5
        engine.update([name])
        assert_matches_oracle(engine, circuit, lib)

    def test_update_is_diff_based(self, lib):
        """Passing every gate name only pays for the actual changes."""
        circuit = load_benchmark("c432")
        engine = IncrementalSta(circuit, lib)
        done = engine.stats.gates_reevaluated
        engine.update(list(circuit.gates))
        assert engine.stats.gates_reevaluated == done

    def test_update_rejects_unknown_gate(self, lib):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        with pytest.raises(KeyError):
            engine.update(["no_such_gate"])

    def test_cone_truncation_prunes_work(self, lib):
        """A sink-side gate's cone is tiny; most of the circuit is skipped."""
        circuit = load_benchmark("c7552")
        engine = IncrementalSta(circuit, lib)
        name = circuit.outputs[0]
        circuit.gates[name].cin_ff = 9.0
        done = engine.stats.gates_reevaluated
        engine.update([name])
        touched = engine.stats.gates_reevaluated - done
        assert touched < len(circuit.gates) / 4
        assert_matches_oracle(engine, circuit, lib)

    def test_unsized_gate_falls_back_to_cell_minimum(self, lib):
        circuit = load_benchmark("fpd")
        name = next(iter(circuit.gates))
        circuit.gates[name].cin_ff = 6.0
        engine = IncrementalSta(circuit, lib)
        circuit.gates[name].cin_ff = None
        engine.update([name])
        assert_matches_oracle(engine, circuit, lib)


class TestStructureRefresh:
    def test_buffer_pair_insert_and_undo(self, lib):
        circuit = load_benchmark("c432")
        engine = IncrementalSta(circuit, lib)
        baseline = engine.result()
        name = list(circuit.gates)[7]
        insert_buffer_pair(circuit, name, lib)
        engine.refresh_structure()
        assert_matches_oracle(engine, circuit, lib, "after insertion")
        remove_buffer_pair(circuit, name)
        engine.refresh_structure()
        assert_matches_oracle(engine, circuit, lib, "after undo")
        assert engine.result().arrivals == baseline.arrivals

    def test_in_place_kind_change_is_detected(self, lib):
        """Retyping a gate (same name/fanin/size) must re-time its cone."""
        from repro.cells.gate_types import GateKind

        circuit = load_benchmark("c432")
        engine = IncrementalSta(circuit, lib)
        gate = next(
            g for g in circuit.gates.values() if g.kind is GateKind.NAND2
        )
        gate.cin_ff = 4.0
        engine.update([gate.name])
        gate.kind = GateKind.NOR2
        engine.refresh_structure()
        assert_matches_oracle(engine, circuit, lib, "after kind change")

    def test_refresh_without_changes_is_quiet(self, lib):
        circuit = load_benchmark("c432")
        engine = IncrementalSta(circuit, lib)
        done = engine.stats.gates_reevaluated
        engine.refresh_structure()
        assert engine.stats.gates_reevaluated == done
        assert_matches_oracle(engine, circuit, lib)


EDIT_CIRCUITS = ("fpd", "c432", "c880")

#: Edits per randomized sequence.
EDIT_STEPS = 25


def random_edit_sequence(name, lib, seed, steps=EDIT_STEPS):
    """Drive an engine through random size edits and buffer insert/undo.

    Yields ``(step, circuit, engine)`` after each edit; the sequence is a
    pure function of ``(name, seed)``.
    """
    rng = random.Random(hash((name, seed)) & 0xFFFFFFFF)
    circuit = load_benchmark(name)
    engine = IncrementalSta(circuit, lib)
    inserted = []
    for step in range(steps):
        roll = rng.random()
        if roll < 0.70:
            # Size edit: one gate, occasionally a handful.
            count = 1 if rng.random() < 0.8 else rng.randint(2, 6)
            chosen = rng.sample(list(circuit.gates), count)
            for gate_name in chosen:
                gate = circuit.gates[gate_name]
                base = gate.cin_ff if gate.cin_ff is not None else 1.0
                gate.cin_ff = max(base * rng.uniform(0.4, 2.5), 0.3)
            engine.update(chosen)
        elif roll < 0.85 or not inserted:
            # Trial insertion kept.
            candidates = [
                g
                for g in circuit.gates
                if "_buf" not in g and f"{g}_bufa" not in circuit.gates
            ]
            target = rng.choice(candidates)
            insert_buffer_pair(circuit, target, lib)
            inserted.append(target)
            engine.refresh_structure()
        else:
            # Undo of a previous insertion.
            target = inserted.pop(rng.randrange(len(inserted)))
            remove_buffer_pair(circuit, target)
            engine.refresh_structure()
        yield step, circuit, engine


class TestRandomEditEquivalence:
    """The ISSUE's acceptance bar: randomized size/buffer edit sequences."""

    @pytest.mark.parametrize("name", EDIT_CIRCUITS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edit_sequence_matches_oracle(self, lib, name, seed):
        for step, circuit, engine in random_edit_sequence(name, lib, seed):
            assert_matches_oracle(engine, circuit, lib, f"{name} seed={seed} step={step}")

    def test_adder_edit_sequence(self, lib):
        rng = random.Random(1234)
        circuit = ripple_carry_adder(8)
        engine = IncrementalSta(circuit, lib)
        for step in range(15):
            gate_name = rng.choice(list(circuit.gates))
            circuit.gates[gate_name].cin_ff = rng.uniform(0.5, 8.0)
            engine.update([gate_name])
            assert_matches_oracle(engine, circuit, lib, f"step={step}")


class TestResultViews:
    def test_results_are_stable_snapshots(self, lib):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        before = engine.result()
        frozen = {
            net: dict(per_net) for net, per_net in before.arrivals.items()
        }
        name = next(iter(circuit.gates))
        circuit.gates[name].cin_ff = 9.0
        engine.update([name])
        assert {n: dict(p) for n, p in before.arrivals.items()} == frozen

    def test_arrival_and_sizes_accessors(self, lib):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        ref = analyze(circuit, lib)
        net, edge = ref.critical_output
        assert engine.arrival(net, edge) == ref.critical_delay_ps
        sizes = engine.sizes()
        assert set(sizes) == set(circuit.gates)


class TestSensitivityProbe:
    def test_probe_restores_circuit_and_matches_numeric(self, lib):
        circuit = load_benchmark("fpd")
        ref = analyze(circuit, lib)
        sens = circuit_gate_sensitivities(circuit, lib)
        # Circuit and engine state unperturbed afterwards.
        assert analyze(circuit, lib).arrivals == ref.arrivals
        assert set(sens) == set(circuit.gates)
        # Cross-check a few entries against full-STA central differences.
        h = 1e-3
        for name in list(circuit.gates)[:5]:
            gate = circuit.gates[name]
            original = gate.cin_ff
            base = original if original is not None else (
                lib.cell(gate.kind).cin_min(lib.tech)
            )
            step = max(abs(base) * h, 1e-9)
            gate.cin_ff = base + step
            up = analyze(circuit, lib).critical_delay_ps
            gate.cin_ff = base - step
            down = analyze(circuit, lib).critical_delay_ps
            gate.cin_ff = original
            expected = (up - down) / (2.0 * step)
            assert sens[name] == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_probe_accepts_shared_engine(self, lib):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        sens = circuit_gate_sensitivities(
            circuit, lib, gates=list(circuit.gates)[:4], engine=engine
        )
        assert len(sens) == 4
        assert_matches_oracle(engine, circuit, lib)

    def test_probe_rejects_foreign_engine(self, lib):
        circuit = load_benchmark("fpd")
        other = IncrementalSta(load_benchmark("fpd"), lib)
        with pytest.raises(ValueError):
            circuit_gate_sensitivities(circuit, lib, engine=other)


class TestNetlistBuffering:
    def test_trial_buffer_pairs_leaves_no_trace(self, lib):
        circuit = load_benchmark("c432")
        ref = analyze(circuit, lib)
        candidates = list(circuit.gates)[:5]
        delays = trial_buffer_pairs(circuit, lib, candidates)
        assert set(delays) == set(candidates)
        assert analyze(circuit, lib).arrivals == ref.arrivals
        # Each trial delay equals a dedicated insertion's full STA.
        name = candidates[0]
        insert_buffer_pair(circuit, name, lib)
        assert delays[name] == analyze(circuit, lib).critical_delay_ps
        remove_buffer_pair(circuit, name)

    def test_overloaded_gates_consistent_with_sta_loads(self, lib):
        circuit = load_benchmark("c7552")
        limits = default_flimits(lib)
        fresh = overloaded_gates(circuit, lib, limits)
        via_sta = overloaded_gates(circuit, lib, limits, sta=analyze(circuit, lib))
        assert fresh == via_sta

    def test_reduce_delay_never_regresses(self, lib):
        circuit = load_benchmark("c432")
        base = analyze(circuit, lib).critical_delay_ps
        _, inserted, final = reduce_delay_with_buffers(
            circuit, lib, max_insertions=2
        )
        assert final <= base
        assert analyze(circuit, lib).critical_delay_ps == final
        for name in inserted:
            assert f"{name}_bufa" in circuit.gates

    def test_remove_pair_requires_insertion(self, lib):
        circuit = load_benchmark("fpd")
        with pytest.raises(ValueError):
            remove_buffer_pair(circuit, next(iter(circuit.gates)))


class TestTrialExceptionSafety:
    """A trial that raises mid-flight must leave circuit + engine clean."""

    def test_retime_failure_unwinds_inserted_pair(self, lib, monkeypatch):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        ref = analyze(circuit, lib)
        names = set(circuit.gates)
        candidates = list(circuit.gates)[:3]

        real = IncrementalSta.refresh_structure
        calls = {"n": 0}

        def flaky(self):
            calls["n"] += 1
            # Call pattern inside trial_buffer_pairs: one re-time per
            # candidate, then the final exit re-sync.  Fail the second
            # candidate's re-time.
            if calls["n"] == 2:
                raise RuntimeError("injected re-time failure")
            return real(self)

        monkeypatch.setattr(IncrementalSta, "refresh_structure", flaky)
        with pytest.raises(RuntimeError, match="injected"):
            trial_buffer_pairs(circuit, lib, candidates, engine=engine)
        monkeypatch.undo()

        # The in-flight pair was removed and the engine re-synced: both
        # leave exactly as they arrived.
        assert set(circuit.gates) == names
        assert_matches_oracle(engine, circuit, lib, "after injected failure")
        assert analyze(circuit, lib).arrivals == ref.arrivals

    def test_removal_failure_still_resyncs_engine(self, lib, monkeypatch):
        circuit = load_benchmark("fpd")
        engine = IncrementalSta(circuit, lib)
        candidates = list(circuit.gates)[:2]

        real = remove_buffer_pair
        calls = {"n": 0}

        def flaky(target, name):
            calls["n"] += 1
            real(target, name)
            if calls["n"] == 1:
                raise RuntimeError("injected removal failure")

        import repro.buffering.netlist_insertion as netlist_insertion

        monkeypatch.setattr(netlist_insertion, "remove_buffer_pair", flaky)
        with pytest.raises(RuntimeError, match="injected"):
            trial_buffer_pairs(circuit, lib, candidates, engine=engine)
        monkeypatch.undo()
        assert not any("_buf" in name for name in circuit.gates)
        assert_matches_oracle(engine, circuit, lib, "after removal failure")


class TestRetarget:
    """Warm-start primitive: re-point an engine at another circuit."""

    def test_retarget_matches_oracle_across_sizings(self, lib):
        first = load_benchmark("fpd")
        engine = IncrementalSta(first, lib)
        second = load_benchmark("fpd")
        for i, gate in enumerate(second.gates.values()):
            if i % 3 == 0:
                gate.cin_ff = 5.0
        engine.retarget(second)
        assert engine.circuit is second
        assert_matches_oracle(engine, second, lib, "retarget resize")

    def test_retarget_matches_oracle_across_structures(self, lib):
        first = load_benchmark("fpd")
        engine = IncrementalSta(first, lib)
        second = load_benchmark("fpd")
        insert_buffer_pair(second, next(iter(second.gates)), lib)
        engine.retarget(second)
        assert_matches_oracle(engine, second, lib, "retarget insert")
        # ...and back to a pristine copy (the sweep's per-point reset).
        third = load_benchmark("fpd")
        engine.retarget(third)
        assert_matches_oracle(engine, third, lib, "retarget pristine")


class TestSeededEngine:
    """An engine built from another engine's annotation (``seed=``)."""

    def test_seeded_copy_matches_oracle_across_sizings(self, lib):
        seed = IncrementalSta(load_benchmark("c432"), lib)
        circuit = load_benchmark("c432")
        for i, gate in enumerate(circuit.gates.values()):
            if i % 5 == 0:
                gate.cin_ff = 6.0
        engine = IncrementalSta(circuit, lib, seed=seed)
        assert engine.stats.full_builds == 0
        assert engine.stats.gates_reevaluated < len(circuit.gates)
        assert_matches_oracle(engine, circuit, lib, "seeded resize")

    def test_seeded_copy_matches_oracle_across_structures(self, lib):
        seed = IncrementalSta(load_benchmark("fpd"), lib)
        circuit = load_benchmark("fpd")
        insert_buffer_pair(circuit, next(iter(circuit.gates)), lib)
        engine = IncrementalSta(circuit, lib, seed=seed)
        assert_matches_oracle(engine, circuit, lib, "seeded insert")

    def test_seed_is_left_untouched(self, lib):
        seed_circuit = load_benchmark("c432")
        seed = IncrementalSta(seed_circuit, lib)
        circuit = load_benchmark("c432")
        engine = IncrementalSta(circuit, lib, seed=seed)
        names = list(circuit.gates)
        for name in names[::7]:
            circuit.gates[name].cin_ff = 5.5
        engine.update(names[::7])
        insert_buffer_pair(circuit, names[3], lib)
        engine.refresh_structure()
        assert_matches_oracle(engine, circuit, lib, "seeded copy edited")
        assert_matches_oracle(seed, seed_circuit, lib, "seed after copy edits")
        assert seed.stats.updates == 0

    def test_seed_with_other_boundary_conditions_is_rejected(self, lib):
        seed = IncrementalSta(load_benchmark("fpd"), lib, output_load_ff=10.0)
        with pytest.raises(ValueError, match="seed"):
            IncrementalSta(load_benchmark("fpd"), lib, seed=seed)
