"""Incremental vs full STA: cone re-propagation on the optimizer hot loop.

Every eq. 4 sweep, sensitivity probe and trial buffer insertion perturbs
a handful of gates; the incremental engine re-times only their fan-out
cones.  This bench measures the full-vs-incremental speedup over the
paper's circuit set, asserts *exact* agreement of the annotations (the
engine's contract is bit-identity with the oracle), and provides the
tier-1 kernels the CI perf gate tracks against ``BENCH_BASELINE.json``
(see ``benchmarks/compare_bench.py``).
"""

import time

from repro.iscas.loader import load_benchmark
from repro.protocol.report import format_table
from repro.timing.critical_paths import k_critical_paths
from repro.timing.incremental import IncrementalSta
from repro.timing.sta import analyze, trace_critical_gates

from conftest import CORE_CIRCUITS, emit

#: Edits measured per circuit in the speedup table.
N_EDITS = 8


def _perturbation_times(circuit, lib, n_edits=N_EDITS):
    """Mean (full, incremental) seconds per single-gate size edit."""
    engine = IncrementalSta(circuit, lib)
    result = engine.result()
    # Perturb critical-path gates (worst case: the deepest cones) and a
    # spread of off-path gates (typical case).
    targets = trace_critical_gates(result, circuit)[:n_edits // 2]
    names = list(circuit.gates)
    targets += [names[i * len(names) // n_edits] for i in range(n_edits - len(targets))]

    t_full = 0.0
    t_inc = 0.0
    for name in targets:
        gate = circuit.gates[name]
        base = gate.cin_ff if gate.cin_ff is not None else 1.0
        gate.cin_ff = base * 1.25

        start = time.perf_counter()
        incremental = engine.update([name])
        t_inc += time.perf_counter() - start

        start = time.perf_counter()
        full = analyze(circuit, lib)
        t_full += time.perf_counter() - start

        # The engine's contract: bit-identical annotations, always.
        assert incremental.critical_delay_ps == full.critical_delay_ps
        assert incremental.arrivals == full.arrivals
    return t_full / len(targets), t_inc / len(targets)


def test_incremental_speedup_table(lib):
    rows = []
    speedup_by_circuit = {}
    for name in CORE_CIRCUITS:
        circuit = load_benchmark(name)
        full_s, inc_s = _perturbation_times(circuit, lib)
        speedup = full_s / inc_s if inc_s > 0 else float("inf")
        speedup_by_circuit[name] = speedup
        rows.append(
            (
                name,
                len(circuit.gates),
                f"{1000.0 * full_s:.2f}",
                f"{1000.0 * inc_s:.3f}",
                f"{speedup:.1f}x",
            )
        )
    body = format_table(
        ("circuit", "gates", "full STA (ms)", "incremental (ms)", "speedup"),
        rows,
    )
    emit("Incremental STA -- single-gate perturbation cost vs full re-analysis", body)
    # The ISSUE's acceptance bar: >= 3x on c7552 single-gate perturbations.
    assert speedup_by_circuit["c7552"] >= 3.0
    # Large circuits must all gain; tiny ones are allowed to tie.
    for name in ("c3540", "c5315", "c7552"):
        assert speedup_by_circuit[name] > 1.0, name


# -- tier-1 kernels for the CI perf gate ------------------------------
#
# Each kernel is timed by pytest-benchmark and compared (normalised by
# the calibration kernel below) against the committed baseline.


def test_kernel_calibration(benchmark):
    """Pure-Python spin: the machine-speed yardstick for compare_bench."""

    def spin():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    benchmark(spin)


def test_kernel_full_sta_c7552(benchmark, lib):
    circuit = load_benchmark("c7552")
    result = benchmark(analyze, circuit, lib)
    assert result.critical_delay_ps > 0


def test_kernel_incremental_update_c7552(benchmark, lib):
    circuit = load_benchmark("c7552")
    engine = IncrementalSta(circuit, lib)
    name = trace_critical_gates(engine.result(), circuit)[-1]
    gate = circuit.gates[name]
    state = {"scale": 1.0}

    def one_edit():
        # Alternate the size so every round really re-propagates.
        state["scale"] = 1.25 if state["scale"] == 1.0 else 1.0
        gate.cin_ff = 4.0 * state["scale"]
        return engine.update([name])

    result = benchmark(one_edit)
    assert result.critical_delay_ps > 0


def test_kernel_structure_refresh_c7552(benchmark, lib):
    """Trial-insertion cost: structure diff plus the pair's cone."""
    from repro.buffering.netlist_insertion import (
        insert_buffer_pair,
        remove_buffer_pair,
    )

    circuit = load_benchmark("c7552")
    engine = IncrementalSta(circuit, lib)
    name = trace_critical_gates(engine.result(), circuit)[0]

    def trial():
        insert_buffer_pair(circuit, name, lib)
        delay = engine.refresh_structure().critical_delay_ps
        remove_buffer_pair(circuit, name)
        engine.refresh_structure()
        return delay

    delay = benchmark(trial)
    assert delay > 0


def test_kernel_extract_c7552(benchmark, lib):
    """The circuit driver's per-pass K-path extraction on its engine's annotation."""
    circuit = load_benchmark("c7552")
    sta = IncrementalSta(circuit, lib).result()
    paths = benchmark(k_critical_paths, circuit, lib, k=4, sta=sta)
    assert len(paths) == 4
