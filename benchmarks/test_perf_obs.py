"""Observability overhead gate: disabled tracing must stay in the noise.

The incremental-STA engine is the stack's hottest kernel, and its
``update`` wrapper is where the tracer hook lives: with no tracer
attached the wrapper costs one attribute check before delegating to the
pristine ``_update_core`` body.  This bench A/Bs the two entry points on
the same engine and asserts the wrapper stays within 5% -- the ISSUE's
acceptance bar for the whole obs layer -- and contributes the
``test_kernel_obs_disabled_update`` kernel to the CI perf gate
(``BENCH_BASELINE.json`` via ``benchmarks/compare_bench.py``).
"""

from repro.iscas.loader import load_benchmark
from repro.protocol.report import format_table
from repro.timing.incremental import IncrementalSta
from repro.timing.sta import trace_critical_gates

from conftest import emit, paired_overhead

#: Paired measurement rounds (see ``conftest.paired_overhead``).
ROUNDS = 15

#: Edits per round, enough to amortise the clock reads.
EDITS_PER_ROUND = 60

#: The acceptance bar: disabled-tracer overhead on the update kernel.
MAX_OVERHEAD = 0.05

#: Timer/scheduler jitter floor added to the ratio check so a kernel
#: measured in microseconds cannot fail on clock granularity alone.
EPSILON_S = 2e-4


def _edit_closure(circuit, engine):
    """One alternating size edit on a deep critical-path gate."""
    name = trace_critical_gates(engine.result(), circuit)[-1]
    gate = circuit.gates[name]
    state = {"scale": 1.0}

    def edit(update):
        state["scale"] = 1.25 if state["scale"] == 1.0 else 1.0
        gate.cin_ff = 4.0 * state["scale"]
        return update([name])

    return edit


def test_disabled_tracer_overhead_under_gate(lib):
    circuit = load_benchmark("c7552")
    engine = IncrementalSta(circuit, lib)
    assert engine.tracer is None  # the disabled path under test
    edit = _edit_closure(circuit, engine)
    overhead, best_wrapped, best_core = paired_overhead(
        lambda: edit(engine.update),
        lambda: edit(engine._update_core),
        ROUNDS,
        EDITS_PER_ROUND,
        EPSILON_S,
    )
    body = format_table(
        ("entry point", "best round (ms)", "per edit (us)"),
        [
            ("engine.update (tracer off)", f"{1e3 * best_wrapped:.3f}",
             f"{1e6 * best_wrapped / EDITS_PER_ROUND:.2f}"),
            ("engine._update_core", f"{1e3 * best_core:.3f}",
             f"{1e6 * best_core / EDITS_PER_ROUND:.2f}"),
        ],
    )
    emit(
        "Observability -- disabled-tracer overhead on incremental STA "
        f"(gate: <= {100 * MAX_OVERHEAD:.0f}%)",
        body + f"\noverhead: {100 * overhead:+.2f}%",
    )
    assert overhead <= MAX_OVERHEAD, (
        f"disabled-tracer update wrapper costs {100 * overhead:.2f}% "
        f"(gate {100 * MAX_OVERHEAD:.0f}%)"
    )


# -- tier-1 kernel for the CI perf gate -------------------------------


def test_kernel_obs_disabled_update(benchmark, lib):
    """The traced entry point with tracing off, tracked in the baseline."""
    circuit = load_benchmark("c7552")
    engine = IncrementalSta(circuit, lib)
    edit = _edit_closure(circuit, engine)
    result = benchmark(edit, engine.update)
    assert result.critical_delay_ps > 0
