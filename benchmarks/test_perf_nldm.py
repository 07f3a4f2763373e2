"""NLDM backend: vectorized table interpolation vs the scalar lookup loop.

The table backend's batch surface (``NldmBatchModel``) propagates whole
levels with one stacked bilinear interpolation
(``repro.liberty.tables.interp_table_stack``) instead of one
``searchsorted`` + lookup per gate arc.  This bench times one nominal
column of ``repro.mc.kernel.batch_analyze`` on a compiled c7552 under
the committed sample ``.lib`` against the scalar
``repro.timing.sta.analyze``, asserts the critical delay is bit-identical
(the backend contract), gates the >= 5x bar for the vectorized path, and
provides the ``test_kernel_nldm_batch`` CI perf kernel tracked in
``BENCH_BASELINE.json``.
"""

import os
import time

import pytest

from repro.iscas.loader import load_benchmark
from repro.liberty import library_from_lib
from repro.mc import batch_analyze, compile_circuit, nominal_corners
from repro.protocol.report import format_table
from repro.timing.sta import analyze

from conftest import emit

SAMPLE_LIB = os.path.join(
    os.path.dirname(__file__), "..", "examples", "sample_nldm.lib"
)

#: Timed repetitions per side; the best one counts (scheduler noise only
#: ever adds time).
ROUNDS = 7


@pytest.fixture(scope="session")
def nldm_lib():
    return library_from_lib(SAMPLE_LIB)


def _best_seconds(fn):
    """(best wall seconds over ROUNDS calls, the last call's result)."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_nldm_batch_speedup(nldm_lib):
    """c7552 timing: vectorized level lookups vs per-arc scalar lookups."""
    circuit = load_benchmark("c7552")
    compiled = compile_circuit(circuit, nldm_lib)
    corners = nominal_corners(nldm_lib.tech, 1)

    t_scalar, scalar = _best_seconds(lambda: analyze(circuit, nldm_lib))
    t_batch, batch = _best_seconds(lambda: batch_analyze(compiled, corners))

    # Backend contract: the batch surface is bit-identical to the scalar.
    assert batch.critical_delay_ps[0] == scalar.critical_delay_ps

    speedup = t_scalar / t_batch if t_batch > 0 else float("inf")
    body = format_table(
        ("circuit", "gates", "scalar (ms)", "batch (ms)", "speedup"),
        [
            (
                "c7552",
                len(circuit.gates),
                f"{1000.0 * t_scalar:.1f}",
                f"{1000.0 * t_batch:.1f}",
                f"{speedup:.1f}x",
            )
        ],
    )
    emit(
        f"NLDM STA -- scalar table lookups vs vectorized batch "
        f"(one nominal column, best of {ROUNDS})",
        body,
    )
    assert speedup >= 5.0


# -- tier-1 kernel for the CI perf gate --------------------------------


def test_kernel_nldm_batch(benchmark, nldm_lib):
    """One nominal NLDM batch propagation of a compiled c7552."""
    compiled = compile_circuit(load_benchmark("c7552"), nldm_lib)
    corners = nominal_corners(nldm_lib.tech, 1)

    result = benchmark(batch_analyze, compiled, corners)
    assert result.critical_delay_ps[0] > 0
