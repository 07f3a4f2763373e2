"""Resilience overhead gate: the no-fault hot path must stay in the noise.

Every serve job now crosses two resilience checkpoints: the deadline
guard at the top of :meth:`JobExecutor.run` (resolve the timeout
precedence chain, dispatch inline when none applies) and the
fault-injection probe at the top of ``_dispatch`` (one module-global
read when no plan is installed).  This bench A/Bs the instrumented
entry point against the pristine session call it wraps and asserts the
no-fault overhead stays within 5% -- the ISSUE's acceptance bar for the
whole resilience layer -- and contributes the
``test_kernel_resilience_nofault_run`` kernel to the CI perf gate
(``BENCH_BASELINE.json`` via ``benchmarks/compare_bench.py``).
"""

from repro.api.job import Job
from repro.api.session import Session
from repro.protocol.report import format_table
from repro.resilience import faults
from repro.serve.scheduler import JobExecutor

from conftest import emit, paired_overhead

#: Paired measurement rounds (see ``conftest.paired_overhead``).
ROUNDS = 15

#: Jobs per round, enough to amortise the clock reads.
JOBS_PER_ROUND = 40

#: The acceptance bar: no-fault resilience overhead on the job hot path.
MAX_OVERHEAD = 0.05

#: Timer/scheduler jitter floor added to the ratio check so a kernel
#: measured in microseconds cannot fail on clock granularity alone.
EPSILON_S = 2e-4


def _arms(lib):
    """The instrumented executor entry and the pristine core it wraps."""
    session = Session(library=lib)
    executor = JobExecutor(session, threads=1, heavy_threads=1)
    payload = Job(benchmark="c432").to_dict()
    session.bounds(Job.from_dict(payload))  # warm the extraction memos

    def wrapped():
        return executor.run("bounds", payload)

    def core():
        return session.bounds(Job.from_dict(payload)).to_dict()

    return executor, wrapped, core


def test_nofault_resilience_overhead_under_gate(lib):
    assert faults.active() is None  # the disabled path under test
    executor, wrapped_fn, core_fn = _arms(lib)
    overhead, best_wrapped, best_core = paired_overhead(
        wrapped_fn, core_fn, ROUNDS, JOBS_PER_ROUND, EPSILON_S
    )
    executor.shutdown()

    body = format_table(
        ("entry point", "best round (ms)", "per job (us)"),
        [
            ("executor.run (no deadline, no plan)",
             f"{1e3 * best_wrapped:.3f}",
             f"{1e6 * best_wrapped / JOBS_PER_ROUND:.2f}"),
            ("session.bounds (pristine)", f"{1e3 * best_core:.3f}",
             f"{1e6 * best_core / JOBS_PER_ROUND:.2f}"),
        ],
    )
    emit(
        "Resilience -- no-fault overhead on the serve job hot path "
        f"(gate: <= {100 * MAX_OVERHEAD:.0f}%)",
        body + f"\noverhead: {100 * overhead:+.2f}%",
    )
    assert overhead <= MAX_OVERHEAD, (
        f"no-fault resilience checkpoints cost {100 * overhead:.2f}% "
        f"(gate {100 * MAX_OVERHEAD:.0f}%)"
    )


# -- tier-1 kernel for the CI perf gate -------------------------------


def test_kernel_resilience_nofault_run(benchmark, lib):
    """The resilience-guarded entry with no plan, tracked in the baseline."""
    executor, wrapped_fn, _ = _arms(lib)
    record = benchmark(wrapped_fn)
    executor.shutdown()
    assert record["kind"] == "bounds"
