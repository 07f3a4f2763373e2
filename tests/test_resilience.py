"""Chaos tests for :mod:`repro.resilience` and its integration points.

Every failure here is *injected deterministically* -- a seeded
:class:`FaultPlan` against named sites -- so the suite asserts exact
recovery behaviour instead of sleeping and hoping:

* retry policies produce seeded, reproducible backoff sequences;
* the circuit breaker trips, half-open-probes and recovers on an
  injectable clock (no wall-clock waits);
* a pool worker crash mid-optimize is retried on a fresh pool and the
  final record is byte-identical to the fault-free run;
* a job outliving its deadline raises a structured timeout and frees
  the worker; ``cancel`` and ``shutdown --now`` stop running jobs at
  their next checkpoint, through the same per-job stop token;
* a dropped client event stream reconnects and resumes idempotently;
* corrupt result-store entries are quarantined, counted, and agree
  between ``get`` and ``in``;
* the batch and sweep runners distinguish "no subprocess support"
  (permanent serial fallback) from "worker crashed" (retry first).
"""

import gc
import json
import sys
import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import Job, RunRecord, Session, SweepSpec
from repro.api.job import JobError
from repro.api.store import ResultStore
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    CancelToken,
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    InlinePool,
    JobCancelledError,
    JobTimeoutError,
    PoolSupervisor,
    RetryPolicy,
    faults,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.resilience.policy import checkpoint
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    start_server_thread,
)
from repro.serve.scheduler import JobExecutor


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection inert."""
    faults.uninstall()
    yield
    faults.uninstall()


def _strip_timing(record_dict):
    """A record dict reduced to its deterministic (byte-parity) surface."""
    return RunRecord.from_dict(record_dict).to_dict(with_timing=False)


# -- the policy layer --------------------------------------------------


class TestCancelToken:
    def test_deadline_and_stop_raise_at_checkpoints(self):
        token = CancelToken()
        checkpoint()  # outside any job: a token that never stops
        with token.running(0.05):
            checkpoint()
            with pytest.raises(JobTimeoutError) as excinfo:
                token.wait([Future()])
            assert excinfo.value.timeout_s == 0.05
        checkpoint()  # the job's token left with the job
        stopped = CancelToken()
        stopped.stop("stopped by the test")
        stopped.stop("a second stop is a no-op")
        with stopped.running(None):
            with pytest.raises(JobCancelledError, match="by the test"):
                checkpoint()

    def test_a_waiter_woken_by_stop_always_raises(self):
        """``stop`` marks the token before it wakes the waiters: a waiter
        that runs first after the wake-up raises instead of returning."""
        woke = threading.Event()

        class YieldingFuture(Future):
            def set_result(self, result):
                super().set_result(result)
                woke.wait(timeout=10)  # the woken waiter moves first

        token, outcome = CancelToken(), []
        token._stop = YieldingFuture()

        def waiter():
            try:
                outcome.append(token.wait([Future()]))
            except JobCancelledError as exc:
                outcome.append(exc)
            woke.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)  # let the waiter block in ``wait``
        token.stop("stop")
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], JobCancelledError)

    def test_stop_wakes_every_waiter_with_one_error(self):
        """A stop reaches threads blocked in ``wait`` on work that never
        finishes: each raises the stop, none returns the token's own
        future, under a shortened switch interval."""
        token, never = CancelToken(), Future()
        outcomes, lock = [], threading.Lock()
        ready = threading.Barrier(17)

        def waiter():
            ready.wait(timeout=10)
            try:
                while True:
                    done = token.wait([never])
                    with lock:
                        outcomes.append(done)  # a wake-up without a raise
            except JobCancelledError as exc:
                with lock:
                    outcomes.append(str(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=waiter) for _ in range(16)]
            for thread in threads:
                thread.start()
            ready.wait(timeout=10)
            token.stop("stop")
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == ["stop"] * 16


class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(
            attempts=5, base_s=0.05, multiplier=2.0, max_delay_s=0.3,
            jitter=0.25, seed=7,
        )
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second  # seeded jitter: a pure function
        assert len(first) == 4  # attempts - 1 retries
        assert all(d <= 0.3 * 1.25 for d in first)
        # exponential shape under the cap (jitter only ever adds)
        assert first[0] >= 0.05
        assert first[1] >= 0.1

    def test_different_seeds_differ(self):
        a = list(RetryPolicy(seed=1).delays())
        b = list(RetryPolicy(seed=2).delays())
        assert a != b

    def test_run_retries_then_succeeds(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(attempts=3, base_s=0.01, jitter=0.0)
        out = policy.run(flaky, retry_on=(OSError,), sleep=slept.append)
        assert out == "ok"
        assert calls["n"] == 3
        assert slept == list(policy.delays())

    def test_run_exhaustion_reraises_last(self):
        def always():
            raise ValueError("still broken")

        with pytest.raises(ValueError, match="still broken"):
            RetryPolicy(attempts=2, base_s=0.0).run(
                always, retry_on=(ValueError,), sleep=lambda _: None
            )

    def test_run_does_not_retry_foreign_exceptions(self):
        calls = {"n": 0}

        def wrong_kind():
            calls["n"] += 1
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            RetryPolicy(attempts=5).run(
                wrong_kind, retry_on=(OSError,), sleep=lambda _: None
            )
        assert calls["n"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_trips_after_k_consecutive_failures(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failures=3, cooldown_s=10.0, clock=lambda: clock["t"]
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1
        assert breaker.short_circuits == 1

    def test_half_open_probe_recovers(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failures=1, cooldown_s=10.0, clock=lambda: clock["t"]
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock["t"] = 10.0  # cooldown elapsed: exactly one probe admitted
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # second caller waits on the probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failures=1, cooldown_s=5.0, clock=lambda: clock["t"]
        )
        breaker.record_failure()
        clock["t"] = 5.0
        assert breaker.allow()  # the probe
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        assert not breaker.allow()  # a fresh cooldown started at t=5
        clock["t"] = 10.0
        assert breaker.allow()

    def test_success_resets_the_run(self):
        breaker = CircuitBreaker(failures=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two *consecutive* failures

    def test_as_dict_shape(self):
        snap = CircuitBreaker(failures=4, cooldown_s=1.5).as_dict()
        assert snap == {
            "state": "closed", "failures": 4, "cooldown_s": 1.5,
            "consecutive_failures": 0, "trips": 0, "probes": 0,
            "recoveries": 0, "short_circuits": 0,
        }


# -- the fault-injection harness ---------------------------------------


class TestFaultPlan:
    def test_fires_inside_the_window_only(self):
        plan = FaultPlan([FaultSpec(faults.SITE_STREAM_DROP, after=2, times=2)])
        fired = [
            plan.fire(faults.SITE_STREAM_DROP) is not None for _ in range(6)
        ]
        assert fired == [False, False, True, True, False, False]
        assert plan.hits() == {faults.SITE_STREAM_DROP: 6}
        assert plan.fired() == {faults.SITE_STREAM_DROP: 2}

    def test_sites_are_independent(self):
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN)])
        assert plan.fire(faults.SITE_TORN_WRITE) is None
        assert plan.fire(faults.SITE_POOL_BROKEN) is not None

    def test_save_load_round_trip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(faults.SITE_EXEC_SLOW, times=2, after=1, delay_s=0.5)],
            seed=9,
        )
        path = plan.save(str(tmp_path / "plan.json"))
        loaded = FaultPlan.load(path)
        assert loaded.to_dict() == plan.to_dict()
        assert loaded.state_dir == str(tmp_path)  # markers live by the plan

    def test_marker_files_bound_the_budget_across_instances(self, tmp_path):
        # Two plan copies sharing a state dir model two worker processes:
        # the O_EXCL markers keep "times=1" one firing *globally*.
        spec = [FaultSpec(faults.SITE_WORKER_CRASH, times=1)]
        a = FaultPlan(spec, state_dir=str(tmp_path))
        b = FaultPlan(spec, state_dir=str(tmp_path))
        assert a.fire(faults.SITE_WORKER_CRASH) is not None
        assert b.fire(faults.SITE_WORKER_CRASH) is None

    def test_installed_scopes_the_active_plan(self):
        assert faults.fire(faults.SITE_POOL_BROKEN) is None  # inert
        with faults.installed(FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN)])):
            assert faults.fire(faults.SITE_POOL_BROKEN) is not None
        assert faults.fire(faults.SITE_POOL_BROKEN) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("nonsense.site")
        with pytest.raises(ValueError):
            FaultSpec(faults.SITE_POOL_BROKEN, times=0)
        with pytest.raises(ValueError):
            FaultSpec(faults.SITE_POOL_BROKEN, after=-1)


class TestInlinePool:
    def test_runs_inline_without_faults(self):
        pool = InlinePool()
        assert pool.submit(lambda x: x + 1, 41).result() == 42
        assert pool.submitted == 1
        assert pool.broken == 0

    def test_injected_break_raises_broken_process_pool(self):
        pool = InlinePool()
        with faults.installed(FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN)])):
            future = pool.submit(lambda: "never")
            with pytest.raises(BrokenProcessPool):
                future.result()
        assert pool.broken == 1
        # budget spent: the next submission succeeds
        assert pool.submit(lambda: "ok").result() == "ok"


# -- store quarantine --------------------------------------------------


class TestStoreQuarantine:
    def test_corrupt_entry_is_quarantined_not_resurrected(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"), MetricsRegistry())
        key = "ab" + "0" * 62
        store.put(key, {"kind": "bounds", "x": 1})
        with open(store.path_for(key), "w", encoding="utf-8") as handle:
            handle.write('{"kind": "bounds", "x":')  # torn mid-value
        assert store.get(key) is None          # miss, not a crash
        assert key not in store                # membership agrees with get
        assert store.stats()["quarantined"] == 1
        import os

        assert os.path.exists(store.path_for(key) + ".corrupt")
        assert not os.path.exists(store.path_for(key))
        stats = store.stats()
        assert stats["quarantined"] == 1
        assert stats["corrupt_files"] == 1
        # the next completion simply rewrites the key
        store.put(key, {"kind": "bounds", "x": 2})
        assert store.get(key) == {"kind": "bounds", "x": 2}

    def test_non_dict_payload_is_quarantined(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"), MetricsRegistry())
        key = "cd" + "0" * 62
        store.put(key, {"ok": True})
        with open(store.path_for(key), "w", encoding="utf-8") as handle:
            handle.write('[1, 2, 3]\n')  # valid JSON, wrong shape
        assert key not in store
        assert store.stats()["quarantined"] == 1

    def test_torn_write_site_produces_a_real_torn_file(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"), MetricsRegistry())
        key = "ef" + "0" * 62
        with faults.installed(FaultPlan([FaultSpec(faults.SITE_TORN_WRITE)])):
            store.put(key, {"kind": "bounds", "payload": list(range(50))})
        # The injected half-write landed at the final path; first contact
        # quarantines it and the store reports a miss.
        assert store.get(key) is None
        assert store.stats()["quarantined"] == 1
        assert store.corrupt_count() == 1


# -- executor deadlines and pool supervision ---------------------------


def _fast_retry(attempts=3):
    return RetryPolicy(attempts=attempts, base_s=0.0, jitter=0.0)


class TestExecutorDeadline:
    def test_deadline_expiry_raises_job_timeout(self):
        executor = JobExecutor(Session(), threads=1, heavy_threads=1)
        plan = FaultPlan([FaultSpec(faults.SITE_EXEC_SLOW, delay_s=1.0)])
        job = Job(benchmark="fpd")
        try:
            with faults.installed(plan):
                with pytest.raises(JobTimeoutError) as excinfo:
                    executor.run("bounds", job.to_dict(), timeout_s=0.05)
            assert excinfo.value.timeout_s == 0.05
            snap = executor.resilience_stats()
            assert snap["counters"]["resilience.timeouts"] == 1
            assert "abandoned" not in snap
            # the worker slot is free: the same executor still runs jobs
            record = executor.run("bounds", job.to_dict())
            assert record["kind"] == "bounds"
        finally:
            executor.shutdown(wait=False)

    def test_job_level_timeout_is_honoured(self):
        executor = JobExecutor(Session(), threads=1, heavy_threads=1)
        plan = FaultPlan([FaultSpec(faults.SITE_EXEC_SLOW, delay_s=1.0)])
        job = Job(benchmark="fpd", timeout_s=0.05)
        try:
            with faults.installed(plan):
                with pytest.raises(JobTimeoutError):
                    executor.run("bounds", job.to_dict())
        finally:
            executor.shutdown(wait=False)

    def test_no_deadline_means_no_guard(self):
        executor = JobExecutor(Session(), threads=1, heavy_threads=1)
        try:
            record = executor.run("bounds", Job(benchmark="fpd").to_dict())
            assert record["kind"] == "bounds"
        finally:
            executor.shutdown(wait=False)

    def test_timed_out_jobs_leave_no_thread_behind(self):
        """Two jobs that outlive their deadline stop at it, so an instant
        job on the same executor returns its record; nothing runs on."""
        executor = JobExecutor(
            Session(), threads=1, heavy_threads=1, timeout_s=0.5
        )
        plan = FaultPlan(
            [FaultSpec(faults.SITE_EXEC_SLOW, times=2, delay_s=3.0)]
        )
        payload = Job(benchmark="fpd").to_dict()
        try:
            with faults.installed(plan):
                for _ in range(2):
                    with pytest.raises(JobTimeoutError):
                        executor.run("bounds", payload)
                started = time.monotonic()
                record = executor.run("bounds", payload)
            assert record["kind"] == "bounds"
            assert time.monotonic() - started < 0.5
            snap = executor.resilience_stats()
            assert snap["counters"]["resilience.timeouts"] == 2
            names = [t.name for t in threading.enumerate()]
            assert not [n for n in names if n.startswith("pops-deadline")]
        finally:
            executor.shutdown(wait=False)

    def test_stopped_token_cuts_a_pool_wait_short(self):
        """A job waiting on the process pool stops at its deadline and
        the supervisor discards that pool instead of waiting on it."""
        class HangingPool:
            shut_down = []

            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                return Future()  # a worker that never answers

            def shutdown(self, wait=True, **_):
                self.shut_down.append(wait)

        executor = JobExecutor(
            Session(), threads=1, heavy_threads=1, procs=1,
            retry=_fast_retry(), pool_factory=HangingPool,
        )
        job = Job(benchmark="fpd", tc_ratio=1.4, timeout_s=0.2)
        try:
            started = time.monotonic()
            with pytest.raises(JobTimeoutError):
                executor.run("optimize", job.to_dict())
            assert time.monotonic() - started < 5
            assert HangingPool.shut_down == [False]  # discarded, not awaited
            assert executor.breaker.state == CLOSED
        finally:
            executor.shutdown(wait=False)

    def test_served_timeout_is_counted_once(self, tmp_path):
        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"), threads=1,
            heavy_threads=1,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        plan = FaultPlan([FaultSpec(faults.SITE_EXEC_SLOW, delay_s=1.0)])
        try:
            with faults.installed(plan):
                with pytest.raises(ServeClientError, match="deadline"):
                    client.submit(
                        "bounds", Job(benchmark="fpd"), timeout_s=0.05
                    )
            status = client.status()
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert status["serve"]["failed"] == status["serve"]["timeouts"] == 1
        counters = status["session"]["counters"]
        assert counters["serve.failed"] == 1
        assert [name for name in counters if "timeout" in name] == [
            "resilience.timeouts"
        ]
        assert counters["resilience.timeouts"] == 1

    def test_job_timeout_validation_and_serialization(self):
        with pytest.raises(JobError):
            Job(benchmark="fpd", timeout_s=0.0)
        with pytest.raises(JobError):
            Job(benchmark="fpd", timeout_s=True)
        # unset: omitted, preserving the historical byte form / store keys
        assert "timeout_s" not in Job(benchmark="fpd").to_dict()
        data = Job(benchmark="fpd", timeout_s=2.5).to_dict()
        assert data["timeout_s"] == 2.5
        assert Job.from_dict(data).timeout_s == 2.5


class TestPoolSupervision:
    def test_worker_crash_retries_to_byte_identical_record(self):
        session = Session()
        job = Job(benchmark="fpd", tc_ratio=1.4)
        baseline = session.optimize(job).to_dict()

        executor = JobExecutor(
            session, threads=1, heavy_threads=1, procs=1,
            retry=_fast_retry(), pool_factory=InlinePool,
        )
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN, times=1)])
        try:
            with faults.installed(plan):
                record = executor.run("optimize", job.to_dict())
            assert _strip_timing(record) == _strip_timing(baseline)
            counters = executor.resilience_stats()["counters"]
            assert counters["resilience.pool_broken"] == 1
            assert counters["resilience.retries"] == 1
            assert "resilience.fallbacks" not in counters
            assert executor.breaker.state == CLOSED
            assert executor.procs == 1  # crash never downgrades procs
        finally:
            executor.shutdown(wait=False)

    def test_pool_record_names_the_sessions_liberty(self):
        # Jobs ship stamped: a pool worker's session has no .lib path of
        # its own, so an unstamped NLDM job echoed ``liberty: None``
        # there while the in-thread record named the file.
        import os

        liberty = os.path.join(
            os.path.dirname(__file__), "..", "examples", "sample_nldm.lib"
        )
        session = Session(backend="nldm", liberty=liberty)
        payload = Job(benchmark="fpd", tc_ratio=3.0).to_dict()
        in_thread = JobExecutor(session, threads=1, heavy_threads=1)
        pooled = JobExecutor(
            session, threads=1, heavy_threads=1, procs=1,
            retry=_fast_retry(), pool_factory=InlinePool,
        )
        try:
            expected = in_thread.run("optimize", payload)
            record = pooled.run("optimize", payload)
        finally:
            in_thread.shutdown(wait=False)
            pooled.shutdown(wait=False)
        assert record["job"]["liberty"] == liberty
        assert _strip_timing(record) == _strip_timing(expected)

    def test_breaker_trips_to_in_thread_and_recovers(self):
        session = Session()
        job = Job(benchmark="fpd", tc_ratio=1.4)
        baseline = session.optimize(job).to_dict()

        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failures=2, cooldown_s=30.0, clock=lambda: clock["t"]
        )
        executor = JobExecutor(
            session, threads=1, heavy_threads=1, procs=1,
            retry=_fast_retry(attempts=4), breaker=breaker,
            pool_factory=InlinePool,
        )
        # Every pool submission breaks until the budget (2) is spent.
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN, times=2)])
        try:
            with faults.installed(plan):
                record = executor.run("optimize", job.to_dict())
                # two crashes tripped the breaker; the job fell in-thread
                assert _strip_timing(record) == _strip_timing(baseline)
                assert breaker.state == OPEN
                counters = executor.resilience_stats()["counters"]
                assert counters["resilience.breaker_trips"] == 1
                assert counters["resilience.fallbacks"] == 1

                # while open, jobs short-circuit straight to in-thread
                executor.run("optimize", job.to_dict())
                assert breaker.short_circuits >= 1

                # cooldown over: the probe goes to the (now healthy) pool
                clock["t"] = 30.0
                record = executor.run("optimize", job.to_dict())
            assert _strip_timing(record) == _strip_timing(baseline)
            assert breaker.state == CLOSED
            assert breaker.recoveries == 1
        finally:
            executor.shutdown(wait=False)

    def test_transport_error_disables_pool_permanently(self, caplog):
        def no_subprocess_support(max_workers):
            raise OSError("semaphores unavailable")

        session = Session()
        job = Job(benchmark="fpd", tc_ratio=1.4)
        executor = JobExecutor(
            session, threads=1, heavy_threads=1, procs=2,
            retry=_fast_retry(), pool_factory=no_subprocess_support,
        )
        try:
            import logging

            with caplog.at_level(logging.WARNING, logger="repro.serve"):
                record = executor.run("optimize", job.to_dict())
            assert record["kind"].startswith("optimize")
            assert executor.procs == 0  # permanent: never probed again
            counters = executor.resilience_stats()["counters"]
            assert counters["resilience.pool_disabled"] == 1
            assert any(
                "process pool unavailable" in message
                for message in caplog.messages
            )
        finally:
            executor.shutdown(wait=False)

    def test_racing_threads_build_one_process_pool(self):
        # Two heavy threads reach the lazily built pool at once.  A second
        # pool would leak with its workers: shutdown() sees only one.
        calls = []
        second_caller = threading.Event()

        def slow_factory(max_workers):
            calls.append(max_workers)
            if len(calls) > 1:
                second_caller.set()
            second_caller.wait(timeout=0.5)  # hold the build open
            return InlinePool(max_workers)

        executor = JobExecutor(
            Session(), threads=1, heavy_threads=2, procs=1,
            pool_factory=slow_factory,
        )
        barrier = threading.Barrier(2)
        pools = []

        def heavy():
            barrier.wait(timeout=5)
            pools.append(executor.supervisor.pool())

        threads = [threading.Thread(target=heavy) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
            assert not any(thread.is_alive() for thread in threads)
            assert len(calls) == 1
            assert len(pools) == 2 and pools[0] is pools[1]
        finally:
            executor.shutdown(wait=False)

    def test_late_discard_leaves_the_replacement_pool_alone(self):
        # Threads A and B both hold pool P1 when it breaks.  B discards
        # it first and retries on a fresh P2; A's late discard of P1 must
        # neither shut P2 down nor force a third pool.
        built = []

        class RecordingPool(InlinePool):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.shut_down = False
                built.append(self)

            def shutdown(self, wait=True, **_):
                self.shut_down = True

        metrics = MetricsRegistry()
        supervisor = PoolSupervisor(
            1, _fast_retry(), metrics, factory=RecordingPool
        )
        a_holds_p1 = threading.Event()
        b_on_p2 = threading.Event()
        seen_by_a = []
        results = {}

        def use_a(pool):
            seen_by_a.append(pool)
            if len(seen_by_a) == 1:
                a_holds_p1.set()
                assert b_on_p2.wait(timeout=5)
                raise BrokenProcessPool("A sees P1 break, late")
            return pool

        def use_b(pool):
            if pool is built[0]:
                raise BrokenProcessPool("B sees P1 break first")
            b_on_p2.set()
            return pool

        thread_a = threading.Thread(
            target=lambda: results.update(a=supervisor.run(use_a))
        )
        thread_a.start()
        assert a_holds_p1.wait(timeout=5)
        p2 = supervisor.run(use_b)
        thread_a.join(timeout=5)
        assert not thread_a.is_alive()
        p1 = built[0]
        assert len(built) == 2 and p2 is built[1]
        assert results["a"] is p2  # A retried on B's replacement
        assert supervisor.pool() is p2 and not p2.shut_down
        assert p1.shut_down
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.pool_broken"] == 2
        assert counters["resilience.retries"] == 2


# -- batch / sweep runner supervision ----------------------------------


@pytest.fixture
def pool_builds(monkeypatch):
    """Batch and sweep pools become :class:`InlinePool`s; list each build."""
    from repro.resilience import pool as pool_mod

    built = []

    def factory(max_workers):
        built.append(max_workers)
        return InlinePool(max_workers)

    monkeypatch.setattr(pool_mod, "default_pool_factory", factory)
    return built


def _counters(session):
    return session.metrics.snapshot()["counters"]


class TestBatchSupervision:
    def _jobs(self):
        return [
            Job(benchmark="fpd", tc_ratio=1.4, label="a"),
            Job(benchmark="fpd", tc_ratio=1.6, label="b"),
        ]

    def test_broken_pool_retries_once_then_succeeds(self, pool_builds):
        session = Session()
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN, times=1)])
        with faults.installed(plan):
            records = session.optimize_many(self._jobs(), workers=2)
        assert len(records) == 2
        assert len(pool_builds) == 2  # the broken pool and its replacement
        counters = _counters(session)
        assert counters["resilience.pool_broken"] == 1
        assert counters["resilience.retries"] == 1
        assert "resilience.fallbacks" not in counters

    def test_crash_reruns_only_the_undelivered_job(
        self, pool_builds, monkeypatch
    ):
        # Job "a" completes on the pool, then job "b"'s future breaks:
        # the retry on a fresh pool runs "b" alone.
        serial = [r.to_dict() for r in Session().optimize_many(self._jobs())]
        ran = []
        real = Session.optimize

        def counting(self, job, warm=None):
            ran.append(job.label)
            return real(self, job, warm=warm)

        monkeypatch.setattr(Session, "optimize", counting)
        session = Session()
        plan = FaultPlan(
            [FaultSpec(faults.SITE_POOL_BROKEN, after=1, times=1)]
        )
        with faults.installed(plan):
            records = session.optimize_many(self._jobs(), workers=2)
        assert ran == ["a", "b"]
        assert len(pool_builds) == 2
        assert [
            _strip_timing(r.to_dict()) for r in records
        ] == [_strip_timing(d) for d in serial]
        counters = _counters(session)
        assert counters["resilience.pool_broken"] == 1
        assert counters["resilience.retries"] == 1
        assert counters["jobs_run"] == 2

    def test_pool_wait_stops_with_the_running_job(self, monkeypatch):
        # A batch inside a stopped job stops waiting on its workers and
        # discards the pool instead of waiting on it.
        from repro.resilience import pool as pool_mod

        shut_down = []

        class HangingPool:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                return Future()  # a worker that never answers

            def shutdown(self, wait=True, **_):
                shut_down.append(wait)

        monkeypatch.setattr(pool_mod, "default_pool_factory", HangingPool)
        session = Session()
        token = CancelToken()
        raised = []

        def batch():
            with token.running(None):
                try:
                    session.optimize_many(self._jobs(), workers=2)
                except JobCancelledError as exc:
                    raised.append(exc)

        thread = threading.Thread(target=batch, daemon=True)
        thread.start()
        time.sleep(0.2)
        token.stop("cancelled by test")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(raised) == 1
        assert shut_down[0] is False  # discarded, not awaited

    def test_broken_pool_twice_falls_back_serial(self, pool_builds):
        session = Session()
        serial = [r.to_dict() for r in Session().optimize_many(self._jobs())]
        # Every submission breaks: the first try and its one retry.
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN, times=100)])
        with faults.installed(plan):
            records = session.optimize_many(self._jobs(), workers=2)
        assert [
            _strip_timing(r.to_dict()) for r in records
        ] == [_strip_timing(d) for d in serial]
        counters = _counters(session)
        assert counters["resilience.pool_broken"] == 2
        assert counters["resilience.retries"] == 1
        assert counters["resilience.fallbacks"] == 1

    def test_transport_error_goes_straight_to_serial(self, monkeypatch):
        from repro.resilience import pool as pool_mod

        calls = []

        def no_pool(max_workers):
            calls.append(max_workers)
            raise OSError("no semaphores")

        monkeypatch.setattr(pool_mod, "default_pool_factory", no_pool)
        session = Session()
        records = session.optimize_many(self._jobs(), workers=2)
        assert len(records) == 2
        assert len(calls) == 1  # no retry for transport errors
        counters = _counters(session)
        assert "resilience.pool_broken" not in counters
        assert counters["resilience.fallbacks"] == 1


class TestSweepSupervision:
    def _spec(self):
        return SweepSpec(
            benchmarks=("fpd",), tc_ratio_points=(1.4, 1.6), scope="path"
        )

    def test_broken_pool_finishes_serially_with_identical_records(
        self, pool_builds
    ):
        from repro.explore import run_sweep

        reference = run_sweep(Session(), self._spec())
        session = Session()
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN, times=100)])
        with faults.installed(plan):
            result = run_sweep(session, self._spec(), workers=2, chunk_size=1)
        assert [
            _strip_timing(r.to_dict()) for r in result.records
        ] == [_strip_timing(r.to_dict()) for r in reference.records]
        counters = _counters(session)
        assert counters["resilience.pool_broken"] == 2  # first try + one retry
        assert counters["resilience.retries"] == 1
        assert counters["resilience.fallbacks"] == 1

    def test_store_write_error_is_raised_not_blamed_on_the_pool(
        self, pool_builds, monkeypatch, tmp_path
    ):
        # Filing the first pooled point fails once: the sweep raises that
        # OSError, the pool is not disabled, and a resume completes it.
        from repro.explore import CampaignStore, run_sweep

        reference = run_sweep(Session(), self._spec())
        real = CampaignStore.append
        failures = []

        def flaky(self, job, record):
            if not failures:
                failures.append(job.name)
                raise OSError("disk full")
            real(self, job, record)

        monkeypatch.setattr(CampaignStore, "append", flaky)
        session = Session()
        store = str(tmp_path / "campaign")
        with pytest.raises(OSError, match="disk full"):
            run_sweep(session, self._spec(), store=store, workers=2, chunk_size=1)
        counters = _counters(session)
        assert "resilience.pool_disabled" not in counters
        assert "resilience.fallbacks" not in counters
        assert len(pool_builds) == 1
        result = run_sweep(
            session, self._spec(), store=store, resume=True, workers=2,
            chunk_size=1,
        )
        assert [
            _strip_timing(r.to_dict()) for r in result.records
        ] == [_strip_timing(r.to_dict()) for r in reference.records]
        assert "resilience.pool_disabled" not in _counters(session)

    def test_transport_error_finishes_serially_without_retry(
        self, monkeypatch
    ):
        from repro.explore import run_sweep
        from repro.resilience import pool as pool_mod

        calls = []

        def no_pool(max_workers):
            calls.append(max_workers)
            raise ImportError("no multiprocessing here")

        monkeypatch.setattr(pool_mod, "default_pool_factory", no_pool)
        session = Session()
        result = run_sweep(session, self._spec(), workers=2, chunk_size=1)
        assert len(result.records) == 2
        assert len(calls) == 1
        assert _counters(session)["resilience.fallbacks"] == 1

    def test_served_sweep_pool_events_reach_the_resilience_block(
        self, pool_builds, tmp_path
    ):
        # The daemon's sweep pool counts on the session registry, the one
        # the ``resilience`` block of ``pops status`` reads.
        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"), threads=1,
            heavy_threads=1, procs=2,
        )
        spec = SweepSpec(
            benchmarks=("fpd", "adder16"), tc_ratio_points=(1.4,),
            scope="path",
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN, times=1)])
        try:
            with faults.installed(plan):
                client.submit("sweep", spec)
            counters = client.status()["resilience"]["counters"]
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=60)
        assert len(pool_builds) == 2  # the broken pool and its replacement
        assert counters["resilience.pool_broken"] == 1
        assert counters["resilience.retries"] == 1


# -- client resilience -------------------------------------------------


class TestClientResilience:
    def test_wait_ready_reports_the_last_underlying_error(self, tmp_path):
        client = ServeClient(
            socket_path=str(tmp_path / "nowhere.sock"),
            retry=RetryPolicy(attempts=2, base_s=0.01, jitter=0.0),
        )
        with pytest.raises(ServeClientError) as excinfo:
            client.wait_ready(timeout_s=0.2)
        message = str(excinfo.value)
        assert "not ready after" in message
        assert "last error" in message
        assert "nowhere.sock" in message  # the underlying connect failure
        assert excinfo.value.__cause__ is not None

    def test_failed_connects_close_their_sockets(self, tmp_path):
        """A refused connect leaves no socket for the collector to warn about."""
        client = ServeClient(
            socket_path=str(tmp_path / "nowhere.sock"),
            retry=RetryPolicy(attempts=2, base_s=0.01, jitter=0.0),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ServeClientError):
                client.ping()
            with pytest.raises(ServeClientError):
                client.wait_ready(timeout_s=0.05)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_submit_gives_up_with_transient_error(self, tmp_path):
        client = ServeClient(
            socket_path=str(tmp_path / "nowhere.sock"),
            retry=RetryPolicy(attempts=2, base_s=0.01, jitter=0.0),
        )
        with pytest.raises(ServeClientError) as excinfo:
            client.submit("bounds", Job(benchmark="fpd"))
        assert "gave up after 2 attempt(s)" in str(excinfo.value)
        assert excinfo.value.transient
        assert client.reconnects == 1

    def test_stream_drop_resumes_to_byte_identical_record(self, tmp_path):
        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"),
            threads=2, heavy_threads=1,
            store_dir=str(tmp_path / "store"),
        )
        server, thread = start_server_thread(config)
        client = ServeClient(
            socket_path=config.socket_path,
            retry=RetryPolicy(attempts=3, base_s=0.01, jitter=0.0),
        )
        try:
            job = Job(benchmark="fpd", tc_ratio=1.4)
            baseline = client.submit("optimize", job)["record"]

            # Drop the stream after the first event of the next request:
            # the client reconnects and resubmits; the store serves the
            # identical record (idempotent resume).
            plan = FaultPlan(
                [FaultSpec(faults.SITE_STREAM_DROP, after=1, times=1)]
            )
            with faults.installed(plan):
                done = client.submit("optimize", job)
            assert plan.fired() == {faults.SITE_STREAM_DROP: 1}
            assert client.reconnects == 1
            assert json.dumps(done["record"], sort_keys=True) == json.dumps(
                baseline, sort_keys=True
            )
            assert done["cached"] is True  # resumed from the result store
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=60)

    def test_cancel_withdraws_a_queued_job(self, tmp_path):
        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"), threads=1,
            heavy_threads=1,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        try:
            server.pause()  # hold workers so the ticket stays queued
            job = Job(benchmark="fpd", tc_ratio=1.4)
            key = ServeClient.spec_key("optimize", job)
            errors = []

            def waiter():
                try:
                    ServeClient(socket_path=config.socket_path).submit(
                        "optimize", job
                    )
                except ServeClientError as exc:
                    errors.append(exc)

            waiting = threading.Thread(target=waiter)
            waiting.start()
            deadline = time.monotonic() + 10
            while server.stats.submitted < 1:
                assert time.monotonic() < deadline, "submit never arrived"
                time.sleep(0.01)

            assert client.cancel(key) is True
            waiting.join(timeout=10)
            assert not waiting.is_alive()
            assert len(errors) == 1
            assert "cancelled" in str(errors[0])
            assert server.stats.cancelled == 1

            # cancelling an unknown key is a refusal, not an error
            assert client.cancel("0" * 64) is False
            server.resume()
            # the worker skips the withdrawn ticket; the daemon stays
            # healthy and runs new work
            record = client.submit("bounds", Job(benchmark="fpd"))["record"]
            assert record["kind"] == "bounds"
        finally:
            server.resume()
            server.request_shutdown(drain=True)
            thread.join(timeout=60)

    def test_cancel_stops_a_running_circuit_optimize(self, tmp_path, monkeypatch):
        """A cancel reaches a running job: its waiter gets the cancelled
        error at once, the job stops before its next path, and the heavy
        worker and the populate locks are free for the next job."""
        from repro.protocol import optimizer

        entered, release = threading.Event(), threading.Event()
        paths = []
        real_optimize_path = optimizer.optimize_path

        def held_first_path(*args, **kwargs):
            paths.append(1)
            if len(paths) == 1:
                entered.set()
                release.wait(60)
            return real_optimize_path(*args, **kwargs)

        monkeypatch.setattr(optimizer, "optimize_path", held_first_path)
        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"), threads=1,
            heavy_threads=1,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        job = Job(benchmark="c880", tc_ratio=1.3, scope="circuit")
        try:
            errors = []

            def waiter():
                try:
                    ServeClient(socket_path=config.socket_path).submit(
                        "optimize", job
                    )
                except ServeClientError as exc:
                    errors.append(exc)

            waiting = threading.Thread(target=waiter)
            waiting.start()
            assert entered.wait(120), "the optimize never reached a path"
            assert client.cancel(ServeClient.spec_key("optimize", job)) is True
            waiting.join(timeout=10)
            assert not waiting.is_alive()
            assert len(errors) == 1 and "cancelled" in str(errors[0])
            release.set()

            # The heavy worker runs the next job (a path-scope optimize,
            # which the held wrapper does not see) ...
            done = client.submit("optimize", Job(benchmark="fpd", tc_ratio=1.4))
            assert done["record"]["kind"] == "optimize-path"
            # ... the cancelled job stopped at the checkpoint before its
            # second path, and it left the populate locks free.
            assert len(paths) == 1
            session = server.session
            assert session.sta(session.benchmark("c880")).critical_delay_ps > 0
            serve = client.status()["serve"]
            assert (serve["cancelled"], serve["failed"]) == (1, 0)
        finally:
            release.set()
            server.request_shutdown(drain=True)
            thread.join(timeout=60)

    def test_light_job_overtakes_a_held_heavy_backlog(self, tmp_path):
        """Each pool drains its own queue: with one heavy job running and
        one queued behind it, a bounds job runs on the idle light thread
        and finishes first."""
        config = ServeConfig(
            socket_path=str(tmp_path / "pops.sock"), threads=1,
            heavy_threads=1,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        plan = FaultPlan([FaultSpec(faults.SITE_EXEC_SLOW, delay_s=3.0)])

        def submit(kind, job):
            return client.submit(kind, job), time.monotonic()

        try:
            with faults.installed(plan), ThreadPoolExecutor(2) as pool:
                held = pool.submit(
                    submit, "optimize", Job(benchmark="fpd", tc_ratio=1.4)
                )
                while plan.fired() != {faults.SITE_EXEC_SLOW: 1}:
                    time.sleep(0.005)
                queued = pool.submit(
                    submit, "optimize", Job(benchmark="fpd", tc_ratio=1.6)
                )
                while server.stats.submitted < 2:
                    time.sleep(0.005)
                started = time.monotonic()
                done, bounds_at = submit("bounds", Job(benchmark="fpd"))
                assert done["record"]["kind"] == "bounds"
                # The light thread was idle: no wait on the held 3 s job.
                assert bounds_at - started < 1.5
                held_done, held_at = held.result(timeout=60)
                assert bounds_at < held_at
                assert held_done["record"]["kind"] == "optimize-path"
                queued_done, _ = queued.result(timeout=60)
                assert queued_done["record"]["kind"] == "optimize-path"
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=60)


# -- the end-to-end chaos acceptance scenario --------------------------


class TestChaosEndToEnd:
    def test_seeded_plan_completes_with_identical_records(self, tmp_path):
        """The ISSUE's acceptance run: one pool-worker crash mid-optimize
        plus one dropped client stream, against a supervised daemon --
        every record byte-identical to the fault-free run, all recovery
        visible in ``serve_metrics``."""
        job = Job(benchmark="fpd", tc_ratio=1.4)

        # Fault-free reference run.
        ref_config = ServeConfig(
            socket_path=str(tmp_path / "ref.sock"), threads=2,
            heavy_threads=1, store_dir=str(tmp_path / "ref-store"),
        )
        ref_server, ref_thread = start_server_thread(ref_config)
        try:
            reference = ServeClient(socket_path=ref_config.socket_path).submit(
                "optimize", job
            )["record"]
        finally:
            ref_server.request_shutdown(drain=True)
            ref_thread.join(timeout=60)

        # Chaos run: supervised pool (InlinePool double), seeded plan.
        config = ServeConfig(
            socket_path=str(tmp_path / "chaos.sock"), threads=2,
            heavy_threads=1, procs=1,
            store_dir=str(tmp_path / "chaos-store"),
            retry=RetryPolicy(attempts=3, base_s=0.0, jitter=0.0),
            pool_factory=InlinePool,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(
            socket_path=config.socket_path,
            retry=RetryPolicy(attempts=3, base_s=0.01, jitter=0.0),
        )
        plan = FaultPlan(
            [
                FaultSpec(faults.SITE_POOL_BROKEN, times=1),
                FaultSpec(faults.SITE_STREAM_DROP, after=1, times=1),
            ],
            seed=42,
        )
        try:
            with faults.installed(plan):
                # Crashes one pool worker mid-optimize (supervised retry)
                # *and* drops this client's event stream after one event
                # (reconnect + idempotent resubmit, coalesce/store).
                done = client.submit("optimize", job)
            # Byte-identical on the deterministic record surface (the
            # repo's parity contract; wall-clock metadata may differ
            # between two live runs).
            assert _strip_timing(done["record"]) == _strip_timing(reference)
            assert plan.fired() == {
                faults.SITE_POOL_BROKEN: 1,
                faults.SITE_STREAM_DROP: 1,
            }
            assert client.reconnects == 1

            # Repeat submission: served from the content-addressed store,
            # byte-for-byte the record the chaos run filed.
            repeat = client.submit("optimize", job)
            assert repeat["cached"] is True
            assert json.dumps(repeat["record"], sort_keys=True) == json.dumps(
                done["record"], sort_keys=True
            )

            # All recovery machinery is visible in serve_metrics.
            snap = client.metrics()
            res = snap["resilience"]
            assert res["counters"]["resilience.pool_broken"] == 1
            assert res["counters"]["resilience.retries"] == 1
            assert res["breaker"]["state"] == "closed"
            assert snap["serve"]["submitted"] >= 2
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=60)
