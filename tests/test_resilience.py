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
  the worker;
* a dropped client event stream reconnects and resumes idempotently;
* corrupt result-store entries are quarantined, counted, and agree
  between ``get`` and ``in``;
* the batch and sweep runners distinguish "no subprocess support"
  (permanent serial fallback) from "worker crashed" (retry first).
"""

import json
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import Job, RunRecord, Session, SweepSpec
from repro.api.job import JobError
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    FaultSpec,
    InlinePool,
    JobTimeoutError,
    RetryPolicy,
    faults,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serve import (
    PopsServer,
    ResultStore,
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
        store = ResultStore(str(tmp_path / "s"))
        key = "ab" + "0" * 62
        store.put(key, {"kind": "bounds", "x": 1})
        with open(store.path_for(key), "w", encoding="utf-8") as handle:
            handle.write('{"kind": "bounds", "x":')  # torn mid-value
        assert store.get(key) is None          # miss, not a crash
        assert key not in store                # membership agrees with get
        assert store.quarantined == 1
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
        store = ResultStore(str(tmp_path / "s"))
        key = "cd" + "0" * 62
        store.put(key, {"ok": True})
        with open(store.path_for(key), "w", encoding="utf-8") as handle:
            handle.write('[1, 2, 3]\n')  # valid JSON, wrong shape
        assert key not in store
        assert store.quarantined == 1

    def test_torn_write_site_produces_a_real_torn_file(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        key = "ef" + "0" * 62
        with faults.installed(FaultPlan([FaultSpec(faults.SITE_TORN_WRITE)])):
            store.put(key, {"kind": "bounds", "payload": list(range(50))})
        # The injected half-write landed at the final path; first contact
        # quarantines it and the store reports a miss.
        assert store.get(key) is None
        assert store.quarantined == 1
        assert store.corrupt_count() == 1


# -- executor deadlines and pool supervision ---------------------------


def _fast_retry(attempts=3):
    return RetryPolicy(attempts=attempts, base_s=0.0, jitter=0.0)


class TestExecutorDeadline:
    def test_deadline_expiry_raises_job_timeout(self):
        metrics = MetricsRegistry()
        executor = JobExecutor(
            Session(), threads=1, heavy_threads=1, metrics=metrics
        )
        plan = FaultPlan([FaultSpec(faults.SITE_EXEC_SLOW, delay_s=1.0)])
        job = Job(benchmark="fpd")
        try:
            with faults.installed(plan):
                with pytest.raises(JobTimeoutError) as excinfo:
                    executor.run("bounds", job.to_dict(), timeout_s=0.05)
            assert excinfo.value.timeout_s == 0.05
            snap = executor.resilience_stats()
            assert snap["counters"]["resilience.timeouts"] == 1
            assert snap["abandoned"] == 1
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
            assert executor.resilience_stats()["abandoned"] == 0
        finally:
            executor.shutdown(wait=False)

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

        metrics = MetricsRegistry()
        executor = JobExecutor(
            session, threads=1, heavy_threads=1, procs=1,
            retry=_fast_retry(), metrics=metrics, pool_factory=InlinePool,
        )
        plan = FaultPlan([FaultSpec(faults.SITE_POOL_BROKEN, times=1)])
        try:
            with faults.installed(plan):
                record = executor.run("optimize", job.to_dict())
            assert _strip_timing(record) == _strip_timing(baseline)
            counters = executor.resilience_stats()["counters"]
            assert counters["resilience.pool_broken"] == 1
            assert counters["resilience.retries"] == 1
            assert counters["resilience.pool_recreated"] == 1
            assert "resilience.fallbacks" not in counters
            assert executor.breaker.state == CLOSED
            assert executor.procs == 1  # crash never downgrades procs
        finally:
            executor.shutdown(wait=False)

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
            pools.append(executor._process_pool())

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


# -- batch / sweep runner supervision ----------------------------------


class TestBatchSupervision:
    def _jobs(self):
        return [
            Job(benchmark="fpd", tc_ratio=1.4, label="a"),
            Job(benchmark="fpd", tc_ratio=1.6, label="b"),
        ]

    def test_broken_pool_retries_once_then_succeeds(self, monkeypatch):
        session = Session()
        calls = {"n": 0}

        def flaky(self, jobs, workers):
            calls["n"] += 1
            if calls["n"] == 1:
                raise BrokenProcessPool("worker died")
            return [self.optimize(job) for job in jobs]

        monkeypatch.setattr(Session, "_optimize_parallel", flaky)
        records = session.optimize_many(self._jobs(), workers=2)
        assert len(records) == 2
        assert calls["n"] == 2
        assert session.stats.pool_broken == 1
        assert session.stats.pool_retries == 1
        assert session.stats.pool_fallbacks == 0

    def test_broken_pool_twice_falls_back_serial(self, monkeypatch):
        session = Session()

        def always_broken(self, jobs, workers):
            raise BrokenProcessPool("worker died again")

        monkeypatch.setattr(Session, "_optimize_parallel", always_broken)
        serial = [r.to_dict() for r in Session().optimize_many(self._jobs())]
        records = session.optimize_many(self._jobs(), workers=2)
        assert [
            _strip_timing(r.to_dict()) for r in records
        ] == [_strip_timing(d) for d in serial]
        assert session.stats.pool_broken == 2
        assert session.stats.pool_retries == 1
        assert session.stats.pool_fallbacks == 1

    def test_transport_error_goes_straight_to_serial(self, monkeypatch):
        session = Session()
        calls = {"n": 0}

        def no_pool(self, jobs, workers):
            calls["n"] += 1
            raise OSError("no semaphores")

        monkeypatch.setattr(Session, "_optimize_parallel", no_pool)
        records = session.optimize_many(self._jobs(), workers=2)
        assert len(records) == 2
        assert calls["n"] == 1  # no retry for transport errors
        assert session.stats.pool_broken == 0
        assert session.stats.pool_fallbacks == 1


class TestSweepSupervision:
    def _spec(self):
        return SweepSpec(
            benchmarks=("fpd",), tc_ratio_points=(1.4, 1.6), scope="path"
        )

    def test_broken_pool_finishes_serially_with_identical_records(
        self, monkeypatch
    ):
        from repro.explore import run_sweep
        from repro.explore import runner as runner_mod

        reference = run_sweep(Session(), self._spec())

        def always_broken(session, chunks, workers, on_chunk):
            raise BrokenProcessPool("worker died")

        monkeypatch.setattr(runner_mod, "_parallel_chunks", always_broken)
        session = Session()
        result = run_sweep(session, self._spec(), workers=2, chunk_size=1)
        assert [
            _strip_timing(r.to_dict()) for r in result.records
        ] == [_strip_timing(r.to_dict()) for r in reference.records]
        assert session.stats.pool_broken == 2  # first try + one retry
        assert session.stats.pool_retries == 1
        assert session.stats.pool_fallbacks == 1

    def test_transport_error_finishes_serially_without_retry(
        self, monkeypatch
    ):
        from repro.explore import run_sweep
        from repro.explore import runner as runner_mod

        calls = {"n": 0}

        def no_pool(session, chunks, workers, on_chunk):
            calls["n"] += 1
            raise ImportError("no multiprocessing here")

        monkeypatch.setattr(runner_mod, "_parallel_chunks", no_pool)
        session = Session()
        result = run_sweep(session, self._spec(), workers=2, chunk_size=1)
        assert len(result.records) == 2
        assert calls["n"] == 1
        assert session.stats.pool_fallbacks == 1


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
