"""Tests for :mod:`repro.serve` -- the multi-tenant optimization daemon.

The acceptance surface of the serving layer:

* request coalescing (N concurrent identical submissions execute once,
  every waiter receives the same record);
* server records byte-identical to direct ``Session`` calls;
* graceful drain (backlog finishes, new submits are rejected);
* bounded LRU session caches with observable hit/miss/eviction counters;
* a content-addressed result store that survives daemon restarts.

Everything runs against an in-process daemon (``start_server_thread``)
talking over a real unix socket in ``tmp_path``.
"""

import asyncio
import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import BoundedCache, Job, RunRecord, Session, SweepSpec
from repro.api.store import ResultStore
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, FaultSpec, faults
from repro.serve import (
    ProtocolError,
    ServeClient,
    ServeClientError,
    ServeConfig,
    job_spec_key,
    start_server_thread,
)


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon with a result store; yields (server, client)."""
    config = ServeConfig(
        socket_path=str(tmp_path / "pops.sock"),
        threads=4,
        heavy_threads=2,
        store_dir=str(tmp_path / "store"),
        cache_limit=128,
    )
    server, thread = start_server_thread(config)
    client = ServeClient(socket_path=config.socket_path)
    yield server, client
    if not thread.is_alive():
        return
    server.request_shutdown(drain=True)
    thread.join(timeout=60)
    assert not thread.is_alive(), "daemon failed to shut down"


class TestProtocol:
    def test_spec_key_is_order_insensitive(self):
        a = {"benchmark": "fpd", "tc_ps": 900.0}
        b = {"tc_ps": 900.0, "benchmark": "fpd"}
        assert job_spec_key("optimize", a) == job_spec_key("optimize", b)

    def test_spec_key_separates_kinds(self):
        spec = Job(benchmark="fpd").to_dict()
        assert job_spec_key("bounds", spec) != job_spec_key("mc", spec)

    def test_spec_key_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            job_spec_key("frobnicate", {})

    def test_inline_circuits_hash_by_content(self):
        from repro.iscas.loader import load_benchmark

        j1 = Job(circuit=load_benchmark("fpd"), tc_ps=900.0)
        j2 = Job(circuit=load_benchmark("fpd"), tc_ps=900.0)
        assert j1.circuit is not j2.circuit
        assert job_spec_key("optimize", j1.to_dict()) == job_spec_key(
            "optimize", j2.to_dict()
        )

    def test_bad_requests_get_error_events(self, daemon):
        _, client = daemon
        for message in (
            {"op": "frobnicate"},
            {"op": "submit", "kind": "optimize"},  # no job payload
            {"op": "submit", "kind": "nope", "job": {}},
            {"op": "submit", "kind": "optimize", "job": {}, "priority": "hi"},
        ):
            events = list(client.request(message))
            assert len(events) == 1
            assert events[0]["event"] == "error"
            assert events[0]["error"]["type"] == "ProtocolError"

    def test_ping(self, daemon):
        _, client = daemon
        pong = client.ping()
        assert pong["event"] == "pong"
        assert pong["draining"] is False


class TestBoundedCache:
    def test_unbounded_is_a_dict_with_counters(self):
        cache = BoundedCache()
        cache["a"] = 1
        assert cache == {"a": 1}
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats() == {
            "size": 1, "maxsize": None, "hits": 1, "misses": 1, "evictions": 0,
            "hit_rate": 0.5,
        }

    def test_lru_eviction_order(self):
        cache = BoundedCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        cache.get("a")          # refresh 'a': 'b' is now least recent
        cache["c"] = 3
        assert "b" not in cache
        assert set(cache) == {"a", "c"}
        assert cache.evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = BoundedCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10
        assert set(cache) == {"a", "b"}
        assert cache.evictions == 0

    def test_peek_counts_nothing(self):
        cache = BoundedCache(maxsize=2)
        cache["a"] = 1
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        assert cache.hits == 0 and cache.misses == 0

    def test_getitem_refreshes_recency(self):
        cache = BoundedCache(maxsize=2)
        cache["a"] = 1
        cache["b"] = 2
        _ = cache["a"]
        cache["c"] = 3
        assert "a" in cache and "b" not in cache

    def test_clear_keeps_counters(self):
        cache = BoundedCache(maxsize=1)
        cache["a"] = 1
        cache["b"] = 2          # evicts 'a'
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 1

    def test_rejects_silly_maxsize(self):
        with pytest.raises(ValueError):
            BoundedCache(maxsize=0)


class TestSessionConcurrency:
    def test_bounded_session_evicts_and_counts(self):
        session = Session(cache_limit=2)
        for name in ("fpd", "adder16", "c432"):
            session.bounds(Job(benchmark=name))
        stats = session.cache_stats()
        assert stats["limit"] == 2
        bounds = stats["caches"]["bounds"]
        assert bounds["size"] == 2
        assert bounds["evictions"] == 1
        # evicted entry recomputes on the next miss, never served stale
        record = session.bounds(Job(benchmark="fpd"))
        assert record.kind == "bounds"
        assert stats["caches"]["bounds"]["maxsize"] == 2

    def test_cache_stats_shape(self):
        session = Session()
        session.bounds(Job(benchmark="fpd"))
        stats = session.cache_stats()
        assert set(stats["caches"]) == {
            "benchmarks", "sta", "engines", "paths", "bounds", "compiled",
        }
        assert stats["counters"]["jobs_run"] == 1

    def test_clear_caches_under_lock(self):
        session = Session()
        session.bounds(Job(benchmark="fpd"))
        session.clear_caches()
        assert all(
            c["size"] == 0 for c in session.cache_stats()["caches"].values()
        )

    def test_concurrent_readers_match_serial_reference(self):
        """Threads hammering one session reproduce the serial records."""
        serial = Session()
        reference = {
            ("bounds", name): serial.bounds(
                Job(benchmark=name)
            ).to_dict(with_timing=False)
            for name in ("fpd", "adder16")
        }
        reference[("mc", "fpd")] = serial.mc(
            Job(benchmark="fpd", mc_samples=64)
        ).to_dict(with_timing=False)

        shared = Session(cache_limit=64)

        def run(task):
            kind, name = task
            if kind == "bounds":
                return task, shared.bounds(
                    Job(benchmark=name)
                ).to_dict(with_timing=False)
            return task, shared.mc(
                Job(benchmark=name, mc_samples=64)
            ).to_dict(with_timing=False)

        tasks = list(reference) * 4
        with ThreadPoolExecutor(max_workers=8) as pool:
            for task, record in pool.map(run, tasks):
                assert record == reference[task]

    def test_barrier_stepped_mixed_load_matches_serial(self):
        """Path and circuit optimizes, a 2-point sweep and an mc job,
        released together by a barrier each round on one Session, give
        the serial run's records byte for byte."""
        from repro.explore import run_sweep

        def digests(records):
            return [
                hashlib.sha256(
                    json.dumps(
                        r.to_dict(with_timing=False), sort_keys=True
                    ).encode("utf-8")
                ).hexdigest()
                for r in records
            ]

        circuit = dict(scope="circuit", k_paths=2, max_passes=2)
        spec = SweepSpec(
            benchmarks=("c432",), tc_ratio_points=(1.3, 1.6), **circuit
        )
        tasks = {
            "path": lambda s: [s.optimize(Job(benchmark="c432", tc_ratio=1.4))],
            "circuit": lambda s: [
                s.optimize(Job(benchmark="c432", tc_ratio=1.45, **circuit))
            ],
            "sweep": lambda s: run_sweep(s, spec, with_power=False).records,
            "mc": lambda s: [
                s.mc(Job(benchmark="c432", mc_samples=64, tc_ratio=1.5))
            ],
        }
        serial = Session()
        reference = {name: digests(task(serial)) for name, task in tasks.items()}
        assert len(reference["sweep"]) == 2

        shared = Session(cache_limit=64)
        barrier = threading.Barrier(len(tasks))

        def run(name):
            rounds = []
            for _ in range(2):
                barrier.wait(timeout=120)
                rounds.append(digests(tasks[name](shared)))
            return name, rounds

        with ThreadPoolExecutor(max_workers=len(tasks)) as pool:
            for name, rounds in pool.map(run, tasks):
                assert rounds == [reference[name]] * 2, name

    def test_populate_lock_single_flight(self):
        """Concurrent misses on one key compute the value exactly once."""
        session = Session()
        calls = []
        lock = threading.Lock()

        def compute():
            with session._populate_lock("probe", "k"):
                value = session._bounds_cache.peek("k")
                if value is None:
                    with lock:
                        calls.append(1)
                    value = object()
                    session._bounds_cache["k"] = value
                return value

        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(lambda _: compute(), range(16)))
        assert len(calls) == 1
        assert all(v is values[0] for v in values)


class TestResultStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"), MetricsRegistry())
        key = job_spec_key("bounds", {"benchmark": "fpd"})
        assert store.get(key) is None
        store.put(key, {"kind": "bounds", "x": 1})
        assert store.get(key) == {"kind": "bounds", "x": 1}
        assert key in store
        assert store.stats() == {
            "root": str(tmp_path / "s"),
            "records": 1, "hits": 1, "misses": 1, "writes": 1,
            "quarantined": 0, "corrupt_files": 0,
        }

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"), MetricsRegistry())
        key = "ab" + "0" * 62
        store.put(key, {"ok": True})
        with open(store.path_for(key), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.get(key) is None

    def test_store_survives_daemon_restart(self, tmp_path):
        config = ServeConfig(
            socket_path=str(tmp_path / "a.sock"),
            threads=1,
            heavy_threads=1,
            store_dir=str(tmp_path / "store"),
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        job = Job(benchmark="fpd")
        first = client.submit("bounds", job)
        assert first["cached"] is False
        server.request_shutdown(drain=True)
        thread.join(timeout=60)

        config2 = ServeConfig(
            socket_path=str(tmp_path / "b.sock"),
            threads=1,
            heavy_threads=1,
            store_dir=str(tmp_path / "store"),
        )
        server2, thread2 = start_server_thread(config2)
        try:
            client2 = ServeClient(socket_path=config2.socket_path)
            again = client2.submit("bounds", job)
            assert again["cached"] is True
            assert again["record"] == first["record"]
            assert server2.stats.store_hits == 1
            assert server2.stats.executed == 0
        finally:
            server2.request_shutdown(drain=True)
            thread2.join(timeout=60)


class TestCoalescing:
    N = 6

    def test_concurrent_identical_submissions_execute_once(self, daemon):
        """The acceptance gate: N identical in-flight submits -> 1 run."""
        server, client = daemon
        job = Job(benchmark="fpd", tc_ratio=1.4)
        server.pause()  # hold workers so all N submissions are in flight

        def submit():
            events = []
            done = client.submit("optimize", job, on_event=events.append)
            return events, done

        with ThreadPoolExecutor(max_workers=self.N) as pool:
            futures = [pool.submit(submit) for _ in range(self.N)]
            # every submission must be queued (subscribed) before workers
            # resume, otherwise latecomers would hit the result store
            while server.stats.submitted < self.N:
                time.sleep(0.005)
            server.resume()
            outcomes = [f.result(timeout=120) for f in futures]

        assert server.stats.executed == 1
        assert server.stats.coalesced == self.N - 1
        coalesced_flags = sorted(
            events[0]["coalesced"] for events, _ in outcomes
        )
        assert coalesced_flags == [False] + [True] * (self.N - 1)
        records = [json.dumps(d["record"], sort_keys=True) for _, d in outcomes]
        assert len(set(records)) == 1  # every waiter got the same record
        assert all(d["waiters"] == self.N for _, d in outcomes)

    def test_distinct_specs_do_not_coalesce(self, daemon):
        server, client = daemon
        jobs = [Job(benchmark="fpd", mc_samples=64, mc_seed=s) for s in (1, 2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(client.submit, "mc", j) for j in jobs]
            records = [f.result(timeout=120)["record"] for f in futures]
        assert server.stats.coalesced == 0
        assert server.stats.executed == 2
        assert records[0] != records[1]

    def test_no_cache_still_coalesces_but_skips_store(self, daemon):
        server, client = daemon
        job = Job(benchmark="adder16")
        client.submit("bounds", job)
        assert server.stats.executed == 1
        # a no_cache repeat bypasses the store and re-executes
        done = client.submit("bounds", job, no_cache=True)
        assert done["cached"] is False
        assert server.stats.executed == 2
        # while a plain repeat is a store hit
        done = client.submit("bounds", job)
        assert done["cached"] is True
        assert server.stats.store_hits == 1


class TestByteParity:
    """Server records must be byte-identical to direct Session calls."""

    def check(self, client, kind, spec, direct_record):
        reference = direct_record.to_dict(with_timing=False)
        done = client.submit(kind, spec)
        served = RunRecord.from_dict(done["record"])
        assert served.to_dict(with_timing=False) == reference
        # and through the typed client surface too
        rebuilt = client.submit_record(kind, spec)
        assert rebuilt.to_dict(with_timing=False) == reference

    def test_optimize_parity(self, daemon):
        _, client = daemon
        job = Job(benchmark="fpd", tc_ratio=1.4)
        self.check(client, "optimize", job, Session().optimize(job))

    def test_mc_parity(self, daemon):
        _, client = daemon
        job = Job(benchmark="fpd", mc_samples=128, mc_seed=7)
        self.check(client, "mc", job, Session().mc(job))

    def test_sweep_parity_with_progress(self, daemon):
        from repro.explore import run_sweep

        def strip_timing(obj):
            # sweep payloads embed per-point elapsed_s alongside the
            # top-level timing with_timing=False removes
            if isinstance(obj, dict):
                return {
                    k: strip_timing(v)
                    for k, v in obj.items()
                    if k != "elapsed_s"
                }
            if isinstance(obj, list):
                return [strip_timing(v) for v in obj]
            return obj

        _, client = daemon
        spec = SweepSpec(
            benchmarks=("fpd",),
            tc_ratio_points=(1.3, 1.6),
            scope="path",
        )
        direct = run_sweep(Session(), spec).record()
        events = []
        done = client.submit("sweep", spec, on_event=events.append)
        served = RunRecord.from_dict(done["record"])
        assert strip_timing(served.to_dict(with_timing=False)) == strip_timing(
            direct.to_dict(with_timing=False)
        )
        progress = [e for e in events if e["event"] == "progress"]
        assert [p["done"] for p in progress] == [1, 2]
        assert progress[-1]["total"] == 2


class TestLifecycle:
    def test_graceful_drain_finishes_backlog(self, tmp_path):
        config = ServeConfig(
            socket_path=str(tmp_path / "drain.sock"),
            threads=2,
            heavy_threads=1,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        jobs = [Job(benchmark="fpd", mc_samples=64, mc_seed=s) for s in range(3)]

        server.pause()  # build a backlog the drain must finish
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(client.submit, "mc", j) for j in jobs]
            while server.stats.submitted < len(jobs):
                time.sleep(0.005)
            ack = client.shutdown(drain=True)
            assert ack["event"] == "shutting-down"
            # draining daemons reject new work with a clean error event
            with pytest.raises(ServeClientError, match="draining"):
                client.submit("bounds", Job(benchmark="adder16"))
            assert server.stats.rejected == 1
            server.resume()
            records = [f.result(timeout=120)["record"] for f in futures]

        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(records) == len(jobs)
        assert server.stats.executed == len(jobs)
        assert server.stats.failed == 0

    def test_immediate_shutdown_fails_backlog(self, tmp_path):
        """drain=False: the running job stops at its next checkpoint, the
        queued backlog never starts, and each waiter gets one shutdown
        error."""
        config = ServeConfig(
            socket_path=str(tmp_path / "now.sock"),
            threads=1,  # one light worker: job 0 runs, jobs 1 and 2 queue
            heavy_threads=1,
        )
        server, thread = start_server_thread(config)
        client = ServeClient(socket_path=config.socket_path)
        jobs = [Job(benchmark="fpd", mc_samples=64, mc_seed=s) for s in range(3)]
        # Job 0 sleeps in an injected fault, far past the test's patience.
        plan = FaultPlan([FaultSpec(faults.SITE_EXEC_SLOW, delay_s=120.0)])
        with faults.installed(plan), ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(client.submit, "mc", jobs[0])]
            while plan.fired() != {faults.SITE_EXEC_SLOW: 1}:
                time.sleep(0.005)
            futures += [pool.submit(client.submit, "mc", j) for j in jobs[1:]]
            while server.stats.submitted < len(jobs):
                time.sleep(0.005)
            client.shutdown(drain=False)
            for future in futures:
                with pytest.raises(ServeClientError, match="shut down"):
                    future.result(timeout=30)
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert server.stats.failed == len(jobs)
        assert server.stats.executed == 0
        assert plan.hits()[faults.SITE_EXEC_SLOW] == 1  # the backlog never ran

    def test_job_failure_is_an_error_event_not_a_crash(self, daemon):
        server, client = daemon
        with pytest.raises(ServeClientError) as excinfo:
            client.submit("bounds", {"benchmark": "c0000"})
        assert excinfo.value.error["type"] == "KeyError"
        assert server.stats.failed == 1
        # the daemon is still healthy afterwards
        assert client.ping()["event"] == "pong"

    def test_status_snapshot(self, daemon):
        server, client = daemon
        client.submit("bounds", Job(benchmark="fpd"))
        status = client.status()
        assert status["event"] == "status"
        assert status["serve"]["executed"] == 1
        assert status["queue"] == {"depth": 0, "inflight": 0}
        assert status["session"]["limit"] == 128
        assert status["store"]["writes"] == 1
        assert status["pools"]["threads"] == 4

    def test_config_needs_exactly_one_surface(self, tmp_path):
        with pytest.raises(ValueError):
            ServeConfig()
        with pytest.raises(ValueError):
            ServeConfig(socket_path="/tmp/x.sock", host="127.0.0.1")

    def test_tcp_surface(self):
        config = ServeConfig(host="127.0.0.1", port=0, threads=1,
                             heavy_threads=1)
        server, thread = start_server_thread(config)
        try:
            address = server.address
            client = ServeClient(host=address["host"], port=address["port"])
            assert client.ping()["event"] == "pong"
            done = client.submit("bounds", Job(benchmark="fpd"))
            assert done["record"]["kind"] == "bounds"
        finally:
            server.request_shutdown(drain=True)
            thread.join(timeout=60)

    def test_priority_orders_the_backlog(self):
        """Lower priority values dequeue sooner, FIFO within a class."""
        from repro.serve import JobTicket, PriorityJobQueue

        async def scenario():
            queue = PriorityJobQueue()
            for key, priority in (("slow", 5), ("later", 5), ("urgent", -1)):
                queue.put(
                    JobTicket(key=key, kind="mc", payload={}, priority=priority)
                )
            order = []
            while queue.depth:
                order.append((await queue.get()).key)
                queue.task_done()
            return order

        assert asyncio.run(scenario()) == ["urgent", "slow", "later"]

    def test_priority_field_reaches_the_ticket(self, daemon):
        server, client = daemon
        server.pause()
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(
                    client.submit,
                    "bounds",
                    Job(benchmark="fpd"),
                    priority=-3,
                )
                while not server._inflight:
                    time.sleep(0.005)
                (ticket,) = server._inflight.values()
                assert ticket.priority == -3
                server.resume()
                future.result(timeout=60)
        finally:
            server.resume()
