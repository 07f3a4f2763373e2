"""The asyncio daemon: one shared session, many tenants.

:class:`PopsServer` listens on a local socket (unix-domain by default,
TCP loopback optionally), speaks the NDJSON protocol of
:mod:`repro.serve.protocol`, and owns:

* one lock-guarded, bounded-cache :class:`~repro.api.session.Session`
  (the amortized state every request shares);
* one :class:`~repro.serve.queue.PriorityJobQueue` per worker pool
  (light, heavy), each drained by as many asyncio worker tasks as its
  pool has threads, all dispatching into the one thread pool of the
  :class:`~repro.serve.scheduler.JobExecutor`;
* the in-flight coalescing table (``spec key -> ticket``) and the
  optional content-addressed :class:`~repro.api.store.ResultStore`.

The daemon keeps no counters of its own: the executor, the store and
the server all count on the session's registry (``Session.metrics``),
and the ``serve``, ``store`` and ``resilience`` blocks of ``status`` and
the ``metrics`` op are views over it.

Lifecycle: ``await start()`` binds the socket and spawns workers;
``await wait_closed()`` parks until a shutdown request (or
:meth:`shutdown`) completes.  A draining shutdown stops accepting new
submissions immediately, finishes every queued and in-flight job (their
waiters all receive their ``done`` events), then tears the pools down.
``cancel`` and ``shutdown --now`` answer a job's waiters at once and
stop its token; the job raises at its next checkpoint.
"""

from __future__ import annotations

import asyncio
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__
from repro.api.job import Job, JobError
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.obs.metrics import CounterView, serve_metrics
from repro.obs.trace import Stopwatch
from repro.resilience import CircuitBreaker, JobCancelledError, JobTimeoutError
from repro.resilience import RetryPolicy
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_line,
    error_event,
    job_spec_key,
    validate_cancel,
    validate_request,
    validate_submit,
)
from repro.serve.queue import JobTicket, PriorityJobQueue
from repro.serve.scheduler import JobExecutor

#: The daemon's structured logger.  The package installs a NullHandler
#: on the root ``repro`` logger, so nothing is emitted unless the
#: embedding application (or ``pops serve --log-level``) configures
#: handlers -- opt-in by design.
log = logging.getLogger("repro.serve")

#: The ``serve`` block (``PopsServer.stats``): attribute -> registry
#: counter.  ``submitted`` counts accepted submit requests; of those,
#: ``store_hits`` were answered from the result store, ``coalesced``
#: attached to an in-flight ticket, and the rest were enqueued and
#: eventually ``executed`` or ``failed``.  ``rejected`` counts submits
#: refused while draining, ``cancelled`` queued or running tickets
#: stopped by the ``cancel`` op, and ``timeouts`` the jobs that died on
#: their deadline (a subset of ``failed``, which also counts the tickets
#: a ``shutdown --now`` stopped).
SERVE_COUNTERS = {
    "submitted": "serve.submitted",
    "executed": "serve.executed",
    "failed": "serve.failed",
    "coalesced": "serve.coalesced",
    "store_hits": "store.hits",
    "rejected": "serve.rejected",
    "connections": "serve.connections",
    "cancelled": "serve.cancelled",
    "timeouts": "resilience.timeouts",
}


@dataclass
class ServeConfig:
    """Everything a daemon needs to come up.

    Exactly one listening surface: ``socket_path`` (unix-domain, the
    default surface) or ``host``/``port`` (TCP loopback; port 0 binds an
    ephemeral port, readable from :attr:`PopsServer.address` after
    start).

    The resilience knobs (see ``docs/ARCHITECTURE.md`` "Resilience"):
    ``timeout_s`` is the default per-job deadline (``None`` disables
    deadlines; jobs and submits can override per request); ``retry`` is
    the pool-supervision backoff policy; ``breaker_failures`` /
    ``breaker_cooldown_s`` shape the circuit breaker that trips
    process-pool execution to in-thread after consecutive worker
    crashes.  ``pool_factory`` injects a process-pool constructor
    (chaos tests pass :class:`repro.resilience.InlinePool`).
    """

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    threads: int = 4
    heavy_threads: int = 2
    procs: int = 0
    store_dir: Optional[str] = None
    cache_limit: Optional[int] = 1024
    bench_dir: Optional[str] = None
    timeout_s: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    breaker_failures: int = 3
    breaker_cooldown_s: float = 30.0
    pool_factory: Optional[Any] = None

    def __post_init__(self) -> None:
        if (self.socket_path is None) == (self.host is None):
            raise ValueError(
                "give exactly one of 'socket_path' and 'host' (+'port')"
            )


class PopsServer:
    """The multi-tenant optimization daemon."""

    def __init__(
        self, config: ServeConfig, session: Optional[Session] = None
    ) -> None:
        self.config = config
        self.session = (
            session
            if session is not None
            else Session(
                bench_dir=config.bench_dir, cache_limit=config.cache_limit
            )
        )
        #: The session's registry: the ``serve.*`` counters, the store's
        #: and executor's counters and the lifecycle timing histograms
        #: (``serve.queue_wait_s``, ``serve.exec_s``).
        self.metrics = self.session.metrics
        self.executor = JobExecutor(
            self.session,
            threads=config.threads,
            heavy_threads=config.heavy_threads,
            procs=config.procs,
            retry=config.retry,
            breaker=CircuitBreaker(
                failures=config.breaker_failures,
                cooldown_s=config.breaker_cooldown_s,
            ),
            timeout_s=config.timeout_s,
            pool_factory=config.pool_factory,
        )
        self.store = (
            ResultStore(config.store_dir, self.metrics)
            if config.store_dir
            else None
        )
        #: Read-only view of the ``serve`` block (:data:`SERVE_COUNTERS`).
        self.stats = CounterView(self.metrics, SERVE_COUNTERS)
        #: One queue per worker pool, keyed by ``JobExecutor.pool_name``.
        self.queues = {"light": PriorityJobQueue(), "heavy": PriorityJobQueue()}
        self._inflight: Dict[str, JobTicket] = {}
        self._draining = False
        self._shutting_down = False
        self._started_unix = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List[asyncio.Task] = []
        self._closed: Optional[asyncio.Event] = None
        self._gate: Optional[asyncio.Event] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> Dict[str, Any]:
        """Where the daemon listens (JSON-native, for the ready line)."""
        if self.config.socket_path is not None:
            return {"socket": self.config.socket_path}
        port = self.config.port
        if self._server is not None and self._server.sockets:
            port = self._server.sockets[0].getsockname()[1]
        return {"host": self.config.host, "port": port}

    @property
    def depth(self) -> int:
        """Tickets queued on either pool and not yet picked up."""
        return sum(queue.depth for queue in self.queues.values())

    @property
    def draining(self) -> bool:
        """Whether a shutdown drain has begun (submits are rejected)."""
        return self._draining

    async def start(self) -> None:
        """Bind the socket and spawn the queue workers."""
        self.loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        self._gate = asyncio.Event()
        self._gate.set()
        self._started_unix = time.time()
        limit = MAX_LINE_BYTES + 1024
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path, limit=limit
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=limit,
            )
        sizes = {"light": self.config.threads, "heavy": self.config.heavy_threads}
        self._workers = [
            self.loop.create_task(self._worker(self.queues[pool]))
            for pool, size in sizes.items()
            for _ in range(size)
        ]
        log.info(
            "serving on %s (threads=%d heavy=%d procs=%d store=%s)",
            self.address,
            self.config.threads,
            self.config.heavy_threads,
            self.config.procs,
            self.config.store_dir or "none",
        )

    async def wait_closed(self) -> None:
        """Park until a shutdown has fully completed."""
        assert self._closed is not None, "server was never started"
        await self._closed.wait()

    async def run(self) -> None:
        """``start()`` then park until shutdown (the daemon main)."""
        await self.start()
        await self.wait_closed()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the daemon.

        ``drain=True`` (graceful): refuse new submissions, finish every
        queued and in-flight job -- all waiters get their ``done``
        events -- then exit.  ``drain=False``: every queued and running
        ticket is failed with a shutdown error and its token stopped, so
        running jobs end at their next checkpoint.
        """
        if self._shutting_down:
            return
        self._shutting_down = True
        self._draining = True
        log.info(
            "shutdown requested (drain=%s, queued=%d, inflight=%d)",
            drain,
            self.depth,
            len(self._inflight),
        )
        if not drain:
            for ticket in list(self._inflight.values()):
                self._withdraw(
                    ticket, "server shut down before the job finished", "serve.failed"
                )
        for queue in self.queues.values():
            await queue.join()
        for worker in self._workers:
            worker.cancel()  # idle in ``get`` once the queues are joined
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.executor.shutdown()
        if self.config.socket_path is not None:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        assert self._closed is not None
        self._closed.set()
        log.info("shutdown complete")

    def _withdraw(
        self, ticket: JobTicket, message: str, counter: str, **fields: Any
    ) -> None:
        """Stop ``ticket`` and answer its waiters (the worker then won't)."""
        self._inflight.pop(ticket.key, None)
        ticket.token.stop(message)
        self.metrics.inc(counter)
        ticket.publish(
            error_event(JobCancelledError(message), key=ticket.key, **fields)
        )

    # -- test / operational affordances --------------------------------

    def pause(self) -> None:
        """Hold workers before their next job (thread-safe, for tests)."""
        assert self.loop is not None and self._gate is not None
        self.loop.call_soon_threadsafe(self._gate.clear)

    def resume(self) -> None:
        """Release paused workers (thread-safe)."""
        assert self.loop is not None and self._gate is not None
        self.loop.call_soon_threadsafe(self._gate.set)

    def request_shutdown(self, drain: bool = True) -> None:
        """Schedule a shutdown from any thread."""
        assert self.loop is not None
        self.loop.call_soon_threadsafe(
            lambda: self.loop.create_task(self.shutdown(drain=drain))
        )

    # -- the status block ----------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The full observability snapshot (the ``status`` event body)."""
        status: Dict[str, Any] = {
            "event": "status",
            "version": PROTOCOL_VERSION,
            "pops": __version__,
            "pid": os.getpid(),
            "uptime_s": time.time() - self._started_unix,
            "draining": self._draining,
            "serve": self.stats.as_dict(),
            "queue": {
                "depth": self.depth,
                "inflight": len(self._inflight),
            },
            "pools": self.executor.stats(),
            "resilience": self.executor.resilience_stats(),
            "session": self.session.cache_stats(),
            # Job-lifecycle timing summaries (queue wait, execution) --
            # the extended-status surface of the observability layer.
            "timings": self.metrics.snapshot()["histograms"],
        }
        if self.store is not None:
            status["store"] = self.store.stats()
        return status

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.inc("serve.connections")
        try:
            raw = await reader.readline()
            if not raw:
                return
            try:
                message = decode_line(raw)
                op = validate_request(message)
            except ProtocolError as exc:
                await self._send(writer, error_event(exc))
                return
            if op == "ping":
                await self._send(
                    writer,
                    {
                        "event": "pong",
                        "version": PROTOCOL_VERSION,
                        "pops": __version__,
                        "draining": self._draining,
                    },
                )
            elif op == "status":
                await self._send(writer, self.status())
            elif op == "metrics":
                await self._send(
                    writer,
                    {
                        "event": "metrics",
                        "version": PROTOCOL_VERSION,
                        "metrics": serve_metrics(self),
                    },
                )
            elif op == "shutdown":
                drain = bool(message.get("drain", True))
                await self._send(
                    writer,
                    {
                        "event": "shutting-down",
                        "drain": drain,
                        "queued": self.depth + len(self._inflight),
                    },
                )
                assert self.loop is not None
                self.loop.create_task(self.shutdown(drain=drain))
            elif op == "cancel":
                await self._handle_cancel(message, writer)
            elif op == "submit":
                await self._handle_submit(message, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; any job it queued keeps running
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(
        self, writer: asyncio.StreamWriter, event: Dict[str, Any]
    ) -> None:
        writer.write(encode_line(event))
        await writer.drain()

    async def _handle_submit(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            self.metrics.inc("serve.rejected")
            log.warning("submit rejected: server is draining")
            await self._send(
                writer,
                error_event(
                    RuntimeError("server is draining; not accepting new work")
                ),
            )
            return
        try:
            kind, payload = validate_submit(message)
            if kind != "sweep" and self.session.backend_name != "analytic":
                # Key the job as the session stamps it (backend, .lib).
                payload = self.session._prepare_job(Job.from_dict(payload)).to_dict()
        except (ProtocolError, JobError) as exc:
            await self._send(writer, error_event(exc))
            return
        key = job_spec_key(kind, payload)
        self.metrics.inc("serve.submitted")

        # 1. Content-addressed store: repeat submissions skip the queue.
        if self.store is not None and not message.get("no_cache"):
            record = self.store.get(key)
            if record is not None:
                log.info("job %s kind=%s served from store", key[:12], kind)
                await self._send(
                    writer,
                    {
                        "event": "queued",
                        "key": key,
                        "kind": kind,
                        "coalesced": False,
                        "cached": True,
                    },
                )
                await self._send(
                    writer,
                    {
                        "event": "done",
                        "key": key,
                        "record": record,
                        "cached": True,
                    },
                )
                return

        # 2. Coalesce onto an in-flight ticket, or enqueue a new one.
        #    (No awaits between the lookup and subscribe: the check is
        #    atomic relative to the worker that retires the ticket.)
        ticket = self._inflight.get(key)
        coalesced = ticket is not None
        if ticket is None:
            ticket = JobTicket(
                key=key,
                kind=kind,
                payload=payload,
                priority=int(message.get("priority", 0)),
                timeout_s=message.get("timeout_s"),
            )
            self._inflight[key] = ticket
            self.queues[self.executor.pool_name(kind)].put(ticket)
        else:
            self.metrics.inc("serve.coalesced")
        log.info(
            "job %s kind=%s accepted (coalesced=%s, queue_depth=%d)",
            key[:12],
            kind,
            coalesced,
            self.depth,
        )
        events = ticket.subscribe()
        await self._send(
            writer,
            {
                "event": "queued",
                "key": key,
                "kind": kind,
                "coalesced": coalesced,
                "cached": False,
                "queue_depth": self.depth,
            },
        )

        # 3. Stream the ticket's events until it settles.
        while True:
            event = await events.get()
            await self._send(writer, event)
            if event.get("event") in ("done", "error"):
                break

    async def _handle_cancel(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        """Stop a queued or running job by its spec key."""
        try:
            key = validate_cancel(message)
        except ProtocolError as exc:
            await self._send(writer, error_event(exc))
            return
        ticket = self._inflight.get(key)
        if ticket is not None:
            self._withdraw(ticket, "job cancelled", "serve.cancelled", cancelled=True)
            log.info("job %s cancelled", key[:12])
        await self._send(
            writer, {"event": "cancelled", "key": key, "cancelled": ticket is not None}
        )

    # -- queue workers --------------------------------------------------

    async def _worker(self, queue: PriorityJobQueue) -> None:
        assert self._gate is not None
        while True:
            ticket = await queue.get()
            await self._gate.wait()
            try:
                if not ticket.token.stopped:  # else withdrawn while queued
                    await self._execute(ticket)
            finally:
                queue.task_done()

    async def _execute(self, ticket: JobTicket) -> None:
        assert self.loop is not None
        loop = self.loop
        pool = self.executor.pool_name(ticket.kind)
        queue_wait_s = time.perf_counter() - ticket.created_s
        self.metrics.observe("serve.queue_wait_s", queue_wait_s)
        ticket.publish(
            {
                "event": "started",
                "key": ticket.key,
                "kind": ticket.kind,
                "pool": pool,
                "queue_wait_s": queue_wait_s,
            }
        )
        log.info(
            "job %s kind=%s started on %s pool (waited %.3fs, waiters=%d)",
            ticket.key[:12],
            ticket.kind,
            pool,
            queue_wait_s,
            ticket.waiters,
        )

        def progress(event: Dict[str, Any]) -> None:
            # Called from worker threads: hop back onto the loop.
            payload = dict(event)
            payload["key"] = ticket.key
            loop.call_soon_threadsafe(ticket.publish, payload)

        sw = Stopwatch()
        failure: Optional[Exception] = None
        try:
            record = await loop.run_in_executor(
                self.executor.thread_pool,
                self.executor.run,
                ticket.kind,
                ticket.payload,
                progress,
                ticket.timeout_s,
                ticket.token,
            )
        except Exception as exc:
            failure = exc
        if ticket.token.stopped:
            return  # ``cancel`` or ``shutdown --now`` answered the ticket
        if failure is not None:
            self.metrics.inc("serve.failed")
            log.error(
                "job %s kind=%s failed: %s", ticket.key[:12], ticket.kind, failure
            )
            fields: Dict[str, Any] = {}
            if isinstance(failure, JobTimeoutError):  # the executor counted it
                fields = {"timeout": True, "timeout_s": failure.timeout_s}
            outcome = error_event(failure, key=ticket.key, **fields)
        else:
            self.metrics.inc("serve.executed")
            elapsed_s = sw.elapsed_s
            self.metrics.observe("serve.exec_s", elapsed_s)
            log.info(
                "job %s kind=%s done in %.3fs (fan-out to %d waiter(s))",
                ticket.key[:12],
                ticket.kind,
                elapsed_s,
                ticket.waiters,
            )
            if self.store is not None:
                self.store.put(ticket.key, record)
            outcome = {
                "event": "done",
                "key": ticket.key,
                "record": record,
                "cached": False,
                "elapsed_s": elapsed_s,
                "pool": pool,
                "waiters": ticket.waiters,
            }
        self._inflight.pop(ticket.key, None)
        ticket.publish(outcome)


def start_server_thread(
    config: ServeConfig,
    session: Optional[Session] = None,
    timeout_s: float = 30.0,
    server: Optional[PopsServer] = None,
) -> Tuple[PopsServer, threading.Thread]:
    """Run a daemon on a background thread; return once it listens.

    The embedding surface tests, examples and notebooks use: the caller
    talks to the returned server through a
    :class:`~repro.serve.client.ServeClient` (or its thread-safe
    ``pause``/``resume``/``request_shutdown`` affordances) and joins the
    thread after requesting shutdown.  A prebuilt ``server`` (already
    constructed from ``config``, e.g. with an injected pool factory) can
    be passed instead of having one constructed here.
    """
    if server is None:
        server = PopsServer(config, session=session)
    ready = threading.Event()
    failure: List[BaseException] = []

    def runner() -> None:
        async def main() -> None:
            await server.start()
            ready.set()
            await server.wait_closed()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surfaced to the starting thread
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=runner, name="pops-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout_s):
        raise RuntimeError("serve daemon did not come up in time")
    if failure:
        raise failure[0]
    return server, thread
