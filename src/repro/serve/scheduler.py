"""The worker side: one ticket in, one serialized run record out.

:class:`JobExecutor` owns the daemon's bounded worker pools and knows
how to run every submit kind against the shared session:

* **light pool** (threads): ``bounds`` / ``power`` / ``mc`` -- these are
  cache-warm after the first tenant (memoized extraction, compiled
  circuits, batch kernels) and release the GIL into numpy for the heavy
  part, so threads are the right grain;
* **heavy pool** (threads, optionally escalating to the existing
  process-pool machinery): ``optimize`` and ``sweep``, the CPU-bound
  protocol runs.  With ``procs > 0`` single optimizations ship to a
  ``ProcessPoolExecutor`` via the same worker entry
  (:func:`repro.api.session._optimize_job_worker`) the batch runner
  uses -- byte-identical records are the established contract -- and
  sweeps fan their chunks out through ``run_sweep``'s own pool support.

The executor is also where the resilience layer lives (see the
"Resilience" section of ``docs/ARCHITECTURE.md``):

* **deadlines** -- a job carrying ``Job.timeout_s`` (or a submit-level
  ``timeout_s``) runs on a detached deadline thread; when it expires,
  :class:`~repro.resilience.JobTimeoutError` frees the worker slot and
  the server emits a structured timeout error event (the abandoned
  computation finishes on its thread -- Python threads cannot be
  killed -- but no queue capacity waits on it);
* **pool supervision** -- a worker that crashes mid-job surfaces as
  ``BrokenProcessPool``: the pool is recreated and the job retried
  under the shared :class:`~repro.resilience.RetryPolicy`.  Transport
  errors (no semaphores / no fork support: ``OSError`` /
  ``ImportError``) mean subprocesses will *never* work here, so only
  they downgrade ``procs`` permanently -- logged and counted, never
  silent;
* a **circuit breaker** -- K consecutive pool failures trip execution
  to the always-available in-thread path; after a cooldown one probe
  job tests the pool again (half-open) and a success restores it.

Every retry, timeout, trip and fallback increments a ``resilience.*``
counter on the executor's :class:`~repro.obs.metrics.MetricsRegistry`
(the server shares its registry, so all of it surfaces in
``serve_metrics`` and the ``metrics`` protocol op).

Results always cross this boundary in *serialized* form (the record's
lossless dict), which is exactly what the coalescing fan-out and the
content-addressed store file, and what pins server records
byte-identical to direct ``Session`` calls.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional

from repro.api.job import Job, SweepSpec
from repro.api.session import (
    JOB_ERROR_KEY,
    Session,
    _optimize_job_worker,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience import CircuitBreaker, JobTimeoutError, RetryPolicy
from repro.resilience import faults
from repro.serve.protocol import ProtocolError

log = logging.getLogger("repro.serve")

#: Kinds routed to the heavy pool (full protocol runs).
HEAVY_KINDS = ("optimize", "sweep")

#: Emits one already-shaped progress event (thread-safe on the server).
EventFn = Callable[[Dict[str, Any]], None]

#: Builds a process pool (injectable: chaos tests hand in
#: :class:`repro.resilience.InlinePool`).
PoolFactory = Callable[[int], Any]


def _default_pool_factory(max_workers: int) -> Any:
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


class JobExecutor:
    """Bounded worker pools + the kind dispatch table.

    Parameters
    ----------
    session:
        The shared (lock-guarded) session every job runs against.
    threads / heavy_threads:
        Light / heavy thread-pool sizes.
    procs:
        When positive, ``optimize`` jobs escalate to a process pool of
        this size and ``sweep`` jobs pass it as their ``workers`` fan-
        out.  Zero keeps everything in-thread (always available).
    retry:
        Policy for retrying a job whose pool worker crashed mid-run
        (``BrokenProcessPool``); the pool is recreated between attempts.
    breaker:
        Circuit breaker over the process-pool path; trips to in-thread
        execution after K consecutive pool failures.
    metrics:
        Registry the ``resilience.*`` counters land on (the server
        passes its own so everything shows up in ``serve_metrics``).
    timeout_s:
        Default per-job deadline; ``Job.timeout_s`` or a submit-level
        ``timeout_s`` override it per job.  ``None`` disables deadlines.
    pool_factory:
        Process-pool constructor (tests inject a deterministic double).
    """

    def __init__(
        self,
        session: Session,
        threads: int = 4,
        heavy_threads: int = 2,
        procs: int = 0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
        timeout_s: Optional[float] = None,
        pool_factory: Optional[PoolFactory] = None,
    ) -> None:
        if threads < 1 or heavy_threads < 1:
            raise ValueError("worker pools need at least one thread each")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.session = session
        self.threads = threads
        self.heavy_threads = heavy_threads
        self.procs = max(0, procs)
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeout_s = timeout_s
        self.pool_factory: PoolFactory = (
            pool_factory if pool_factory is not None else _default_pool_factory
        )
        self._light = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="pops-light"
        )
        self._heavy = ThreadPoolExecutor(
            max_workers=heavy_threads, thread_name_prefix="pops-heavy"
        )
        self._proc_pool: Optional[Any] = None
        # Deadline-guarded jobs run on this detached pool so the caller
        # can stop waiting; sized like the worker pools it shadows.
        self._deadline: Optional[ThreadPoolExecutor] = None
        self._abandoned = 0
        # Guards the lazily built pools and ``_abandoned``: worker threads
        # build, discard and count concurrently, and an unguarded lazy
        # build lets two threads each create a pool, leaking one.
        self._lock = threading.Lock()

    # -- pool selection ------------------------------------------------

    def executor_for(self, kind: str) -> ThreadPoolExecutor:
        """The thread pool a kind's work runs on."""
        return self._heavy if kind in HEAVY_KINDS else self._light

    def pool_name(self, kind: str) -> str:
        """``"heavy"`` or ``"light"`` -- the pool :meth:`executor_for` picks.

        Job-lifecycle events and the serve metrics report this label so
        operators can see which pool each kind actually landed on.
        """
        return "heavy" if kind in HEAVY_KINDS else "light"

    def _process_pool(self) -> Any:
        with self._lock:
            if self._proc_pool is None:
                self._proc_pool = self.pool_factory(self.procs)
            return self._proc_pool

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next attempt builds a fresh one."""
        with self._lock:
            pool = self._proc_pool
            self._proc_pool = None
            if pool is not None:
                try:
                    pool.shutdown(wait=False)
                except Exception:  # pragma: no cover - best-effort teardown
                    pass

    def _deadline_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._deadline is None:
                self._deadline = ThreadPoolExecutor(
                    max_workers=self.threads + self.heavy_threads,
                    thread_name_prefix="pops-deadline",
                )
            return self._deadline

    # -- execution -----------------------------------------------------

    def run(
        self,
        kind: str,
        payload: Dict[str, Any],
        progress: Optional[EventFn] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Execute one unit of work; return the record's lossless dict.

        Runs *in a worker thread* (the server dispatches it via
        ``run_in_executor``).  Job exceptions propagate to the caller,
        which turns them into error events.  ``timeout_s`` is the
        deadline precedence chain: the submit-level value here, else the
        job's own ``timeout_s`` field, else the executor default; when
        one applies and expires, :class:`JobTimeoutError` is raised and
        the worker slot is freed (the abandoned computation finishes on
        a detached deadline thread).
        """
        deadline = timeout_s
        if deadline is None:
            value = payload.get("timeout_s")
            deadline = float(value) if value is not None else self.timeout_s
        if deadline is None:
            return self._dispatch(kind, payload, progress)
        future = self._deadline_pool().submit(
            self._dispatch, kind, payload, progress
        )
        try:
            return future.result(timeout=deadline)
        except FuturesTimeoutError:
            future.cancel()  # free the slot if it never started
            with self._lock:
                self._abandoned += 1
            self.metrics.inc("resilience.timeouts")
            log.warning("%s job exceeded its %.3fs deadline", kind, deadline)
            raise JobTimeoutError(
                f"{kind} job exceeded its {deadline:g}s deadline",
                timeout_s=deadline,
            ) from None

    def _dispatch(
        self,
        kind: str,
        payload: Dict[str, Any],
        progress: Optional[EventFn],
    ) -> Dict[str, Any]:
        # Injected slowness lands here, inside the deadline guard, so a
        # fault plan can drive a job over its timeout deterministically.
        faults.maybe_sleep(faults.SITE_EXEC_SLOW)
        if kind == "bounds":
            return self.session.bounds(Job.from_dict(payload)).to_dict()
        if kind == "power":
            return self.session.power(Job.from_dict(payload)).to_dict()
        if kind == "mc":
            return self.session.mc(Job.from_dict(payload)).to_dict()
        if kind == "optimize":
            return self._run_optimize(Job.from_dict(payload))
        if kind == "sweep":
            return self._run_sweep(SweepSpec.from_dict(payload), progress)
        raise ProtocolError(f"unsupported submit kind {kind!r}")

    def _run_optimize(self, job: Job) -> Dict[str, Any]:
        """One optimization: supervised process pool, or in-thread.

        The pool path is guarded three ways.  A worker crash
        (``BrokenProcessPool``) recreates the pool and retries under
        :attr:`retry`; every crash also feeds :attr:`breaker`, which
        trips to in-thread execution after K consecutive failures and
        half-open-probes the pool later.  Transport/import errors mean
        this environment cannot run subprocesses at all, so only they
        downgrade :attr:`procs` permanently -- with a log line and a
        counter, never silently.
        """
        if self.procs > 0 and self.breaker.allow():
            task = (
                self.session.library,
                self.session.flimits(),
                self.session.bench_dir,
                job.to_dict(),
            )
            delays = self.retry.delays()
            while True:
                try:
                    outcome = self._process_pool().submit(
                        _optimize_job_worker, task
                    ).result()
                except BrokenProcessPool:
                    self.metrics.inc("resilience.pool_broken")
                    self.breaker.record_failure()
                    self._discard_pool()
                    self.metrics.inc("resilience.pool_recreated")
                    if self.breaker.state != "closed":
                        self.metrics.inc("resilience.breaker_trips")
                        log.error(
                            "process pool tripped the circuit breaker "
                            "(%d consecutive failures); optimize jobs run "
                            "in-thread until a probe succeeds",
                            self.breaker.failures,
                        )
                        break
                    try:
                        delay = next(delays)
                    except StopIteration:
                        log.error(
                            "job %r: pool worker crashed on every attempt "
                            "(%d); falling back in-thread",
                            job.name,
                            self.retry.attempts,
                        )
                        break
                    self.metrics.inc("resilience.retries")
                    log.warning(
                        "job %r: pool worker crashed mid-run; retrying on a "
                        "fresh pool in %.3fs",
                        job.name,
                        delay,
                    )
                    if delay > 0:
                        time.sleep(delay)
                except (OSError, ImportError) as exc:
                    # No working subprocess support in this environment:
                    # permanently fall back to in-thread execution (same
                    # records, by contract) -- visibly.
                    self.metrics.inc("resilience.pool_disabled")
                    log.warning(
                        "process pool unavailable (%s: %s); optimize jobs "
                        "run in-thread from now on",
                        type(exc).__name__,
                        exc,
                    )
                    self.procs = 0
                    break
                else:
                    self.breaker.record_success()
                    if JOB_ERROR_KEY in outcome:
                        raise outcome[JOB_ERROR_KEY]
                    self.session.stats.jobs_run += 1
                    return outcome
            self.metrics.inc("resilience.fallbacks")
        return self.session.optimize(job).to_dict()

    def _run_sweep(
        self, spec: SweepSpec, progress: Optional[EventFn]
    ) -> Dict[str, Any]:
        """One sweep campaign; per-point completions stream as events."""
        from repro.explore import run_sweep

        progress_cb = None
        if progress is not None:

            def progress_cb(done: int, total: int, label: str) -> None:
                progress(
                    {
                        "event": "progress",
                        "done": int(done),
                        "total": int(total),
                        "label": label,
                    }
                )

        result = run_sweep(
            self.session,
            spec,
            workers=self.procs if self.procs > 0 else None,
            progress=progress_cb,
        )
        return result.record().to_dict()

    # -- lifecycle / observability -------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Tear the pools down (after the server drained its queue)."""
        # The thread pools shut down outside the lock: a heavy thread
        # may still need it to reach the process pool.
        self._light.shutdown(wait=wait)
        self._heavy.shutdown(wait=wait)
        with self._lock:
            if self._deadline is not None:
                # Never wait on abandoned (timed-out) computations.
                self._deadline.shutdown(wait=False, cancel_futures=True)
                self._deadline = None
            if self._proc_pool is not None:
                self._proc_pool.shutdown(wait=wait and self._abandoned == 0)
                self._proc_pool = None

    def stats(self) -> Dict[str, Any]:
        """Pool shape for the status endpoint."""
        return {
            "threads": self.threads,
            "heavy_threads": self.heavy_threads,
            "procs": self.procs,
        }

    def resilience_stats(self) -> Dict[str, Any]:
        """Retry/deadline/breaker state for ``serve_metrics``."""
        counters = self.metrics.snapshot()["counters"]
        return {
            "retry": {
                "attempts": self.retry.attempts,
                "base_s": self.retry.base_s,
                "max_delay_s": self.retry.max_delay_s,
            },
            "timeout_s": self.timeout_s,
            "abandoned": self._abandoned,
            "breaker": self.breaker.as_dict(),
            "counters": {
                name: value
                for name, value in counters.items()
                if name.startswith("resilience.")
            },
        }
