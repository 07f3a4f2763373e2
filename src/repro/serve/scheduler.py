"""The worker side: one ticket in, one serialized run record out.

:class:`JobExecutor` owns the daemon's worker threads and knows how to
run every submit kind against the shared session:

* **light pool** (its own server queue and threads): ``bounds`` /
  ``power`` / ``mc`` -- these are
  cache-warm after the first tenant (memoized extraction, compiled
  circuits, batch kernels) and release the GIL into numpy for the heavy
  part, so threads are the right grain;
* **heavy pool** (optionally escalating to a process pool):
  ``optimize`` and ``sweep``, the CPU-bound protocol runs.  An optimize
  job is a one-job chunk of the session's one job runner
  (:meth:`repro.api.session.Session.run_chunks`); with ``procs > 0`` it
  runs on the executor's supervised process pool through the runner's
  one worker entry, the one batches and sweeps use -- byte-identical
  records are the established contract.  Sweeps fan their chunks out
  through ``run_sweep``'s own per-call pool.

The executor is also where the resilience layer lives (see the
"Resilience" section of ``docs/ARCHITECTURE.md``):

* **stop tokens** -- each job runs under its ticket's
  :class:`~repro.resilience.CancelToken`, armed with its deadline; it
  raises at its next checkpoint once the deadline passes or ``cancel``
  / ``shutdown --now`` stop it, and frees its thread;
* **pool supervision** -- one long-lived
  :class:`~repro.resilience.PoolSupervisor` runs optimize jobs on the
  process pool: a worker crash (``BrokenProcessPool``) recreates the
  pool and retries under :attr:`JobExecutor.retry`, and transport
  errors (no semaphores / no fork support: ``OSError`` /
  ``ImportError``) drop ``procs`` to zero for good -- logged and
  counted, never silent;
* a **circuit breaker** -- K consecutive pool failures trip execution
  to the always-available in-thread path; after a cooldown one probe
  job tests the pool again (half-open) and a success restores it.

Every retry, timeout, trip and fallback increments a ``resilience.*``
counter on the session's :class:`~repro.obs.metrics.MetricsRegistry`
(``Session.metrics``), the one registry the optimize pool, the sweep
pools and the server all count on; :meth:`JobExecutor.resilience_stats`
is a view over it.

Results always cross this boundary in *serialized* form (the record's
lossless dict), which is exactly what the coalescing fan-out and the
content-addressed store file, and what pins server records
byte-identical to direct ``Session`` calls.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro.api.job import Job, SweepSpec
from repro.api.records import RunRecord
from repro.api.session import Session
from repro.resilience import CancelToken, CircuitBreaker, JobTimeoutError
from repro.resilience import RetryPolicy, faults
from repro.resilience.pool import PoolFactory, PoolSupervisor
from repro.serve.protocol import ProtocolError

log = logging.getLogger("repro.serve")

#: Kinds routed to the heavy pool (full protocol runs).
HEAVY_KINDS = ("optimize", "sweep")

#: Emits one already-shaped progress event (thread-safe on the server).
EventFn = Callable[[Dict[str, Any]], None]


class JobExecutor:
    """Bounded worker threads + the kind dispatch table.

    Parameters
    ----------
    session:
        The shared (lock-guarded) session every job runs against.
    threads / heavy_threads:
        Light / heavy pool sizes; :attr:`thread_pool` has their sum.
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
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.timeout_s = timeout_s
        #: The optimize jobs' process pool, built on first use.
        self.supervisor = PoolSupervisor(
            procs, self.retry, session.metrics, self.breaker, pool_factory
        )
        #: One thread per server queue worker: a dequeued ticket runs now.
        self.thread_pool = ThreadPoolExecutor(
            max_workers=threads + heavy_threads, thread_name_prefix="pops-worker"
        )

    @property
    def procs(self) -> int:
        """Process-pool size; ``0`` once subprocesses proved unavailable."""
        return self.supervisor.workers

    # -- pool selection ------------------------------------------------

    def pool_name(self, kind: str) -> str:
        """``"heavy"`` or ``"light"`` -- the pool whose queue a kind joins.

        Job-lifecycle events report this label so operators can see
        which pool each kind actually landed on.
        """
        return "heavy" if kind in HEAVY_KINDS else "light"

    # -- execution -----------------------------------------------------

    def run(
        self,
        kind: str,
        payload: Dict[str, Any],
        progress: Optional[EventFn] = None,
        timeout_s: Optional[float] = None,
        token: Optional[CancelToken] = None,
    ) -> Dict[str, Any]:
        """Execute one unit of work; return the record's lossless dict.

        Runs *in a worker thread* (the server dispatches it via
        ``run_in_executor``) under ``token``, the ticket's stop token,
        armed with the deadline: the submit-level ``timeout_s``, else
        the job's own ``timeout_s`` field, else the executor default.
        Job exceptions propagate to the caller, which turns them into
        error events.
        """
        if timeout_s is None:
            value = payload.get("timeout_s")
            timeout_s = float(value) if value is not None else self.timeout_s
        try:
            with (token or CancelToken()).running(timeout_s):
                return self._dispatch(kind, payload, progress)
        except JobTimeoutError as exc:
            self.session.metrics.inc("resilience.timeouts")
            log.warning("%s job exceeded its %gs deadline", kind, exc.timeout_s)
            raise

    def _dispatch(
        self,
        kind: str,
        payload: Dict[str, Any],
        progress: Optional[EventFn],
    ) -> Dict[str, Any]:
        # Injected slowness lands here, under the job's stop token, so a
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
        """One optimization: a one-job chunk of :meth:`Session.run_chunks`.

        It runs on :attr:`supervisor`'s process pool, which retries
        worker crashes under :attr:`retry`, feeds :attr:`breaker` and
        disables the pool for good on transport errors; when the
        supervisor gives up, the job runs in-thread (same record, by
        contract).  Either way it runs under its own eq. 4 memo, and a
        stopped job stops waiting on the pool.
        """
        records: List[RunRecord] = []
        self.session.run_chunks(
            [[job]], lambda _, record: records.append(record), self.supervisor
        )
        return records[0].to_dict()

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
        """Tear the pools down (after the server drained its queues)."""
        self.thread_pool.shutdown(wait=wait)
        self.supervisor.shutdown(wait=wait)

    def stats(self) -> Dict[str, Any]:
        """Pool shape for the status endpoint."""
        return {
            "threads": self.threads,
            "heavy_threads": self.heavy_threads,
            "procs": self.procs,
        }

    def resilience_stats(self) -> Dict[str, Any]:
        """Retry/deadline/breaker state for ``serve_metrics``."""
        return {
            "retry": {
                "attempts": self.retry.attempts,
                "base_s": self.retry.base_s,
                "max_delay_s": self.retry.max_delay_s,
            },
            "timeout_s": self.timeout_s,
            "breaker": self.breaker.as_dict(),
            "counters": self.session.metrics.counters("resilience."),
        }
