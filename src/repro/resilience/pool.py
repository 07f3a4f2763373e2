"""One supervisor for every process pool the stack fans work out to.

:class:`PoolSupervisor` runs work on a lazily built pool and applies the
pool rows of the failure taxonomy (``docs/ARCHITECTURE.md``,
"Resilience"): a worker crash (``BrokenProcessPool``) discards the pool
*that broke* and retries on a fresh one under a
:class:`~repro.resilience.policy.RetryPolicy`, feeding the optional
breaker; ``OSError`` / ``ImportError`` mean no subprocesses here, so the
supervisor disables itself for good.  Giving up raises
:class:`PoolUnavailable` and the caller runs the work in-thread, which
yields the same records by contract.  Every event is a ``resilience.*``
counter on the owner's registry.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional, TypeVar

from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import CLOSED, CircuitBreaker
from repro.resilience.policy import JobCancelledError, JobTimeoutError, RetryPolicy

log = logging.getLogger("repro.resilience")

T = TypeVar("T")

#: Builds a process pool of ``max_workers`` workers.
PoolFactory = Callable[[int], Any]

#: The batch and sweep runners' policy: one immediate retry on a fresh pool.
RETRY_ONCE = RetryPolicy(attempts=2, base_s=0.0, jitter=0.0)


class PoolUnavailable(RuntimeError):
    """The supervisor gave up on its pool; run the work in-thread."""


def default_pool_factory(max_workers: int) -> Any:
    """A ``ProcessPoolExecutor``, the pool every supervisor defaults to."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


class PoolSupervisor:
    """Run work on a supervised process pool, or give up to in-thread.

    Parameters
    ----------
    workers:
        Pool size; ``0`` disables the pool (:meth:`run` raises at once).
    retry:
        Attempts and backoff for work whose pool broke mid-run.
    metrics:
        Registry the ``resilience.*`` counters land on.
    breaker:
        Optional circuit breaker fed every pool failure and success.
    factory:
        Pool constructor, :func:`default_pool_factory` when omitted.
    """

    def __init__(
        self,
        workers: int,
        retry: RetryPolicy,
        metrics: MetricsRegistry,
        breaker: Optional[CircuitBreaker] = None,
        factory: Optional[PoolFactory] = None,
    ) -> None:
        self.retry = retry
        self.metrics = metrics
        self.breaker = breaker
        self.factory = factory if factory is not None else default_pool_factory
        # Guards the lazy build, the discard check-and-clear and the
        # permanent disable: worker threads race through all three.
        self._lock = threading.Lock()
        self._workers = max(0, workers)
        self._pool: Optional[Any] = None

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    @property
    def workers(self) -> int:
        """Pool size; ``0`` once the environment proved it has no pools."""
        with self._lock:
            return self._workers

    def pool(self) -> Any:
        """The current pool, built on first use."""
        with self._lock:
            if self._pool is None:
                self._pool = self.factory(self._workers)
            return self._pool

    def discard(self, pool: Any) -> None:
        """Shut ``pool`` down unless another thread already replaced it."""
        with self._lock:
            if self._pool is not pool:
                return
            self._pool = None
        try:
            pool.shutdown(wait=False)
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    def shutdown(self, wait: bool = True) -> None:
        """Tear the current pool down; the next :meth:`pool` builds anew."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def run(self, use: Callable[[Any], T]) -> T:
        """Return ``use(pool)``; raise :class:`PoolUnavailable` on give-up.

        ``use`` may be called again on a fresh pool after a crash, and
        must return a job's own failure rather than raise it, so that no
        job error is mistaken for a transport failure.
        """
        if self.workers == 0 or (
            self.breaker is not None and not self.breaker.allow()
        ):
            raise PoolUnavailable("process pool disabled")
        delays = self.retry.delays()
        while True:
            try:
                pool = self.pool()
                result = use(pool)
            except (JobCancelledError, JobTimeoutError):
                self.discard(pool)  # never wait on a stopped job's workers
                raise
            except BrokenProcessPool as exc:  # raised by ``use(pool)``
                self.metrics.inc("resilience.pool_broken")
                self.discard(pool)
                if self.breaker is not None:
                    self.breaker.record_failure()
                    if self.breaker.state != CLOSED:
                        self.metrics.inc("resilience.breaker_trips")
                        log.error(
                            "process pool tripped the circuit breaker (%d "
                            "consecutive failures); work runs in-thread "
                            "until a probe succeeds",
                            self.breaker.failures,
                        )
                        break
                delay = next(delays, None)
                if delay is None:
                    log.error(
                        "pool worker crashed on all %d attempts (%s); work "
                        "runs in-thread",
                        self.retry.attempts,
                        exc,
                    )
                    break
                self.metrics.inc("resilience.retries")
                log.warning(
                    "pool worker crashed (%s); retrying on a fresh pool in "
                    "%.3fs",
                    exc,
                    delay,
                )
                if delay > 0:
                    time.sleep(delay)
            except (OSError, ImportError) as exc:
                self.metrics.inc("resilience.pool_disabled")
                log.warning(
                    "process pool unavailable (%s: %s); work runs in-thread "
                    "from now on",
                    type(exc).__name__,
                    exc,
                )
                with self._lock:
                    self._workers = 0
                break
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result
        self.metrics.inc("resilience.fallbacks")
        raise PoolUnavailable("process pool gave up")
