"""``repro.resilience``: fault tolerance for the serving stack.

Stdlib-only building blocks threaded through serve and the Session job
runner (``Session.run_chunks``: batches, sweeps, served optimize jobs):

* :class:`~repro.resilience.policy.RetryPolicy` -- bounded attempts,
  exponential backoff, deterministic seeded jitter; shared by pool
  supervision, client reconnects and ``wait_ready`` polling;
* :class:`~repro.resilience.policy.CancelToken` -- each served job's stop
  flag and deadline, which the job checks at its ``checkpoint()`` calls;
* :class:`~repro.resilience.breaker.CircuitBreaker` -- trips the serve
  executor to in-thread execution after K consecutive process-pool
  failures and half-open-probes recovery;
* :class:`~repro.resilience.pool.PoolSupervisor` -- the one process-pool
  supervisor (crash retry, permanent disable, in-thread give-up via
  :class:`~repro.resilience.pool.PoolUnavailable`) behind the job
  runner's pools;
* :mod:`~repro.resilience.faults` -- the deterministic fault-injection
  harness (:class:`~repro.resilience.faults.FaultPlan`, named sites,
  ``POPS_FAULT_PLAN`` env hook) every chaos test drives.

See the "Resilience" section of ``docs/ARCHITECTURE.md`` for the
failure taxonomy and the retry/breaker defaults.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, FaultSpec, InlinePool
from repro.resilience.policy import CancelToken, JobCancelledError
from repro.resilience.policy import JobTimeoutError, RetryPolicy
from repro.resilience.pool import PoolSupervisor, PoolUnavailable

__all__ = [
    "CancelToken",
    "CircuitBreaker",
    "FaultPlan",
    "FaultSpec",
    "InlinePool",
    "JobCancelledError",
    "JobTimeoutError",
    "PoolSupervisor",
    "PoolUnavailable",
    "RetryPolicy",
]
