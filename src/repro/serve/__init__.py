"""``repro.serve``: the multi-tenant optimization service.

A long-lived asyncio daemon (:class:`~repro.serve.server.PopsServer`)
owns one shared, lock-guarded, bounded-cache
:class:`~repro.api.session.Session` and amortizes its memoized
characterisation, compiled circuits, STA engines and bounds across many
clients:

* requests arrive as NDJSON lines over a local socket
  (:mod:`repro.serve.protocol`), carrying the same frozen ``Job`` /
  ``SweepSpec`` dicts the rest of the repo speaks;
* one priority queue per worker pool feeds its bounded threads
  (:mod:`repro.serve.queue`, :mod:`repro.serve.scheduler`): light for
  cache-warm STA/MC jobs, heavy (optionally on a process pool) for
  CPU-heavy optimizations;
* identical in-flight submissions **coalesce** on the job-spec hash --
  N concurrent clients asking for the same spec pay for one execution
  and all receive the same :class:`~repro.api.records.RunRecord`;
* completed records land in the content-addressed on-disk store that
  campaigns also write (:mod:`repro.api.store`), so repeat submissions
  are served from disk across daemon restarts;
* every lifecycle step streams back as a progress event, and shutdown
  drains the queue before the daemon exits;
* failures are supervised (:mod:`repro.resilience`): per-job deadlines,
  process-pool crash recovery under a retry policy and circuit breaker,
  client reconnect-and-resume, and a ``cancel`` op for queued and running jobs.

``pops serve`` runs the daemon; ``pops submit`` / ``pops status`` /
``pops shutdown`` are the bundled clients
(:class:`~repro.serve.client.ServeClient` is the programmatic one).
"""

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    SUBMIT_KINDS,
    ProtocolError,
    job_spec_key,
)
from repro.serve.queue import JobTicket, PriorityJobQueue
from repro.serve.scheduler import JobExecutor
from repro.serve.server import PopsServer, ServeConfig, start_server_thread

__all__ = [
    "PROTOCOL_VERSION",
    "SUBMIT_KINDS",
    "ProtocolError",
    "job_spec_key",
    "JobTicket",
    "PriorityJobQueue",
    "JobExecutor",
    "PopsServer",
    "ServeConfig",
    "start_server_thread",
    "ServeClient",
    "ServeClientError",
]
