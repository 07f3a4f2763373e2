"""Priority job queue and coalescing tickets.

A :class:`JobTicket` is one unit of queued work: the spec-hash key, the
payload, and the fan-out surface -- every client waiting on the same
spec subscribes to the same ticket and receives the same event stream
(and therefore the same record).  The server's in-flight table maps
``key -> ticket``; a submit that finds its key already in flight
*coalesces* by subscribing instead of enqueueing.

:class:`PriorityJobQueue` orders tickets by ``(priority, arrival)``:
lower priority values run sooner, FIFO within a priority class.  The
server keeps one queue per worker pool.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.resilience import CancelToken


@dataclass
class JobTicket:
    """One enqueued (possibly coalesced) unit of work.

    Attributes
    ----------
    key:
        The job-spec hash -- the coalescing / store identity.
    kind / payload:
        What to run (``payload`` is the serialized Job or SweepSpec).
    priority:
        Queue ordering; lower runs sooner.
    timeout_s:
        Optional submit-level deadline for this job (overrides the
        job's own ``timeout_s`` field and the executor default).
    waiters:
        How many clients are subscribed (1 + coalesced arrivals).
    created_s:
        Monotonic creation stamp (``time.perf_counter``); the server
        reads it when the ticket starts to report the queue wait.
    token:
        The job's stop token (``cancel``, ``shutdown --now``, deadline).
    """

    key: str
    kind: str
    payload: Dict[str, Any]
    priority: int = 0
    timeout_s: Optional[float] = None
    waiters: int = 0
    created_s: float = field(default_factory=time.perf_counter)
    token: CancelToken = field(default_factory=CancelToken)
    _subscribers: List[asyncio.Queue] = field(default_factory=list)

    def subscribe(self) -> asyncio.Queue:
        """A private event queue fed by every future :meth:`publish`."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        self.waiters += 1
        return queue

    def publish(self, event: Dict[str, Any]) -> None:
        """Fan one event out to every subscriber."""
        for queue in self._subscribers:
            queue.put_nowait(event)


class PriorityJobQueue:
    """An ``asyncio.PriorityQueue`` of tickets.

    Entries never compare beyond ``(priority, seq)`` -- the arrival
    counter is unique -- so tickets themselves need no ordering.
    """

    def __init__(self) -> None:
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()

    @property
    def depth(self) -> int:
        """Tickets enqueued and not yet picked up by a worker."""
        return self._queue.qsize()

    def put(self, ticket: JobTicket) -> None:
        """Enqueue one ticket at its priority."""
        self._queue.put_nowait((ticket.priority, next(self._seq), ticket))

    async def get(self) -> JobTicket:
        """Next ticket by priority."""
        _, _, ticket = await self._queue.get()
        return ticket

    def task_done(self) -> None:
        """Mark one :meth:`get` processed."""
        self._queue.task_done()

    async def join(self) -> None:
        """Wait until every enqueued item has been processed."""
        await self._queue.join()
