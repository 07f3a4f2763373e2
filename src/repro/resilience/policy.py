"""Bounded retries with deterministic backoff, and per-job stop tokens.

:class:`RetryPolicy` is the one retry shape every layer shares -- the
serve executor's process-pool supervision, the client's
reconnect-with-backoff and ``wait_ready`` polling, and the batch/sweep
runners' pool retries.  Delays grow exponentially from ``base_s`` up to
``max_delay_s`` with *seeded* jitter: the jitter stream comes from
``random.Random(seed)``, so two runs of the same policy produce the
same delay sequence -- chaos tests assert on exact retry behaviour
instead of sleeping and hoping.

:class:`CancelToken` is the one way to stop a served job: a stop flag
plus a deadline armed when the job starts, carried in a context variable
like the ``Tmin`` memo.  :func:`checkpoint` raises at the job's natural
stop points (optimizer passes and paths, sweep points, Session job
stages), never inside the eq. 4/6 sweeps or the STA kernels.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, InvalidStateError, wait
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Set, Tuple, Type


class JobTimeoutError(RuntimeError):
    """A job exceeded its deadline (``Job.timeout_s`` or submit-level).

    ``timeout_s`` carries the deadline that expired so error events and
    logs can report it without re-parsing the message.
    """

    def __init__(self, message: str, timeout_s: float) -> None:
        super().__init__(message)
        self.timeout_s = float(timeout_s)


class JobCancelledError(RuntimeError):
    """A job stopped by the ``cancel`` op or an immediate shutdown."""


class CancelToken:
    """One job's stop flag plus an optional deadline, armed when it starts."""

    def __init__(self) -> None:
        self.stopped = False
        self.timeout_s: Optional[float] = None
        self._deadline: Optional[float] = None
        self._stop: Future = Future()  # done once stopped; holds the message

    @contextmanager
    def running(self, timeout_s: Optional[float]) -> Iterator["CancelToken"]:
        """Arm the deadline and make this the running job's token."""
        if timeout_s is not None:
            self.timeout_s, self._deadline = timeout_s, time.monotonic() + timeout_s
        reset = _ACTIVE_TOKEN.set(self)
        try:
            yield self
        finally:
            _ACTIVE_TOKEN.reset(reset)

    def stop(self, message: str) -> None:
        """Stop the job at its next checkpoint (later calls are no-ops)."""
        self.stopped = True  # first: a waiter woken by ``_stop`` must raise
        with suppress(InvalidStateError):
            self._stop.set_result(message)

    def check(self) -> None:
        """Raise if the job was stopped or its deadline has passed."""
        if self.stopped:
            raise JobCancelledError(self._stop.result())
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise JobTimeoutError(
                f"job exceeded its {self.timeout_s:g}s deadline", self.timeout_s
            )

    def wait(
        self, futures: Iterable[Future] = (), timeout_s: Optional[float] = None
    ) -> Set[Future]:
        """The ``futures`` done once one is (or ``timeout_s`` passed); checks."""
        limit = timeout_s
        if self._deadline is not None:
            left = max(0.0, self._deadline - time.monotonic())
            limit = left if limit is None else min(limit, left)
        done, _ = wait([self._stop, *futures], limit, FIRST_COMPLETED)
        self.check()
        return done


#: The running job's token; outside any job, one that never stops.
_ACTIVE_TOKEN = ContextVar("cancel_token", default=CancelToken())


def current_token() -> CancelToken:
    """The running job's :class:`CancelToken`."""
    return _ACTIVE_TOKEN.get()


def checkpoint() -> None:
    """Raise if the running job was stopped or outlived its deadline."""
    _ACTIVE_TOKEN.get().check()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with seeded exponential backoff.

    Attributes
    ----------
    attempts:
        Total tries (first attempt included); ``1`` means no retries.
    base_s:
        Delay before the first retry, in seconds.
    multiplier:
        Exponential growth factor between consecutive retries.
    max_delay_s:
        Hard cap on any single delay.
    jitter:
        Fraction of each delay drawn uniformly from
        ``[0, jitter * delay]`` and added to it -- decorrelates herds of
        clients without breaking determinism (the draw is seeded).
    seed:
        Seed for the jitter stream; equal policies yield equal delays.
    """

    attempts: int = 3
    base_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {self.base_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {self.max_delay_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delays(self) -> Iterator[float]:
        """The deterministic delay (seconds) before each retry.

        Yields ``attempts - 1`` values: the wait before retry 1, retry 2,
        ...  The jitter stream restarts from :attr:`seed` on every call,
        so the sequence is a pure function of the policy.
        """
        rng = Random(self.seed)
        delay = self.base_s
        for _ in range(self.attempts - 1):
            capped = min(delay, self.max_delay_s)
            yield capped + (rng.random() * self.jitter * capped)
            delay *= self.multiplier

    def run(
        self,
        fn: Callable[[], "object"],
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "object":
        """Call ``fn`` under this policy; return its first success.

        ``retry_on`` names the exception types worth retrying -- anything
        else propagates immediately.  ``on_retry(attempt, exc)`` fires
        before each backoff sleep (metrics/logging hook); ``sleep`` is
        injectable so tests never actually wait.  The final failure
        re-raises the last exception.
        """
        delays = self.delays()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except retry_on as exc:
                try:
                    delay = next(delays)
                except StopIteration:
                    raise exc from None
                if on_retry is not None:
                    on_retry(attempt, exc)
                if delay > 0:
                    sleep(delay)
