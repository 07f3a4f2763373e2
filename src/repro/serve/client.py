"""Blocking client for the serve daemon (the ``pops submit`` surface).

One request per connection: the client opens the socket, writes one
NDJSON line, then consumes the server's event stream.  No asyncio on
this side -- plain sockets, so the client is trivially usable from
scripts, tests, thread pools and other processes.

Resilience: :meth:`ServeClient.submit` survives a dropped event stream
by reconnecting under the client's :class:`~repro.resilience.RetryPolicy`
and resubmitting the *same* spec.  Resubmission is idempotent by
construction -- the job-spec key is a content hash, so the repeat either
coalesces onto the still-running ticket or is served from the result
store -- which is why a blind resubmit is safe.  Transport failures
(connect refused, mid-stream close) retry; a structured error *event*
from the server is an answer, not an outage, and never retries.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Callable, Dict, Iterator, Optional, Union

from repro.api.job import Job, SweepSpec
from repro.api.records import RunRecord
from repro.cells.library import Library
from repro.resilience import RetryPolicy, faults
from repro.serve.protocol import MAX_LINE_BYTES, encode_line, job_spec_key

#: Optional per-event observer (progress rendering, logging).
EventFn = Callable[[Dict[str, Any]], None]


class ServeClientError(RuntimeError):
    """The server answered with an error event (or the stream broke).

    ``error`` carries the server's ``{"type": ..., "message": ...}``
    block when one was received.  ``transient`` marks transport-level
    failures (connect refused, stream dropped mid-answer) that a
    resubmit can heal; a server-sent error event is final.
    """

    def __init__(
        self,
        message: str,
        error: Optional[Dict[str, Any]] = None,
        transient: bool = False,
    ):
        super().__init__(message)
        self.error = error or {}
        self.transient = transient


class ServeClient:
    """Talks to one daemon, addressed by unix socket or TCP loopback."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout_s: float = 600.0,
        library: Optional[Library] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError(
                "give exactly one of 'socket_path' and 'host' (+'port')"
            )
        if host is not None and port is None:
            raise ValueError("TCP addressing needs a port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.library = library
        #: Backoff policy shared by submit-resume and ``wait_ready``.
        self.retry = retry if retry is not None else RetryPolicy()
        #: Transport-level reconnect-and-resubmit count (observability).
        self.reconnects = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.socket_path or f"{self.host}:{self.port}"
        return f"ServeClient({where!r})"

    # -- transport -----------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(self.timeout_s)
                    sock.connect(self.socket_path)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(
                    (self.host, int(self.port or 0)), timeout=self.timeout_s
                )
        except OSError as exc:
            where = self.socket_path or f"{self.host}:{self.port}"
            raise ServeClientError(
                f"cannot reach the serve daemon at {where}: {exc}",
                transient=True,
            ) from exc
        return sock

    def request(self, message: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Send one request; yield every event line until the server closes."""
        with self._connect() as sock:
            sock.sendall(encode_line(message))
            with sock.makefile("rb") as stream:
                for raw in stream:
                    if len(raw) > MAX_LINE_BYTES:
                        raise ServeClientError("oversized event line")
                    event = json.loads(raw.decode("utf-8"))
                    if not isinstance(event, dict):
                        raise ServeClientError(f"bad event line: {event!r}")
                    if faults.fire(faults.SITE_STREAM_DROP) is not None:
                        # Injected socket drop: ``after=N`` delivers N
                        # events, then the connection dies before the
                        # next one reaches the consumer.
                        raise ConnectionResetError(
                            "injected stream drop (fault plan)"
                        )
                    yield event

    def _request_one(self, message: Dict[str, Any]) -> Dict[str, Any]:
        for event in self.request(message):
            if event.get("event") == "error":
                raise ServeClientError(
                    event["error"].get("message", "server error"),
                    error=event.get("error"),
                )
            return event
        raise ServeClientError("server closed the stream without an answer")

    # -- control plane -------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the pong event."""
        return self._request_one({"op": "ping"})

    def status(self) -> Dict[str, Any]:
        """The daemon's full observability snapshot."""
        return self._request_one({"op": "status"})

    def metrics(self) -> Dict[str, Any]:
        """The unified obs snapshot (``repro.obs.serve_metrics`` shape)."""
        return self._request_one({"op": "metrics"})["metrics"]

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Ask the daemon to stop (drained by default); returns its ack."""
        return self._request_one({"op": "shutdown", "drain": drain})

    def cancel(self, key: str) -> bool:
        """Stop a queued or running job by its spec key; ``True`` on success.

        A running job stops at its next checkpoint; a key unknown to the
        daemon (never submitted, or already answered) answers ``False``.
        """
        event = self._request_one({"op": "cancel", "key": key})
        return bool(event.get("cancelled"))

    def wait_ready(self, timeout_s: float = 10.0) -> Dict[str, Any]:
        """Poll ``ping`` until the daemon answers (startup handshake).

        Backs off under the client's shared :class:`RetryPolicy` (its
        delay schedule, repeated past its attempt budget until the
        deadline).  On giving up, the raised :class:`ServeClientError`
        carries the *last underlying error* -- the difference between
        "socket file does not exist yet" and "connection refused" is
        exactly what you need when a daemon fails to come up.
        """
        deadline = time.monotonic() + timeout_s
        delays = self.retry.delays()
        delay = self.retry.base_s
        last: Optional[BaseException] = None
        while True:
            try:
                return self.ping()
            except (OSError, ServeClientError) as exc:
                last = exc
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeClientError(
                    f"serve daemon not ready after {timeout_s:g}s "
                    f"(last error: {last})",
                    transient=True,
                ) from last
            try:
                delay = next(delays)
            except StopIteration:
                pass  # keep repeating the final (capped) delay
            time.sleep(min(delay, max(0.0, remaining)))

    # -- work ----------------------------------------------------------

    @staticmethod
    def spec_key(
        kind: str, spec: Union[Job, SweepSpec, Dict[str, Any]]
    ) -> str:
        """The job-spec hash a submit of this work would be filed under.

        Computable client-side (it is a pure content hash), so a caller
        can :meth:`cancel` or correlate store entries without waiting
        for the server's ``queued`` event -- for an analytic daemon; a
        non-analytic one keys the job as its session stamps it.
        """
        if isinstance(spec, (Job, SweepSpec)):
            spec = spec.to_dict()
        return job_spec_key(kind, spec)

    def _submit_message(
        self,
        kind: str,
        spec: Union[Job, SweepSpec, Dict[str, Any]],
        priority: int,
        no_cache: bool,
        timeout_s: Optional[float],
    ) -> Dict[str, Any]:
        if isinstance(spec, (Job, SweepSpec)):
            spec = spec.to_dict()
        field = "spec" if kind == "sweep" else "job"
        message: Dict[str, Any] = {
            "op": "submit",
            "kind": kind,
            field: spec,
            "priority": int(priority),
        }
        if no_cache:
            message["no_cache"] = True
        if timeout_s is not None:
            message["timeout_s"] = float(timeout_s)
        return message

    def _consume(
        self, message: Dict[str, Any], on_event: Optional[EventFn]
    ) -> Dict[str, Any]:
        """Drive one submit stream to its terminal event."""
        for event in self.request(message):
            name = event.get("event")
            if name == "error":
                raise ServeClientError(
                    event.get("error", {}).get("message", "job failed"),
                    error=event.get("error"),
                )
            if name == "done":
                return event
            if on_event is not None:
                on_event(event)
        raise ServeClientError(
            "server closed the stream before completion", transient=True
        )

    def submit(
        self,
        kind: str,
        spec: Union[Job, SweepSpec, Dict[str, Any]],
        priority: int = 0,
        no_cache: bool = False,
        on_event: Optional[EventFn] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit and wait; return the terminal ``done`` event.

        ``on_event`` observes every intermediate event (queued, started,
        per-point progress).  ``timeout_s`` is the server-side job
        deadline.  An error *event* raises :class:`ServeClientError`
        immediately; a *transport* failure (daemon unreachable, stream
        dropped mid-answer) reconnects under the retry policy and
        resubmits the same spec -- idempotent because the repeat
        coalesces or hits the result store.
        """
        message = self._submit_message(kind, spec, priority, no_cache, timeout_s)
        delays = self.retry.delays()
        while True:
            try:
                return self._consume(message, on_event)
            except ServeClientError as exc:
                if not exc.transient:
                    raise
                last: BaseException = exc
            except (ConnectionError, OSError) as exc:
                last = exc
            try:
                delay = next(delays)
            except StopIteration:
                raise ServeClientError(
                    f"gave up after {self.retry.attempts} attempt(s): {last}",
                    transient=True,
                ) from last
            self.reconnects += 1
            time.sleep(delay)

    def submit_record(
        self,
        kind: str,
        spec: Union[Job, SweepSpec, Dict[str, Any]],
        priority: int = 0,
        no_cache: bool = False,
        on_event: Optional[EventFn] = None,
        timeout_s: Optional[float] = None,
    ) -> RunRecord:
        """Submit, wait, and rebuild the typed :class:`RunRecord`."""
        done = self.submit(
            kind,
            spec,
            priority=priority,
            no_cache=no_cache,
            on_event=on_event,
            timeout_s=timeout_s,
        )
        return RunRecord.from_dict(done["record"], library=self.library)
