"""The serve wire protocol: NDJSON requests, events and spec hashing.

One connection carries one request: the client sends a single JSON
object on one line, the server answers with a stream of JSON event
lines and closes.  Everything on the wire is JSON-native -- jobs and
sweep specs travel as their existing ``to_dict`` forms, run records as
their lossless envelopes.

Requests (``op`` discriminates)::

    {"op": "ping"}
    {"op": "status"}
    {"op": "metrics"}
    {"op": "shutdown", "drain": true}
    {"op": "submit", "kind": "optimize", "job": {...Job.to_dict()...},
     "priority": 0, "no_cache": false, "timeout_s": 30.0}
    {"op": "submit", "kind": "sweep", "spec": {...SweepSpec.to_dict()...}}
    {"op": "cancel", "key": "<job spec key>"}

Events (``event`` discriminates)::

    {"event": "pong", "version": 1, ...}
    {"event": "status", "serve": {...}, "session": {...}, "queue": {...}}
    {"event": "metrics", "metrics": {...unified obs snapshot...}}
    {"event": "shutting-down", "queued": N}
    {"event": "queued", "key": ..., "coalesced": false, "cached": false}
    {"event": "started", "key": ...}
    {"event": "progress", "key": ..., "done": i, "total": n, "label": ...}
    {"event": "done", "key": ..., "record": {...}, "cached": false}
    {"event": "error", "error": {"type": ..., "message": ...}}
    {"event": "cancelled", "key": ..., "cancelled": true}

A submit-level ``timeout_s`` is the job's deadline (it overrides the
job's own ``timeout_s`` field) and is deliberately *not* part of the
spec hash -- the same work under a different deadline is still the same
work for coalescing and the result store.  ``cancel`` stops a queued
or running job by its spec key: every waiter receives a structured
error event at once, and a running job stops at its next checkpoint;
an unknown key is refused (``"cancelled": false``).

The **job-spec key** is the deduplication identity everything hangs on:
the SHA-256 of the canonical JSON of ``{"kind": ..., "spec": ...}``.
Identical in-flight submissions coalesce on it, and the content-
addressed result store files completed records under it.  Two jobs hash
equal exactly when their serialized specs are equal -- inline circuits
hash by *content*, so the same netlist submitted by two tenants dedups
even though the ``Job`` objects compare by identity in-process.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from repro.api.store import spec_key

#: Bumped when the wire format changes incompatibly.
PROTOCOL_VERSION = 1

#: Request operations a server understands.  ``metrics`` and ``cancel``
#: (additive within this protocol version; older servers answer an
#: unknown-op error) return the unified observability snapshot of
#: :func:`repro.obs.serve_metrics` and stop a queued or running job.
OPS = ("ping", "status", "metrics", "shutdown", "submit", "cancel")

#: Submittable work kinds and the Session/explore surface they map to.
SUBMIT_KINDS = ("bounds", "optimize", "power", "mc", "sweep")

#: Hard cap on one request line (a submit carrying a large inline
#: circuit is legitimate; an unbounded line is a memory hazard).
MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed or unsupported request/response line."""


def job_spec_key(kind: str, spec: Dict[str, Any]) -> str:
    """The content hash identifying one unit of work.

    :func:`repro.api.store.spec_key` of a submittable kind: a pure
    function of the request content, shared by the coalescing table and
    the result store.
    """
    if kind not in SUBMIT_KINDS:
        raise ProtocolError(f"kind must be one of {SUBMIT_KINDS}, got {kind!r}")
    return spec_key(kind, spec)


def encode_line(message: Dict[str, Any]) -> bytes:
    """One protocol object as one NDJSON line (trailing newline)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_line(raw: bytes) -> Dict[str, Any]:
    """Parse one NDJSON line into a protocol object."""
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"protocol line must be an object, got {message!r}")
    return message


def validate_request(message: Dict[str, Any]) -> str:
    """Check the request envelope; return its ``op``."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"op must be one of {OPS}, got {op!r}")
    return str(op)


def validate_submit(message: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Check a submit request; return ``(kind, spec dict)``.

    Sweep submissions carry their payload under ``spec``, everything
    else under ``job`` (matching the repo's two declarative spec kinds).
    The payload is *structurally* validated here; full semantic
    validation happens when the worker rebuilds the frozen ``Job`` /
    ``SweepSpec`` (whose constructors are the single source of truth).
    """
    kind = message.get("kind")
    if kind not in SUBMIT_KINDS:
        raise ProtocolError(f"kind must be one of {SUBMIT_KINDS}, got {kind!r}")
    field = "spec" if kind == "sweep" else "job"
    payload = message.get(field)
    if not isinstance(payload, dict):
        raise ProtocolError(f"submit kind {kind!r} needs a {field!r} object")
    priority = message.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(f"priority must be an integer, got {priority!r}")
    timeout_s = message.get("timeout_s")
    if timeout_s is not None:
        if (
            isinstance(timeout_s, bool)
            or not isinstance(timeout_s, (int, float))
            or timeout_s <= 0
        ):
            raise ProtocolError(
                f"timeout_s must be a positive number, got {timeout_s!r}"
            )
    return str(kind), payload


def validate_cancel(message: Dict[str, Any]) -> str:
    """Check a cancel request; return the job spec key to withdraw."""
    key = message.get("key")
    if not isinstance(key, str) or not key:
        raise ProtocolError(f"cancel needs a job spec 'key', got {key!r}")
    return key


def error_event(exc: BaseException, **fields: Any) -> Dict[str, Any]:
    """The standard error event for an exception."""
    event: Dict[str, Any] = {
        "event": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    event.update(fields)
    return event
