"""The one on-disk store of completed run records.

The serve daemon, ``explore`` campaigns and ``pops mc --store`` all
file records here, each under the :func:`spec_key` of its request --
the key :func:`repro.serve.protocol.job_spec_key` gives the daemon --
so a job's record has one path whichever of them computed it::

    <root>/
      ab/
        abcdef....json    # one lossless RunRecord envelope per key

Files at the root itself (a campaign's ``manifest.json``) are not
records.  Writes are atomic (:func:`write_atomic`).  A file that
arrives corrupt anyway -- a torn copy, disk corruption, a truncating
restore -- is **quarantined** on first contact: it is renamed to
``<key>.json.corrupt``, the lookup reports a miss, and the next
completion rewrites the key.  ``key in store`` and
:meth:`ResultStore.get` share that read path, so they never disagree.

Lookups, writes and quarantines count as ``store.hits`` /
``store.misses`` / ``store.writes`` / ``store.quarantined`` on the
registry the store is given (the daemon and campaigns pass their
session's); :meth:`ResultStore.stats` reads them back.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.resilience import faults

#: Suffix quarantined (unparsable) record files are renamed to.
CORRUPT_SUFFIX = ".corrupt"


def spec_key(kind: str, spec: Dict[str, Any]) -> str:
    """The content hash identifying one unit of work.

    Canonical JSON (sorted keys, compact separators) of the kind plus
    the serialized spec, SHA-256 hex: a pure function of the request
    content, so equal specs share one key in every process.
    """
    canonical = json.dumps(
        {"kind": kind, "spec": spec},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_atomic(path: str, payload: str) -> str:
    """Replace ``path`` with ``payload`` in one step; return ``path``.

    The text goes to a temp file in the same directory, which
    ``os.replace`` then moves over ``path``: a reader (or a crash) sees
    the old file or the new one, never a fragment.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


class ResultStore:
    """Spec-hash addressed archive of ``RunRecord.to_dict()`` envelopes."""

    def __init__(self, root: str, metrics: MetricsRegistry) -> None:
        self.root = str(root)
        self.metrics = metrics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({self.root!r})"

    def path_for(self, key: str) -> str:
        """Where a key's record lives (whether or not it exists yet)."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        """Load a key's record; quarantine and miss on a corrupt file.

        The single read path behind :meth:`get` and ``in``: a file that
        exists but does not parse to a dict is renamed to
        ``*.corrupt`` (never re-read, counted as ``store.quarantined``)
        so membership, retrieval and the next overwrite all agree it is
        gone.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
        except OSError:
            return None
        except ValueError:  # JSONDecodeError / UnicodeDecodeError
            record = None
        if not isinstance(record, dict):
            self._quarantine(path)
            return None
        return record

    def _quarantine(self, path: str) -> None:
        """Move an unparsable record aside (keep the evidence)."""
        try:
            os.replace(path, path + CORRUPT_SUFFIX)
        except OSError:  # pragma: no cover - lost the race / read-only fs
            return
        self.metrics.inc("store.quarantined")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record dict for a key, or ``None`` on a miss."""
        record = self._read(key)
        self.metrics.inc("store.misses" if record is None else "store.hits")
        return record

    def put(self, key: str, record: Dict[str, Any]) -> str:
        """Atomically file a completed record under its key; return its path."""
        payload = json.dumps(record, sort_keys=True) + "\n"
        if faults.fire(faults.SITE_TORN_WRITE) is not None:
            # Injected torn write: land half the bytes at the final path
            # (simulating a non-atomic writer / interrupted copy) so the
            # quarantine path is exercised by real on-disk state.
            payload = payload[: max(1, len(payload) // 2)]
        path = write_atomic(self.path_for(key), payload)
        self.metrics.inc("store.writes")
        return path

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would hit (corrupt files answer False)."""
        return self._read(key) is not None

    def _count(self, suffix: str) -> int:
        """Files ending in ``suffix`` below the root (a walk).

        Only the fan-out directories hold records: files at the root
        itself, such as a campaign's manifest, are not counted.
        """
        return sum(
            name.endswith(suffix)
            for directory, _, names in os.walk(self.root)
            if directory != self.root
            for name in names
        )

    def count(self) -> int:
        """Number of records on disk (a walk; observability only)."""
        return self._count(".json")

    def corrupt_count(self) -> int:
        """Quarantined files currently on disk (a walk)."""
        return self._count(CORRUPT_SUFFIX)

    def stats(self) -> Dict[str, Any]:
        """JSON-native counters for the status endpoint."""
        counters = self.metrics.counters("store.")
        return {
            "root": self.root,
            "records": self.count(),
            **{
                name: counters.get(f"store.{name}", 0)
                for name in ("hits", "misses", "writes", "quarantined")
            },
            "corrupt_files": self.corrupt_count(),
        }
