"""Content-addressed on-disk store of completed run records.

Records are filed under their :func:`~repro.serve.protocol.job_spec_key`
-- the SHA-256 of the canonical request content -- so a repeat
submission of the same spec is served from disk without touching the
queue, across daemon restarts.  Layout (two-level fan-out keeps any one
directory small under millions of records)::

    <root>/
      ab/
        abcdef....json    # one lossless RunRecord envelope per key

Writes are atomic (temp file + ``os.replace``), so the store's own
writer can never leave a torn record.  Files can still arrive corrupt
from outside the atomic path -- a torn copy into the directory, disk
corruption, a truncating backup restore -- and those are **quarantined**
on first contact: the unparsable file is renamed to ``<key>.json.corrupt``
(counted in :meth:`ResultStore.stats`), the lookup reports a miss, and
the next completion rewrites the key.  ``key in store`` answers through
the same read path as :meth:`ResultStore.get`, so membership and
retrieval can never disagree about a corrupt entry.

The store keeps no counters of its own: lookups, writes and quarantines
count as ``store.hits`` / ``store.misses`` / ``store.writes`` /
``store.quarantined`` on the registry it is given (the daemon passes
its session's), and :meth:`ResultStore.stats` reads them back.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.resilience import faults

#: Suffix quarantined (unparsable) record files are renamed to.
CORRUPT_SUFFIX = ".corrupt"


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
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
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
        """Atomically file a completed record under its key."""
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = json.dumps(record, sort_keys=True) + "\n"
        if faults.fire(faults.SITE_TORN_WRITE) is not None:
            # Injected torn write: land half the bytes at the final path
            # (simulating a non-atomic writer / interrupted copy) so the
            # quarantine path is exercised by real on-disk state.
            payload = payload[: max(1, len(payload) // 2)]
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.metrics.inc("store.writes")
        return path

    def __contains__(self, key: str) -> bool:
        """Whether :meth:`get` would hit (corrupt files answer False)."""
        return self._read(key) is not None

    def count(self) -> int:
        """Number of records on disk (a walk; observability only)."""
        total = 0
        for _, _, files in os.walk(self.root):
            total += sum(1 for name in files if name.endswith(".json"))
        return total

    def corrupt_count(self) -> int:
        """Quarantined files currently on disk (a walk)."""
        total = 0
        for _, _, files in os.walk(self.root):
            total += sum(1 for name in files if name.endswith(CORRUPT_SUFFIX))
        return total

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
