"""Resumable campaigns: a spec-pinning manifest over the record store.

Layout (one directory per campaign)::

    <root>/
      manifest.json        # {"format": 2, "spec": SweepSpec.to_dict(),
                           #  "library": SHA-256 of the fingerprint}
      ab/abcdef....json    # one lossless RunRecord per completed point

Each point is a :class:`~repro.api.store.ResultStore` record filed under
``spec_key("optimize", job.to_dict())``, the key the serve daemon files
the same optimize submit under.  The atomic write is the point's
commit: a killed *serial* campaign loses at most the point it was
computing, a *parallel* one also the undelivered points of in-flight
chunks (bound by ``chunk_size``).  Resume looks up each grid point's
key; a corrupt record is quarantined by that lookup and its point
re-run.  The manifest pins the spec and the library (an analytic job's
key does not name it): reopening a campaign with either changed is an
error, not a silent mix of two campaigns.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Sequence

from repro.api.job import Job, SweepSpec
from repro.api.records import RunRecord
from repro.api.store import ResultStore, spec_key, write_atomic
from repro.cells.library import Library
from repro.obs.metrics import MetricsRegistry

#: On-disk format version written to (and checked in) the manifest.
FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"


class CampaignError(RuntimeError):
    """A campaign directory that cannot be (re)used as requested."""


def _library_digest(library: Library) -> str:
    """SHA-256 of the library's fingerprint ``repr``.

    The fingerprint is a tuple of strings and floats, so its ``repr``
    (and this digest) is the same in every process.
    """
    return hashlib.sha256(repr(library.fingerprint()).encode("utf-8")).hexdigest()


class CampaignStore:
    """One sweep campaign on disk: its manifest and its point records."""

    def __init__(self, root: str, metrics: MetricsRegistry) -> None:
        self.root = str(root)
        self.records = ResultStore(self.root, metrics)

    @property
    def manifest_path(self) -> str:
        """Path of the spec-pinning manifest."""
        return os.path.join(self.root, MANIFEST_NAME)

    def _manifest(self) -> Dict[str, Any]:
        """The parsed manifest; a torn or foreign one is a CampaignError."""
        try:
            with open(self.manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CampaignError(
                f"{self.manifest_path}: unreadable campaign manifest ({exc})"
            ) from exc
        found = manifest.get("format") if isinstance(manifest, dict) else None
        if found != FORMAT_VERSION:
            raise CampaignError(
                f"{self.manifest_path}: unsupported campaign format {found!r}"
            )
        return manifest

    def initialize(self, spec: SweepSpec, library: Library) -> None:
        """Create the campaign or verify it matches ``spec`` and ``library``.

        A fresh directory gets a manifest; an existing one must carry a
        manifest whose spec is identical (label included) and whose
        library digest matches -- resuming a *different* grid or model
        into the same records would silently mix two campaigns.
        """
        manifest = {
            "format": FORMAT_VERSION,
            "spec": spec.to_dict(),
            "library": _library_digest(library),
        }
        if not os.path.exists(self.manifest_path):
            write_atomic(
                self.manifest_path,
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            )
            return
        found = self._manifest()
        if found.get("spec") != manifest["spec"]:
            raise CampaignError(
                f"{self.root}: campaign was created for a different sweep "
                "spec; use a fresh directory (or the original spec)"
            )
        if found.get("library") != manifest["library"]:
            raise CampaignError(
                f"{self.root}: campaign was created under a different "
                "library; use a fresh directory (or the original library)"
            )

    def spec(self) -> SweepSpec:
        """The spec this campaign was created for."""
        return SweepSpec.from_dict(self._manifest()["spec"])

    def append(self, job: Job, record: RunRecord) -> None:
        """File one completed grid point's record (the point's commit)."""
        self.records.put(spec_key("optimize", job.to_dict()), record.to_dict())

    def completed(
        self, jobs: Sequence[Job], library: Optional[Library] = None
    ) -> Dict[str, RunRecord]:
        """The stored record of every job in ``jobs`` that has one, by label."""
        out: Dict[str, RunRecord] = {}
        for job in jobs:
            data = self.records.get(spec_key("optimize", job.to_dict()))
            if data is not None:
                out[job.name] = RunRecord.from_dict(data, library=library)
        return out
