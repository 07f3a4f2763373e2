"""The canonical programmatic entry point to the POPS reproduction.

Quickstart::

    from repro.api import Job, Session

    session = Session()                      # default 0.25 um library
    job = Job(benchmark="c432", tc_ratio=1.5)
    record = session.optimize(job)           # Fig. 7 protocol, cached
    print(record.payload.method, record.payload.area_um)
    archived = record.to_json()              # lossless JSON envelope

``Session`` memoizes library characterisation, benchmark loading, STA,
critical-path extraction and delay bounds; ``Session.optimize_many``
fans a campaign out over worker processes with a serial fallback.
"""

from repro.api.cache import BoundedCache
from repro.api.job import SCOPES, WEIGHT_MODES, Job, JobError, SweepSpec
from repro.api.records import (
    KIND_BOUNDS,
    KIND_CHARACTERIZE,
    KIND_MC,
    KIND_OPTIMIZE_CIRCUIT,
    KIND_OPTIMIZE_PATH,
    KIND_POWER,
    KIND_SWEEP,
    KINDS,
    RecordError,
    RunRecord,
)
from repro.api.session import Session

__all__ = [
    "BoundedCache",
    "Job",
    "JobError",
    "SweepSpec",
    "SCOPES",
    "WEIGHT_MODES",
    "RunRecord",
    "RecordError",
    "KINDS",
    "KIND_OPTIMIZE_PATH",
    "KIND_OPTIMIZE_CIRCUIT",
    "KIND_BOUNDS",
    "KIND_POWER",
    "KIND_CHARACTERIZE",
    "KIND_SWEEP",
    "KIND_MC",
    "Session",
]
