"""Tc-sweep campaigns and Pareto exploration over the POPS protocol.

The paper's whole story is curves over the constraint axis; this package
turns one :class:`~repro.api.session.Session` into those curves::

    from repro.api import Session, SweepSpec
    from repro.explore import run_sweep

    spec = SweepSpec(benchmarks=("c432",), tc_ratio_points=(1.1, 1.3, 1.6))
    result = run_sweep(Session(), spec, store="campaigns/c432", resume=True)
    print(result.summary.format())          # trade-off table, * = Pareto
    best = result.summary.frontier()        # delay/area/power frontier

Sweep points over one benchmark are warm-started (incremental STA
engines copied from the session's, shared bounds/extraction memos) yet
produce payloads byte-identical to cold runs; campaigns file every
completed point's record in a content-addressed store
(:mod:`repro.api.store`) under a spec-pinning manifest and resume by
skipping them.
"""

from repro.explore.runner import SweepResult, run_sweep
from repro.explore.store import CampaignError, CampaignStore
from repro.explore.summary import (
    OBJECTIVES,
    SweepPoint,
    SweepSummary,
    point_from_record,
    summarize,
)

__all__ = [
    "run_sweep",
    "SweepResult",
    "CampaignStore",
    "CampaignError",
    "SweepPoint",
    "SweepSummary",
    "OBJECTIVES",
    "point_from_record",
    "summarize",
]
