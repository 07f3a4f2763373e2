"""The campaign runner: warm-started, chunked, resumable sweeps.

``run_sweep`` walks a :class:`~repro.api.job.SweepSpec` grid through a
:class:`~repro.api.session.Session` and returns every per-point record
plus the Pareto summary.  Three mechanisms make a 20-point sweep cost
far less than 20 independent jobs, none of which may change a single
payload byte (the determinism tests compare warm against cold runs):

* the session's own memoization -- characterisation, benchmark parsing,
  bounds and extraction of the shared starting state are paid once;
* a :class:`~repro.protocol.optimizer.WarmStart` per benchmark group --
  constraint points share the pure-function ``Tmin``/extraction memos,
  and each point's incremental STA engine is a copy of the session's
  cached engine of the shared starting state, so it starts without
  re-timing anything;
* chunks -- benchmark groups are independent, so ``run_sweep`` hands
  them (optionally split to ``chunk_size`` points) to the session's one
  job runner, :meth:`~repro.api.session.Session.run_chunks`, which can
  fan them out over a process pool, one warm chunk per task: a worker
  crash re-runs the undelivered chunks once on a fresh pool, and a
  second crash or an environment without subprocesses finishes the
  sweep in-thread, with byte-identical payloads either way.

With a :class:`~repro.explore.store.CampaignStore`, every completed
point's record is filed in the campaign's record store immediately, and
``resume=True`` serves stored points from disk instead of recomputing
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.activity import ActivityReport, estimate_activity
from repro.analysis.power import estimate_power
from repro.api.job import Job, SweepSpec
from repro.api.records import KIND_OPTIMIZE_CIRCUIT, KIND_SWEEP, RunRecord
from repro.api.session import Session
from repro.explore.store import CampaignError, CampaignStore
from repro.explore.summary import SweepSummary, summarize
from repro.obs.trace import Stopwatch

#: Vector count for the summary's power estimates (matches Job default).
POWER_VECTORS = 128

#: Corner count / seed for the summary's Monte-Carlo yield column.
#: Small on purpose: a yield estimate per point, not a sign-off run
#: (``pops mc`` / ``Session.mc`` own the deep-sample workload).
YIELD_SAMPLES = 200
YIELD_SEED = 42

#: Per-point progress callback: ``(done, total, label)``.
ProgressFn = Callable[[int, int, str], None]


@dataclass
class SweepResult:
    """Everything a finished campaign produced.

    Attributes
    ----------
    spec / records:
        The grid and its per-point run records, in grid order
        (resumed points carry their original stored records).
    summary:
        Scalar metrics + Pareto frontier over all points.
    computed / resumed:
        How many points were run now vs served from the store.
    elapsed_s:
        Wall-clock time of this ``run_sweep`` call.
    """

    spec: SweepSpec
    records: List[RunRecord]
    summary: SweepSummary
    computed: int = 0
    resumed: int = 0
    elapsed_s: float = 0.0

    def record(self) -> RunRecord:
        """The campaign as one ``sweep`` run-record envelope.

        The payload carries the spec echo and the summary (JSON-native);
        the full per-point records live in the campaign store / in
        :attr:`records`, not in this envelope.
        """
        return RunRecord(
            kind=KIND_SWEEP,
            job=None,
            payload={
                "spec": self.spec.to_dict(),
                "summary": self.summary.to_dict(),
                "computed": int(self.computed),
                "resumed": int(self.resumed),
            },
            extra={"points": len(self.records)},
            elapsed_s=self.elapsed_s,
            created_unix=time.time(),
        )


def _chunks(jobs: Sequence[Job], chunk_size: Optional[int]) -> List[List[Job]]:
    """Split grid jobs into warm-startable chunks.

    One chunk per benchmark group (contiguous in grid order); large
    groups are further split to ``chunk_size`` so a many-point single
    benchmark can still use several workers.  Every chunk warm-starts
    internally from its own first point.
    """
    groups: List[List[Job]] = []
    for job in jobs:
        if groups and groups[-1][0].benchmark == job.benchmark:
            groups[-1].append(job)
        else:
            groups.append([job])
    if not chunk_size or chunk_size < 1:
        return groups
    out: List[List[Job]] = []
    for group in groups:
        for start in range(0, len(group), chunk_size):
            out.append(group[start : start + chunk_size])
    return out


def _yield_for(
    session: Session,
    record: RunRecord,
    corners,
) -> Optional[float]:
    """Monte-Carlo yield of a circuit-scope point at its own ``tc_ps``.

    Evaluated by the batch corner engine over the session's
    structure-cached compilation: one corner draw (``corners``) is
    shared by every point, so a 20-point sweep pays one sampling and 20
    cheap batch propagations.  Path-scope points return ``None`` (no
    netlist to compile).
    """
    from repro.mc.kernel import batch_analyze

    if record.kind != KIND_OPTIMIZE_CIRCUIT:
        return None
    tc_ps = float(record.extra["tc_ps"])
    compiled = session.compiled(record.payload.circuit)
    return batch_analyze(compiled, corners).yield_at(tc_ps)


def _power_for(
    session: Session,
    record: RunRecord,
    activity_memo: Dict[Tuple, ActivityReport],
) -> Optional[float]:
    """Deterministic total power of a circuit-scope point (else None).

    Activity is a pure function of the logic structure (seeded
    Monte-Carlo over logic values), so it is memoized per structure key
    and shared by every sizing of the same netlist.
    """
    if record.kind != KIND_OPTIMIZE_CIRCUIT:
        return None
    circuit = record.payload.circuit
    key = circuit.structure_key()
    activity = activity_memo.get(key)
    if activity is None:
        activity = estimate_activity(circuit, n_vectors=POWER_VECTORS)
        activity_memo[key] = activity
    report = estimate_power(circuit, session.library, activity=activity)
    return float(report.total_uw)


def run_sweep(
    session: Session,
    spec: SweepSpec,
    store: Optional[Union[CampaignStore, str]] = None,
    resume: bool = False,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    with_power: bool = True,
    with_yield: bool = False,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Run (or resume) a sweep campaign.

    Parameters
    ----------
    store:
        Campaign directory (or an opened store).  Every completed point
        is stored immediately; without ``resume`` none of the grid's
        points may be stored yet (a second un-resumed run would silently
        overwrite the first).
    resume:
        Serve already-stored points from the store instead of
        recomputing them.
    workers / chunk_size:
        Scale-out knobs: chunks (benchmark groups, optionally split to
        ``chunk_size`` points) fan out over a process pool; pool-less
        environments fall back to the serial loop transparently, with
        byte-identical payloads either way.
    with_power:
        Attach deterministic power estimates to circuit-scope summary
        points (the third Pareto objective).
    with_yield:
        Attach Monte-Carlo yields (fraction of :data:`YIELD_SAMPLES`
        process corners meeting each point's own ``tc_ps``) to
        circuit-scope summary points -- the fourth Pareto objective.
        One corner draw is shared across the whole campaign.
    progress:
        Optional ``(done, total, label)`` callback per completed point.
    """
    sw = Stopwatch()
    # Stamped points: a non-analytic point's key names its backend, .lib.
    jobs = [session._prepare_job(job) for job in spec.jobs()]
    if isinstance(store, (str, bytes)):
        store = CampaignStore(str(store), session.metrics)
    done_records: Dict[str, RunRecord] = {}
    if store is not None:
        store.initialize(spec, session.library)
        done_records = store.completed(jobs, library=session.library)
        if done_records and not resume:
            raise CampaignError(
                f"{store.root}: campaign already holds {len(done_records)} "
                "completed point(s); pass resume=True (or --resume) to "
                "continue it, or use a fresh directory"
            )

    pending = [job for job in jobs if job.name not in done_records]
    fresh: Dict[str, RunRecord] = {}

    def on_record(index: int, record: RunRecord) -> None:
        job = pending[index]
        if store is not None:
            store.append(job, record)
        fresh[job.name] = record
        if progress is not None:
            progress(len(done_records) + len(fresh), len(jobs), job.name)

    chunks = _chunks(pending, chunk_size)
    with session._batch_supervisor(workers, len(chunks)) as supervisor:
        # Completed points are stored as they arrive; on a job error the
        # runner raises once they are, and a resume picks up there.
        session.run_chunks(chunks, on_record, supervisor)
    by_label = {**done_records, **fresh}
    ordered = [by_label[job.name] for job in jobs]

    power_by_label: Dict[str, Optional[float]] = {}
    if with_power:
        activity_memo: Dict[Tuple, ActivityReport] = {}
        for record in ordered:
            label = record.job.name if record.job else ""
            power_by_label[label] = _power_for(session, record, activity_memo)

    yield_by_label: Dict[str, Optional[float]] = {}
    if with_yield:
        from repro.mc.corners import sample_corners

        corners = sample_corners(
            session.library.tech, n_samples=YIELD_SAMPLES, seed=YIELD_SEED
        )
        for record in ordered:
            label = record.job.name if record.job else ""
            yield_by_label[label] = _yield_for(session, record, corners)

    return SweepResult(
        spec=spec,
        records=ordered,
        summary=summarize(
            ordered,
            power_by_label=power_by_label,
            yield_by_label=yield_by_label,
        ),
        computed=len(fresh),
        resumed=len(done_records),
        elapsed_s=sw.elapsed_s,
    )
