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
* a chunked scheduler -- benchmark groups are independent, so they can
  fan out over a process pool, one warm chunk per worker, under the
  same :class:`~repro.resilience.pool.PoolSupervisor` contract as
  :meth:`~repro.api.session.Session.optimize_many`: a worker crash
  re-runs the undelivered chunks once on a fresh pool, and a second
  crash or an environment without subprocesses finishes the sweep
  serially, with byte-identical payloads either way.

With a :class:`~repro.explore.store.CampaignStore`, every completed
point's record is filed in the campaign's record store immediately, and
``resume=True`` serves stored points from disk instead of recomputing
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.activity import ActivityReport, estimate_activity
from repro.analysis.power import estimate_power
from repro.api.job import Job, SweepSpec
from repro.api.records import KIND_OPTIMIZE_CIRCUIT, KIND_SWEEP, RunRecord
from repro.api.session import (
    JOB_ERROR_KEY,
    Session,
    worker_session,
)
from repro.resilience import faults
from repro.resilience.policy import checkpoint, current_token
from repro.resilience.pool import RETRY_ONCE, PoolSupervisor, PoolUnavailable
from repro.cells.library import Library
from repro.explore.store import CampaignError, CampaignStore
from repro.explore.summary import SweepSummary, summarize
from repro.obs.trace import Stopwatch
from repro.protocol.optimizer import WarmStart

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


def _run_chunk(
    session: Session,
    jobs: Sequence[Job],
    after_point: Optional[Callable[[Job, RunRecord], None]] = None,
) -> List[RunRecord]:
    """Run one chunk serially with a fresh warm-start carry."""
    warm = WarmStart()
    records = []
    for job in jobs:
        checkpoint()
        with session.tracer.span(
            "sweep.point", label=job.label or job.name
        ) as point_span:
            record = session.optimize(job, warm=warm)
            point_span.set(elapsed_s=float(record.elapsed_s))
        if after_point is not None:
            after_point(job, record)
        records.append(record)
    return records


def _sweep_chunk_worker(
    task: Tuple[Library, Dict, Optional[str], List[Dict]],
) -> List[Dict]:
    """Process-pool entry: run one warm chunk in a fresh session.

    Mirrors the batch runner's worker: the parent's Flimit table rides
    along so workers never re-characterise, records cross the process
    boundary serialized (which pins byte identity with the serial path),
    and job failures are marshalled -- distinguishable from pool
    breakage, which surfaces as the pool exception itself.
    """
    library, limits, bench_dir, job_dicts = task
    faults.maybe_crash(faults.SITE_WORKER_CRASH)
    session = worker_session(library, limits, bench_dir)
    warm = WarmStart()
    out: List[Dict] = []
    for job_dict in job_dicts:
        try:
            record = session.optimize(Job.from_dict(job_dict), warm=warm)
        except Exception as exc:  # marshalled, re-raised by the parent
            out.append({JOB_ERROR_KEY: exc})
            break
        out.append(record.to_dict())
    return out


def _parallel_chunks(
    session: Session,
    pool: Any,
    chunks: List[List[Job]],
    on_chunk: Callable[[int, List[RunRecord]], None],
) -> Optional[BaseException]:
    """Fan warm chunks out to ``pool``, streaming completions.

    ``on_chunk(chunk_index, records)`` fires as each chunk finishes --
    that call is the store's commit point, so completed points hit
    the campaign store without waiting for slower chunks.  A chunk that
    failed partway still delivers its completed prefix.  The job error
    of the lowest failed chunk index is *returned* once every chunk has
    been drained (and stored): the serial loop would have raised that
    one, and returning it keeps a job's own ``OSError`` apart from the
    pool breakage that propagates from here to the supervisor.  A
    stopped job raises here at once; delivered chunks stay stored.
    """
    limits = session.flimits()
    errors: Dict[int, BaseException] = {}
    futures = {
        pool.submit(
            _sweep_chunk_worker,
            (
                session.library,
                limits,
                session.bench_dir,
                [job.to_dict() for job in chunk],
            ),
        ): index
        for index, chunk in enumerate(chunks)
    }
    pending = set(futures)
    while pending:
        for future in current_token().wait(pending):
            pending.discard(future)
            outcome = future.result()  # pool breakage raises here
            records: List[RunRecord] = []
            for entry in outcome:
                if JOB_ERROR_KEY in entry:
                    errors[futures[future]] = entry[JOB_ERROR_KEY]
                    break
                records.append(RunRecord.from_dict(entry, library=session.library))
            on_chunk(futures[future], records)
            session.metrics.inc("jobs_run", len(records))
    return errors[min(errors)] if errors else None


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

    pending = [job for job in jobs if job.label not in done_records]
    total = len(jobs)
    reported = {"n": len(done_records)}

    def after_point(job: Job, record: RunRecord) -> None:
        if store is not None:
            store.append(job, record)
        reported["n"] += 1
        if progress is not None:
            progress(reported["n"], total, job.label or job.name)

    fresh: Dict[str, RunRecord] = {}

    def remaining() -> List[Job]:
        return [job for job in pending if (job.label or job.name) not in fresh]

    def on_pool(pool: Any) -> Optional[BaseException]:
        # Called again on a fresh pool after a crash: delivered chunks
        # are stored already, so only the remainder re-runs.
        todo = _chunks(remaining(), chunk_size)

        def on_chunk(index: int, records: List[RunRecord]) -> None:
            for job, record in zip(todo[index], records):
                after_point(job, record)
                fresh[job.label or job.name] = record

        return _parallel_chunks(session, pool, todo, on_chunk)

    n_chunks = len(_chunks(pending, chunk_size))
    if workers and workers > 1 and n_chunks > 1:
        try:
            with PoolSupervisor(
                min(workers, n_chunks), RETRY_ONCE, session.metrics
            ) as supervisor:
                error = supervisor.run(on_pool)
        except PoolUnavailable:
            pass  # the serial loop below finishes the remainder
        else:
            if error is not None:
                # Completed points are stored; resume picks up here.
                raise error
    for chunk in _chunks(remaining(), chunk_size):
        for record in _run_chunk(session, chunk, after_point=after_point):
            fresh[record.job.label or record.job.name] = record

    ordered: List[RunRecord] = []
    for job in jobs:
        record = fresh.get(job.label) or done_records.get(job.label)
        assert record is not None  # every job was run or resumed
        ordered.append(record)

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
