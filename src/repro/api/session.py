"""The :class:`Session` facade: one object, the whole protocol, cached.

A session owns a characterised :class:`~repro.cells.library.Library` and
memoizes every expensive derived artefact around it:

* the **Flimit table** (library characterisation, Fig. 7 step 1) is
  computed at most once per session and shared by every optimization;
* **benchmarks** are parsed/generated once and handed out as copies;
* **STA results, critical-path extractions and delay bounds** are keyed
  by a circuit *state hash* (structure + sizing), so a Tc-sweep over one
  benchmark pays extraction and the eq. 4 fixed point once, not per job;
* an **incremental STA engine** is kept per circuit *structure hash*:
  when only sizes changed since the last analysis, the miss re-times
  just the affected fan-out cones instead of the whole circuit (the
  result stays bit-identical to a from-scratch run, and stale state is
  impossible -- any timing-relevant mutation changes the state hash);
  every circuit-scope optimize job, sweep points included, copies it to
  seed its own engine instead of building a second one.

Operations take a declarative :class:`~repro.api.job.Job` and return a
:class:`~repro.api.records.RunRecord` -- a serializable envelope that the
CLI renders, campaigns archive, and the job runner ships across process
boundaries.  :meth:`Session.run_chunks` is the one job runner: batches
(:meth:`Session.optimize_many`), sweeps (:func:`repro.explore.run_sweep`)
and the daemon's optimize jobs all hand it chunks of jobs, which it runs
under a per-chunk warm start, on a supervised process pool
(:class:`~repro.resilience.pool.PoolSupervisor`) through the one worker
entry :func:`_chunk_worker`, or in-thread -- payloads byte-identical
either way.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from itertools import accumulate
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.activity import estimate_activity
from repro.analysis.area import circuit_area_um
from repro.analysis.power import estimate_power
from repro.analysis.variation import VariationSpec
from repro.api.cache import BoundedCache
from repro.api.job import Job, JobError
from repro.api.records import (
    KIND_BOUNDS,
    KIND_CHARACTERIZE,
    KIND_MC,
    KIND_OPTIMIZE_CIRCUIT,
    KIND_OPTIMIZE_PATH,
    KIND_POWER,
    RunRecord,
)
from repro.buffering.flimit import TABLE2_GATES, characterize_library
from repro.buffering.insertion import default_flimits
from repro.cells.library import Library, default_library
from repro.iscas.loader import load_benchmark
from repro.mc.compile import CompiledCircuit
from repro.mc.result import McResult, mc_analyze
from repro.netlist.circuit import Circuit
from repro.obs.metrics import CounterView, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Stopwatch, Tracer
from repro.process.technology import Technology
from repro.protocol.optimizer import WarmStart, optimize_circuit, optimize_path
from repro.resilience import faults
from repro.resilience.policy import checkpoint, current_token
from repro.resilience.pool import RETRY_ONCE, PoolSupervisor, PoolUnavailable
from repro.sizing.bounds import DelayBounds, delay_bounds, tmin_memo
from repro.timing.critical_paths import ExtractedPath, critical_path
from repro.timing.incremental import IncrementalSta, IncrementalStats
from repro.timing.sta import StaResult


#: The session's work counters, registry counters under the same names.
_WORK_COUNTERS = ("characterizations", "jobs_run")


class Session:
    """Cached programmatic entry point to the whole POPS protocol.

    Parameters
    ----------
    library:
        A pre-built characterised library; mutually exclusive with
        ``tech``.
    tech:
        Technology to build the default library for (0.25 um if omitted).
    backend:
        Delay-model backend name (``"analytic"`` or ``"nldm"``); mutually
        exclusive with ``library``.  ``"nldm"`` requires ``liberty`` and
        builds the session library from the ``.lib`` tables
        (:func:`repro.liberty.library_from_lib`).  Omitted, the session
        runs whatever backend its library carries (analytic by default).
    liberty:
        Path to the ``.lib`` file for ``backend="nldm"``.
    bench_dir:
        Default directory of real ``.bench`` netlists for benchmark jobs
        that do not set their own.
    cache_limit:
        Per-cache LRU bound (entries).  ``None`` (the default) keeps the
        historical unbounded behaviour; a long-lived server sets a bound
        so a session over millions of distinct circuits cannot grow
        without limit.  Eviction is safe -- every cached artefact is a
        pure function of its key and is recomputed on the next miss.
    tracer:
        An optional :class:`repro.obs.Tracer`.  When given (and enabled)
        every job method runs inside a ``session.<op>`` span, the
        circuit optimizer records pass/path spans and the incremental
        engines record timed ``sta.update`` spans.  The default is the shared
        :data:`~repro.obs.NULL_TRACER`, whose overhead is a single
        attribute check -- results are byte-identical either way.

    Sessions are safe for concurrent readers: every cache-miss populate
    path is guarded by a per-key lock (double-checked against the cache),
    so N threads asking for the same artefact compute it once and the
    shared incremental engines / compiled circuits are never mutated
    concurrently.  Distinct keys populate in parallel.
    """

    def __init__(
        self,
        library: Optional[Library] = None,
        tech: Optional[Technology] = None,
        bench_dir: Optional[str] = None,
        cache_limit: Optional[int] = None,
        backend: Optional[str] = None,
        liberty: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if library is not None and tech is not None:
            raise ValueError("give at most one of 'library' and 'tech'")
        if backend is not None and library is not None:
            raise ValueError("give at most one of 'library' and 'backend'")
        if backend not in (None, "analytic", "nldm"):
            raise JobError(f"unknown backend {backend!r}")
        if backend == "nldm":
            if liberty is None:
                raise JobError("backend='nldm' requires a liberty .lib path")
            from repro.liberty import library_from_lib

            library = library_from_lib(liberty, tech=tech)
        elif liberty is not None:
            raise JobError("liberty applies only to backend='nldm' sessions")
        self._library = library if library is not None else default_library(tech)
        #: Backend identity stamped into job echoes and cache keys.
        self.backend_name: str = self._library.delay_backend.capabilities.name
        self.liberty_path: Optional[str] = liberty
        self.bench_dir = bench_dir
        self.cache_limit = cache_limit
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: The session's one counter store: the work counters, the
        #: ``resilience.*`` pool events, and in a daemon the ``serve.*``
        #: and ``store.*`` counters and the lifecycle histograms.
        self.metrics = MetricsRegistry()
        for name in _WORK_COUNTERS:
            self.metrics.inc(name, 0)
        #: Read-only ``characterizations`` / ``jobs_run`` attributes.
        self.stats = CounterView(self.metrics, {n: n for n in _WORK_COUNTERS})
        # Library/backend identity prefixed onto every circuit-keyed
        # cache key: two sessions over different libraries (or backends)
        # can never alias each other's derived artefacts, even through a
        # shared or serialized cache store.  The benchmarks cache stays
        # unprefixed on purpose -- parsed netlists carry no timing and
        # are backend-independent.
        self._fp = self._library.fingerprint()
        self._flimits: Optional[Dict] = None
        self._benchmarks: BoundedCache = BoundedCache(cache_limit, "benchmarks")
        self._sta_cache: BoundedCache = BoundedCache(cache_limit, "sta")
        self._engines: BoundedCache = BoundedCache(cache_limit, "engines")
        self._path_cache: BoundedCache = BoundedCache(cache_limit, "paths")
        self._bounds_cache: BoundedCache = BoundedCache(cache_limit, "bounds")
        self._compiled: BoundedCache = BoundedCache(cache_limit, "compiled")
        # Concurrency plumbing: `_lock` guards the cache maps and the
        # key-lock table; `_key_locks` holds one refcounted RLock per
        # in-flight populate key, dropped as soon as no thread needs it
        # (the table stays bounded by in-flight work, not by history).
        self._lock = threading.RLock()
        self._key_locks: Dict[Tuple[str, Any], List[Any]] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(tech={self._library.tech.name!r}, "
            f"jobs_run={self.stats.jobs_run})"
        )

    # -- concurrency plumbing ------------------------------------------

    @contextmanager
    def _populate_lock(self, name: str, key: Any) -> Iterator[None]:
        """A refcounted per-key RLock for one cache-miss populate.

        Two threads missing on the same key serialize here (the second
        one re-checks the cache and finds the first one's result); misses
        on distinct keys proceed in parallel.  The lock is reentrant so
        an operation may nest inside its own key (``mc`` holds the
        compiled-circuit key around the whole batch analysis).  Entries
        are dropped when the last holder leaves, so the table is bounded
        by in-flight work.
        """
        token = (name, key)
        with self._lock:
            entry = self._key_locks.get(token)
            if entry is None:
                entry = [threading.RLock(), 0]
                self._key_locks[token] = entry
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._lock:
                entry[1] -= 1
                if entry[1] == 0:
                    self._key_locks.pop(token, None)

    # -- cached primitives ---------------------------------------------

    @property
    def library(self) -> Library:
        """The session's characterised library."""
        return self._library

    def flimits(self) -> Dict:
        """The ``(driver, gate) -> Flimit`` table, characterised once.

        ``stats.characterizations`` counts *actual* characterisations:
        it stays at zero when the insertion-layer cache already holds the
        table for this library's fingerprint (e.g. a sibling session over
        an equal library built it).  Filling the table records a
        ``buffering.flimits`` span whose ``characterised`` attribute says
        which of the two happened.
        """
        if self._flimits is None:
            with self._populate_lock("flimits", None):
                if self._flimits is None:
                    from repro.buffering.insertion import flimit_cache_contains

                    characterised = not flimit_cache_contains(self._library)
                    with self.tracer.span(
                        "buffering.flimits", characterised=characterised
                    ):
                        if characterised:
                            self.metrics.inc("characterizations")
                        self._flimits = default_flimits(self._library)
        return self._flimits

    def _memo(
        self,
        cache: BoundedCache,
        key: Any,
        build: Callable[[], Any],
        lock_key: Any = None,
    ) -> Any:
        """``cache[key]``, built by ``build()`` once per miss.

        One counted lookup; a miss takes the populate lock of ``lock_key``
        (default ``key``) and re-checks with an uncounted ``peek``, so N
        threads missing on one key build it once and every call counts
        exactly one hit or miss.
        """
        with self._lock:
            value = cache.get(key)
        if value is not None:
            return value
        with self._populate_lock(cache.name, key if lock_key is None else lock_key):
            with self._lock:
                value = cache.peek(key)
            if value is None:
                value = build()
                with self._lock:
                    cache[key] = value
        return value

    def benchmark(self, name: str, bench_dir: Optional[str] = None) -> Circuit:
        """A fresh copy of a registered benchmark, parsed/generated once."""
        directory = bench_dir if bench_dir is not None else self.bench_dir
        master = self._memo(
            self._benchmarks,
            (name, directory),
            lambda: load_benchmark(name, bench_dir=directory),
        )
        return master.copy()

    def sta(self, circuit: Circuit) -> StaResult:
        """Static timing analysis, memoized on the circuit state hash.

        Mutating a circuit after a result was cached can never serve
        stale arrivals: the state hash covers structure *and* sizing, so
        the mutated circuit misses the result cache.  The miss is then
        served by an :class:`~repro.timing.incremental.IncrementalSta`
        engine cached per *structure* hash -- a pure re-sizing re-times
        only the changed fan-out cones (an ``engines`` cache hit), a
        structural edit builds a fresh engine; either way the payload is
        bit-identical to a from-scratch analysis.
        """
        skey = (self._fp, circuit.structure_key())
        # The populate lock is per *structure*: the incremental engine is
        # shared mutable state, so two different sizings of one netlist
        # must not drive it concurrently.
        return self._memo(
            self._sta_cache,
            (self._fp, circuit.state_key()),
            lambda: self._retime(circuit, skey),
            lock_key=skey,
        )

    def _retime(self, circuit: Circuit, skey: Any) -> StaResult:
        """Time ``circuit`` on its structure's engine (``skey``'s lock held)."""
        with self._lock:
            engine = self._engines.get(skey)
        if engine is None:
            # The engine owns a private copy: later caller-side
            # mutations cannot desynchronise its cached annotation.
            engine = IncrementalSta(circuit.copy(), self._library)
            with self._lock:
                self._engines[skey] = engine
            return engine.result()
        # Refresh the tracer attachment on every reuse: the session's
        # tracer decides whether this update records an ``sta.update`` span,
        # and a stale attachment from an earlier traced run must not
        # outlive it.
        engine.tracer = self.tracer if self.tracer.enabled else None
        changed = []
        for name, gate in circuit.gates.items():
            own = engine.circuit.gates[name]
            if own.cin_ff != gate.cin_ff:
                own.cin_ff = gate.cin_ff
                changed.append(name)
        # The cached annotation feeds path extraction: it needs the arc
        # timings, which ``update`` leaves out of its own return value.
        engine.update(changed)
        return engine.result()

    def _job_engine(self, circuit: Circuit) -> Optional[IncrementalSta]:
        """A private engine over a copy of ``circuit``, seeded from the cache.

        The session's engine for ``circuit``'s structure normally
        annotates the very state the job starts from (the job's delay
        bounds were timed on it), so a copy re-synced to ``circuit``
        re-times nothing, where a fresh build re-times the whole circuit.
        The copy is taken under the structure's populate lock, so a
        concurrent re-time is never read half-done, and the job's edits
        never reach the cached engine.  ``None`` when the session holds
        no engine for the structure (an evicted entry): the optimizer
        then builds its own.
        """
        skey = (self._fp, circuit.structure_key())
        with self._populate_lock(self._sta_cache.name, skey):
            with self._lock:
                seed = self._engines.peek(skey)
            if seed is None:
                return None
            return IncrementalSta(circuit.copy(), self._library, seed=seed)

    def critical_path(self, circuit: Circuit) -> ExtractedPath:
        """Critical-path extraction, memoized on the circuit state hash."""
        return self._memo(
            self._path_cache,
            (self._fp, circuit.state_key()),
            lambda: critical_path(circuit, self._library, sta=self.sta(circuit)),
        )

    def path_bounds(self, circuit: Circuit) -> DelayBounds:
        """Critical-path ``(Tmin, Tmax)`` window, memoized per state."""
        return self._memo(
            self._bounds_cache,
            (self._fp, circuit.state_key()),
            lambda: delay_bounds(self.critical_path(circuit).path, self._library),
        )

    def compiled(self, circuit: Circuit) -> CompiledCircuit:
        """Batch-engine compilation, memoized on the circuit *structure*.

        The struct-of-arrays form (levelized topology, fan-in indices,
        cell constants) is a pure function of the structure, so a
        Tc-sweep's many sizings of one netlist share one compilation;
        only the cheap sizing-dependent arrays are re-bound per call
        (:meth:`~repro.mc.compile.CompiledCircuit.bind`), which also
        means the returned object always reflects ``circuit``'s
        *current* sizes -- stale bindings are impossible.
        """
        key = (self._fp, circuit.structure_key())
        # Per-structure lock: ``bind`` rewrites the sizing arrays of a
        # shared object, so concurrent binds of different sizings must
        # serialize (``mc`` holds this same key around its whole batch
        # analysis, reentrantly, so the arrays stay pinned while in use).
        with self._populate_lock("compiled", key):
            with self._lock:
                comp = self._compiled.get(key)
            if comp is None:
                comp = CompiledCircuit(circuit, self._library)
                with self._lock:
                    self._compiled[key] = comp
            else:
                comp.bind(circuit)
        return comp

    def clear_caches(self) -> None:
        """Drop every memoized artefact (the Flimit table included)."""
        with self._lock:
            self._flimits = None
            self._benchmarks.clear()
            self._sta_cache.clear()
            self._engines.clear()
            self._path_cache.clear()
            self._bounds_cache.clear()
            self._compiled.clear()

    def cache_stats(self) -> Dict[str, Any]:
        """Size, bound, counters and rates of every cache, one schema.

        The shape is JSON-native: ``{"limit": ..., "caches": {name:
        {size, maxsize, hits, misses, evictions, hit_rate}}, "hit_rates":
        {name: rate}, "evictions": total, "counters": {...}}``.  Per
        cache, ``hit_rate`` is the hit fraction in ``[0, 1]`` (``None``
        before any lookups); ``hit_rates`` and ``evictions`` repeat the
        rates and the eviction total at the top level so dashboards need
        not walk the nested dicts.  This is the surface the serving
        layer's ``status`` endpoint and ``pops status`` expose;
        ``counters`` lists every counter of :attr:`metrics`.
        """
        with self._lock:
            caches = {
                cache.name: cache.stats()
                for cache in (
                    self._benchmarks,
                    self._sta_cache,
                    self._engines,
                    self._path_cache,
                    self._bounds_cache,
                    self._compiled,
                )
            }
            return {
                "limit": self.cache_limit,
                "caches": caches,
                "hit_rates": {
                    name: stats["hit_rate"] for name, stats in caches.items()
                },
                "evictions": sum(
                    stats["evictions"] for stats in caches.values()
                ),
                "counters": self.metrics.counters(),
            }

    def engine_stats(self) -> Dict[str, int]:
        """The cached engines' summed ``IncrementalSta.stats``, plus
        their count under ``engines`` (the list is copied under the lock).
        """
        with self._lock:
            engines = list(self._engines.values())
        totals = {"engines": len(engines), **IncrementalStats().as_dict()}
        for engine in engines:
            for name, value in engine.stats.as_dict().items():
                totals[name] += value
        return totals

    # -- job plumbing --------------------------------------------------

    def _prepare_job(self, job: Job) -> Job:
        """Validate a job's backend pin and stamp the session's identity.

        A job that names a backend (or a ``.lib``) other than the one
        this session runs is a spec error -- silently serving it with a
        different delay model would corrupt campaign bookkeeping.  Jobs
        that leave the backend unset inherit it: non-analytic sessions
        stamp ``backend``/``liberty`` into the echo so the produced
        :class:`~repro.api.records.RunRecord` names the model that made
        it (analytic stays unstamped to keep the historical byte form).
        """
        if job.backend is not None and job.backend != self.backend_name:
            raise JobError(
                f"job {job.name!r} pins backend {job.backend!r} but this "
                f"session runs {self.backend_name!r}"
            )
        if (
            job.liberty is not None
            and self.liberty_path is not None
            and os.path.abspath(job.liberty) != os.path.abspath(self.liberty_path)
        ):
            raise JobError(
                f"job {job.name!r} pins liberty {job.liberty!r} but this "
                f"session loaded {self.liberty_path!r}"
            )
        if self.backend_name != "analytic" and job.backend is None:
            job = replace(
                job, backend=self.backend_name, liberty=self.liberty_path
            )
        return job

    def resolve_circuit(self, job: Job) -> Circuit:
        """The working netlist a job refers to."""
        if job.circuit is not None:
            return job.circuit
        return self.benchmark(job.benchmark, bench_dir=job.bench_dir)

    def resolve_tc(self, job: Job, tmin_ps: float) -> float:
        """The absolute delay constraint (ps) a job requests."""
        if job.tc_ps is not None:
            return job.tc_ps
        if job.tc_ratio is not None:
            return job.tc_ratio * tmin_ps
        raise JobError(
            f"job {job.name!r} needs a constraint: set tc_ps or tc_ratio"
        )

    # -- operations ----------------------------------------------------

    def characterize(self, with_simulation: bool = False) -> RunRecord:
        """Full Table 2 characterisation as a run record."""
        sw = Stopwatch()
        with self.tracer.span("session.characterize"):
            self.metrics.inc("characterizations")
            entries = characterize_library(
                self._library, gates=TABLE2_GATES, with_simulation=with_simulation
            )
            return RunRecord(
                kind=KIND_CHARACTERIZE,
                job=None,
                payload=entries,
                extra={"with_simulation": bool(with_simulation)},
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    def bounds(self, job: Job) -> RunRecord:
        """Critical-path delay window of the job's circuit."""
        sw = Stopwatch()
        with self.tracer.span("session.bounds", job=job.name):
            self.metrics.inc("jobs_run")
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            extracted = self.critical_path(circuit)
            checkpoint()
            bounds = self.path_bounds(circuit)
            return RunRecord(
                kind=KIND_BOUNDS,
                job=job,
                payload={
                    "gate_names": extracted.gate_names,
                    "path": extracted.path,
                    "bounds": bounds,
                },
                extra={
                    "extraction_delay_ps": float(extracted.delay_ps),
                    "path_gates": len(extracted.gate_names),
                },
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    def optimize(self, job: Job, warm: Optional[WarmStart] = None) -> RunRecord:
        """Run the Fig. 7 protocol for one job (path or circuit scope).

        ``warm`` threads a sweep's carry-over state (pure-function memos)
        into the circuit driver; payloads are byte-identical with or
        without it (see :class:`~repro.protocol.optimizer.WarmStart`).
        ``warm``'s eq. 4 memo covers the whole job, so the delay-bounds
        solve of the critical path is shared with the optimizer's first
        pass.  A circuit job seeds its engine from this session's cached
        one (see :meth:`_job_engine`) instead of building a second.
        """
        sw = Stopwatch()
        with self.tracer.span(
            "session.optimize", job=job.name, scope=job.scope
        ), tmin_memo(warm.bounds_memo if warm is not None else None):
            self.metrics.inc("jobs_run")
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            bounds = self.path_bounds(circuit)
            tc_ps = self.resolve_tc(job, bounds.tmin_ps)
            limits = self.flimits()

            telemetry = None
            if job.scope == "path":
                extracted = self.critical_path(circuit)
                outcome = optimize_path(
                    extracted.path,
                    self._library,
                    tc_ps,
                    limits=limits,
                    allow_restructuring=job.allow_restructuring,
                    weight_mode=job.weight_mode,
                    tmin_ps=bounds.tmin_ps,
                )
                kind = KIND_OPTIMIZE_PATH
                extra = {
                    "tc_ps": float(tc_ps),
                    "tmin_ps": float(bounds.tmin_ps),
                    "tmax_ps": float(bounds.tmax_ps),
                    "path_gates": len(extracted.gate_names),
                }
            else:
                outcome = optimize_circuit(
                    circuit,
                    self._library,
                    tc_ps,
                    k_paths=job.k_paths,
                    max_passes=job.max_passes,
                    limits=limits,
                    weight_mode=job.weight_mode,
                    allow_restructuring=job.allow_restructuring,
                    warm=warm,
                    tracer=self.tracer if self.tracer.enabled else None,
                    engine=self._job_engine(circuit),
                )
                kind = KIND_OPTIMIZE_CIRCUIT
                extra = {
                    "tc_ps": float(tc_ps),
                    "tmin_ps": float(bounds.tmin_ps),
                    "area_um": float(
                        circuit_area_um(outcome.circuit, self._library)
                    ),
                }
                if outcome.telemetry is not None:
                    telemetry = outcome.telemetry.as_dict()
            return RunRecord(
                kind=kind,
                job=job,
                payload=outcome,
                extra=extra,
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
                telemetry=telemetry,
            )

    def power(self, job: Job) -> RunRecord:
        """Area / activity / power report for the job's circuit."""
        sw = Stopwatch()
        with self.tracer.span("session.power", job=job.name):
            self.metrics.inc("jobs_run")
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            activity = estimate_activity(circuit, n_vectors=job.activity_vectors)
            checkpoint()
            report = estimate_power(
                circuit,
                self._library,
                frequency_mhz=job.frequency_mhz,
                activity=activity,
            )
            return RunRecord(
                kind=KIND_POWER,
                job=job,
                payload=report,
                extra={
                    "area_um": float(circuit_area_um(circuit, self._library)),
                    "mean_activity": float(activity.mean_rate),
                },
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    def mc(
        self,
        job: Job,
        spec: Optional[VariationSpec] = None,
        target_yield: float = 0.99,
    ) -> RunRecord:
        """Monte-Carlo corner analysis of the job's circuit (``KIND_MC``).

        The sizing stays fixed while ``job.mc_samples`` process corners
        (seeded by ``job.mc_seed``) are evaluated in one vectorized batch
        over the structure-cached compilation.  A constraint on the job
        (``tc_ps``, or ``tc_ratio`` as a multiple of the critical path's
        ``Tmin``) becomes the yield target; without one the record still
        carries the distribution and guard bands.
        """
        sw = Stopwatch()
        with self.tracer.span("session.mc", job=job.name):
            self.metrics.inc("jobs_run")
            job = self._prepare_job(job)
            circuit = self.resolve_circuit(job)
            # Only a Tmin-relative constraint needs the (eq. 4) bounds
            # solve; an absolute tc_ps must not pay extraction + fixed
            # point for a value it would discard.
            tc_ps: Optional[float] = job.tc_ps
            if tc_ps is None and job.tc_ratio is not None:
                tc_ps = self.resolve_tc(job, self.path_bounds(circuit).tmin_ps)
            checkpoint()
            # Hold the compiled-circuit key for the whole batch analysis:
            # the compilation is shared per structure and ``bind``
            # rewrites its sizing arrays, so a concurrent mc over another
            # sizing of the same netlist must wait (the inner
            # ``compiled`` call re-enters the same RLock).
            with self._populate_lock(
                "compiled", (self._fp, circuit.structure_key())
            ):
                result: McResult = mc_analyze(
                    circuit,
                    self._library,
                    spec=spec,
                    n_samples=job.mc_samples,
                    seed=job.mc_seed,
                    tc_ps=tc_ps,
                    target_yield=target_yield,
                    compiled=self.compiled(circuit),
                )
            extra: Dict[str, object] = {
                "nominal_ps": float(result.nominal_ps),
                "p99_ps": float(result.p99_ps),
                "guard_band": float(result.guard_band),
                "required_guard_band": float(result.required_guard_band),
            }
            if tc_ps is not None:
                extra["tc_ps"] = float(tc_ps)
                extra["yield"] = float(result.yield_fraction or 0.0)
            return RunRecord(
                kind=KIND_MC,
                job=job,
                payload=result,
                extra=extra,
                elapsed_s=sw.elapsed_s,
                created_unix=time.time(),
            )

    # -- batch / scale-out ---------------------------------------------

    def run_chunks(
        self,
        chunks: Iterable[Iterable[Job]],
        on_record: Callable[[int, RunRecord], None],
        supervisor: Optional[PoolSupervisor] = None,
    ) -> None:
        """Optimize chunks of jobs; hand each record to ``on_record``.

        The jobs of a chunk run in order under one
        :class:`~repro.protocol.optimizer.WarmStart`, so they share its
        eq. 4 and extraction memos; a one-job chunk still solves each
        path once.  ``on_record(index, record)`` fires as soon as a
        record exists, ``index`` being the job's position in the
        concatenated chunks.

        With a ``supervisor``, every undelivered chunk is one task for
        the pool worker entry (:func:`_chunk_worker`): completions stream
        back through the running job's stop token, a worker crash re-runs
        only the chunks not yet delivered, and a job failure ends its
        chunk.  Without one, or once the supervisor gives up, the
        remaining chunks run in this thread, each job behind a
        :func:`~repro.resilience.policy.checkpoint` and inside a
        ``sweep.point`` span.  Either way a job error raised is the
        serial loop's: the lowest failed chunk's, once every chunk before
        it was delivered.  An error from ``on_record`` itself is raised
        as is, and the pool is not blamed for it.  Records are
        byte-identical on both paths.
        """
        chunks = [[self._prepare_job(job) for job in chunk] for chunk in chunks]
        starts = list(accumulate((len(chunk) for chunk in chunks), initial=0))
        # chunk index -> its job error (``None`` for a clean chunk)
        delivered: Dict[int, Optional[BaseException]] = {}

        def on_pool(pool: Any) -> Optional[Exception]:
            task = (self._library, self.flimits(), self.bench_dir)
            futures = {
                pool.submit(_chunk_worker, (*task, [j.to_dict() for j in chunk])): i
                for i, chunk in enumerate(chunks)
                if i not in delivered
            }
            pending = set(futures)
            while pending:
                done = current_token().wait(pending)
                pending -= done
                ordered = sorted(done, key=futures.__getitem__)
                for future in ordered:
                    if future.exception() is not None:
                        continue
                    index = futures[future]
                    error = None
                    for offset, entry in enumerate(future.result()):
                        if JOB_ERROR_KEY in entry:
                            error = entry[JOB_ERROR_KEY]
                            break
                        self.metrics.inc("jobs_run")
                        record = RunRecord.from_dict(entry, library=self._library)
                        try:
                            on_record(starts[index] + offset, record)
                        except Exception as exc:
                            # The caller's failure, returned so that the
                            # supervisor never takes it for the pool's.
                            for other in pending:
                                other.cancel()
                            return exc
                    delivered[index] = error
                for future in ordered:
                    future.result()  # pool breakage raises after delivery
            return None

        if supervisor is not None:
            try:
                failure = supervisor.run(on_pool)
            except PoolUnavailable:
                failure = None  # the loop below runs what was not delivered
            if failure is not None:
                raise failure
        for index, chunk in enumerate(chunks):
            if index in delivered:
                error = delivered[index]
                if error is not None:
                    raise error
                continue
            warm = WarmStart()
            for offset, job in enumerate(chunk):
                checkpoint()
                with self.tracer.span("sweep.point", label=job.name) as span:
                    record = self.optimize(job, warm=warm)
                    span.set(elapsed_s=float(record.elapsed_s))
                on_record(starts[index] + offset, record)

    def _batch_supervisor(
        self, workers: Optional[int], n_chunks: int
    ) -> PoolSupervisor:
        """A per-call pool of ``min(workers, n_chunks)`` processes.

        Disabled (``run_chunks`` stays in-thread) below two processes;
        a crash retries once on a fresh pool (:data:`RETRY_ONCE`).
        """
        size = min(workers or 0, n_chunks)
        return PoolSupervisor(size if size > 1 else 0, RETRY_ONCE, self.metrics)

    def optimize_many(
        self,
        jobs: Iterable[Job],
        workers: Optional[int] = None,
    ) -> List[RunRecord]:
        """Optimize a batch of jobs, optionally across worker processes.

        One :meth:`run_chunks` chunk per job.  ``workers`` at
        ``None``/``0``/``1`` runs them in this thread (sharing every
        session cache).  Higher values fan them out to a supervised
        process pool seeded with this session's library and (already
        characterised) Flimit table: a worker crash re-runs the
        undelivered jobs once on a fresh pool, and a second crash or an
        environment without subprocesses runs the rest in-thread, counted
        on :attr:`metrics`.  Records come back in job order, payloads
        byte-identical between the two paths; only the timing metadata
        differs.
        """
        job_list = list(jobs)
        for job in job_list:
            if not isinstance(job, Job):
                raise JobError(f"optimize_many expects Job instances, got {job!r}")
        records: Dict[int, RunRecord] = {}
        with self._batch_supervisor(workers, len(job_list)) as supervisor:
            self.run_chunks(
                [[job] for job in job_list], records.__setitem__, supervisor
            )
        return [records[index] for index in range(len(job_list))]


#: Key under which :func:`_chunk_worker` marshals a job failure back to
#: the parent, so that a job's own exception is never mistaken for pool
#: breakage.
JOB_ERROR_KEY = "__pops_job_error__"


def _chunk_worker(
    task: Tuple[Library, Dict, Optional[str], List[Dict]],
) -> List[Dict]:
    """Process-pool entry: run one chunk in a fresh session, return dicts.

    The parent's Flimit table is installed so workers never
    re-characterise; the chunk runs in :meth:`Session.run_chunks`'s own
    in-thread loop, and its records cross the process boundary in
    serialized form, which is also what pins them byte-identical to the
    parent's in-thread path.  A job's own exception ends the chunk and is
    marshalled under :data:`JOB_ERROR_KEY` rather than raised, so the
    parent can tell it apart from pool breakage.
    """
    library, limits, bench_dir, job_dicts = task
    faults.maybe_crash(faults.SITE_WORKER_CRASH)
    session = Session(library=library, bench_dir=bench_dir)
    session._flimits = limits
    out: List[Dict] = []
    try:
        session.run_chunks(
            [[Job.from_dict(data) for data in job_dicts]],
            lambda _, record: out.append(record.to_dict()),
        )
    except Exception as exc:
        out.append({JOB_ERROR_KEY: exc})
    return out
