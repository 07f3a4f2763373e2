"""Session facade: characterisation caching, state-keyed memoization."""

import pytest

import repro.buffering.insertion as insertion
from repro.api import Job, JobError, Session
from repro.buffering.netlist_insertion import insert_buffer_pair
from repro.cells.library import default_library
from repro.iscas.loader import load_benchmark
from repro.process.technology import CMOS018
from repro.timing.critical_paths import critical_path
from repro.timing.sta import analyze


@pytest.fixture()
def counted_characterize(monkeypatch):
    """Count actual library characterisations behind ``default_flimits``.

    The Flimit cache starts empty, so counts do not depend on test order.
    """
    calls = {"n": 0}
    real = insertion.characterize_library
    monkeypatch.setattr(insertion, "_FLIMIT_CACHE", {})

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(insertion, "characterize_library", counting)
    return calls


def _cache(session, name):
    """One cache's hit/miss counters from ``cache_stats``."""
    return session.cache_stats()["caches"][name]


class TestFlimitCaching:
    def test_characterization_runs_once_per_session(self, counted_characterize):
        session = Session(library=default_library())
        job = Job(benchmark="fpd", tc_ratio=1.3)   # medium: uses the table
        session.optimize(job)
        assert counted_characterize["n"] == 1
        # Repeated optimizations perform ZERO additional characterisations.
        session.optimize(job.with_constraint(tc_ratio=1.1))
        session.optimize(job.with_constraint(tc_ratio=1.6))
        assert counted_characterize["n"] == 1
        assert session.stats.characterizations == 1

    def test_module_cache_shares_across_sessions(self, counted_characterize):
        library = default_library()
        Session(library=library).flimits()
        assert counted_characterize["n"] == 1
        # A second session over the *same* library instance hits the
        # insertion-layer cache: still one characterisation in total.
        Session(library=library).flimits()
        assert counted_characterize["n"] == 1

    def test_use_cache_false_forces_recompute(self, counted_characterize):
        library = default_library()
        first = insertion.default_flimits(library)
        fresh = insertion.default_flimits(library, use_cache=False)
        assert counted_characterize["n"] == 2
        assert first == fresh

    def test_cache_contains_is_the_public_probe(self, counted_characterize):
        library = default_library()
        assert not insertion.flimit_cache_contains(library)
        insertion.default_flimits(library)
        assert insertion.flimit_cache_contains(library)
        # Keyed by value: an equal library hits, another technology misses.
        assert insertion.flimit_cache_contains(default_library())
        assert not insertion.flimit_cache_contains(default_library(CMOS018))


class TestStateKeyedCaches:
    def test_state_key_tracks_sizing(self):
        circuit = load_benchmark("fpd")
        key = circuit.state_key()
        assert circuit.copy().state_key() == key
        circuit.gates[next(iter(circuit.gates))].cin_ff = 99.0
        assert circuit.state_key() != key

    def test_sweep_extracts_and_bounds_once(self):
        session = Session()
        base = Job(benchmark="fpd")
        session.bounds(base)
        session.bounds(base)
        session.optimize(base.with_constraint(tc_ratio=2.0))
        assert _cache(session, "paths")["misses"] == 1
        assert _cache(session, "bounds")["misses"] == 1
        assert _cache(session, "bounds")["hits"] >= 2
        assert _cache(session, "benchmarks")["misses"] == 1

    def test_sta_memoized_until_resized(self):
        session = Session()
        circuit = load_benchmark("fpd")
        first = session.sta(circuit)
        assert session.sta(circuit) is first
        assert _cache(session, "sta")["hits"] == 1
        circuit.gates[next(iter(circuit.gates))].cin_ff = 42.0
        assert session.sta(circuit) is not first
        assert _cache(session, "sta")["misses"] == 2

    def test_clear_caches(self):
        session = Session()
        session.bounds(Job(benchmark="fpd"))
        session.clear_caches()
        assert session._bounds_cache == {}
        assert session._engines == {}
        assert session._flimits is None


class TestInvalidation:
    """Mutating a circuit after an analysis can never serve stale state."""

    def test_resized_circuit_gets_fresh_arrivals(self):
        session = Session()
        circuit = load_benchmark("fpd")
        session.sta(circuit)
        circuit.gates[next(iter(circuit.gates))].cin_ff = 42.0
        served = session.sta(circuit)
        fresh = analyze(circuit, session.library)
        assert served.critical_delay_ps == fresh.critical_delay_ps
        assert served.arrivals == fresh.arrivals
        assert served.loads_ff == fresh.loads_ff
        # ...and the re-sizing was served incrementally, not by full STA.
        assert _cache(session, "engines")["hits"] == 1

    def test_resized_circuit_extracts_like_a_fresh_analysis(self):
        session = Session()
        circuit = load_benchmark("fpd")
        session.critical_path(circuit)
        circuit.gates[next(iter(circuit.gates))].cin_ff = 42.0
        served = session.sta(circuit)
        assert served.arcs == analyze(circuit, session.library).arcs
        assert session.critical_path(circuit) == critical_path(
            circuit, session.library
        )
        assert _cache(session, "engines")["hits"] == 1

    def test_structural_mutation_gets_fresh_engine(self):
        session = Session()
        circuit = load_benchmark("fpd")
        session.sta(circuit)
        insert_buffer_pair(circuit, next(iter(circuit.gates)), session.library)
        served = session.sta(circuit)
        fresh = analyze(circuit, session.library)
        assert served.arrivals == fresh.arrivals
        assert _cache(session, "engines")["hits"] == 0
        assert len(session._engines) == 2

    def test_caller_mutations_cannot_corrupt_the_engine(self):
        """The engine snapshots the circuit; later edits don't leak in."""
        session = Session()
        circuit = load_benchmark("fpd")
        first = session.sta(circuit)
        reference = analyze(circuit, session.library)
        # Mutate without telling the session, then hand in a pristine copy.
        pristine = load_benchmark("fpd")
        circuit.gates[next(iter(circuit.gates))].cin_ff = 3.21
        session.sta(circuit)
        served = session.sta(pristine)
        assert served.arrivals == reference.arrivals
        assert first.arrivals == reference.arrivals

    def test_incremental_misses_stay_bit_identical_over_a_sweep(self):
        session = Session()
        circuit = load_benchmark("fpd")
        names = list(circuit.gates)
        for step, scale in enumerate((0.5, 1.5, 3.0, 0.8)):
            gate = circuit.gates[names[step]]
            gate.cin_ff = scale * 4.0
            served = session.sta(circuit)
            fresh = analyze(circuit, session.library)
            assert served.arrivals == fresh.arrivals, f"step={step}"
        assert _cache(session, "engines")["hits"] == 3


class TestJobPlumbing:
    def test_optimize_requires_a_constraint(self):
        session = Session()
        with pytest.raises(JobError, match="constraint"):
            session.optimize(Job(benchmark="fpd"))

    def test_tc_ps_passes_through(self):
        session = Session()
        record = session.optimize(Job(benchmark="fpd", tc_ps=1200.0))
        assert record.extra["tc_ps"] == 1200.0
        assert record.payload.tc_ps == 1200.0

    def test_tc_ratio_scales_tmin(self):
        session = Session()
        job = Job(benchmark="fpd", tc_ratio=2.0)
        tmin = session.path_bounds(session.resolve_circuit(job)).tmin_ps
        record = session.optimize(job)
        assert record.extra["tc_ps"] == pytest.approx(2.0 * tmin)

    def test_inline_circuit_job(self):
        session = Session()
        circuit = load_benchmark("fpd")
        record = session.optimize(Job(circuit=circuit, tc_ratio=2.5))
        assert record.kind == "optimize-path"
        assert record.payload.feasible

    def test_circuit_scope_forwards_restructuring_flag(self, monkeypatch):
        import repro.protocol.optimizer as optimizer

        seen = []
        real = optimizer.optimize_path

        def spy(*args, **kwargs):
            seen.append(kwargs.get("allow_restructuring"))
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "optimize_path", spy)
        session = Session()
        session.optimize(
            Job(benchmark="fpd", tc_ratio=1.15, scope="circuit",
                k_paths=2, max_passes=1, allow_restructuring=False)
        )
        assert seen and all(flag is False for flag in seen)

    def test_library_and_tech_are_exclusive(self):
        from repro.process.technology import CMOS025

        with pytest.raises(ValueError, match="at most one"):
            Session(library=default_library(), tech=CMOS025)

    def test_unknown_benchmark_raises_keyerror(self):
        with pytest.raises(KeyError):
            Session().bounds(Job(benchmark="c0000"))


#: The circuit job the one-engine/one-solve tests run.
C432_JOB = Job(benchmark="c432", tc_ratio=1.3, scope="circuit", max_passes=3)


@pytest.fixture()
def full_builds(monkeypatch):
    """Count from-scratch ``IncrementalSta`` builds."""
    from repro.timing.incremental import IncrementalSta

    calls = {"n": 0}
    real = IncrementalSta.rebuild

    def counting(self):
        calls["n"] += 1
        return real(self)

    monkeypatch.setattr(IncrementalSta, "rebuild", counting)
    return calls


class TestOneEnginePerJob:
    """A circuit job seeds its engine from the session's cached one."""

    def test_cold_circuit_job_builds_one_engine(self, full_builds):
        Session().optimize(C432_JOB)
        assert full_builds["n"] == 1

    def test_sweep_points_build_one_engine(self, full_builds):
        from repro.protocol.optimizer import WarmStart

        session = Session()
        warm = WarmStart()
        session.optimize(C432_JOB, warm=warm)
        assert full_builds["n"] == 1
        # The next point too copies the cached engine of the pristine
        # start.
        session.optimize(
            Job(benchmark="c432", tc_ratio=1.6, scope="circuit", max_passes=3),
            warm=warm,
        )
        assert full_builds["n"] == 1

    def test_job_engine_times_a_private_copy(self):
        session = Session()
        circuit = session.resolve_circuit(C432_JOB)
        session.sta(circuit)
        engine = session._job_engine(circuit)
        assert engine.circuit is not circuit
        assert engine.circuit.state_key() == circuit.state_key()
        assert engine.stats.full_builds == 0
        assert engine.stats.gates_reevaluated == 0

    def test_job_edits_leave_the_cached_engine_pristine(self):
        session = Session()
        record = session.optimize(C432_JOB)
        pristine = load_benchmark("c432")
        assert record.payload.circuit.state_key() != pristine.state_key()
        cached = session._engines.peek(
            (session.library.fingerprint(), pristine.structure_key())
        )
        assert cached.stats.updates == 0
        got = cached.result()
        ref = analyze(pristine, session.library)
        assert got.arrivals == ref.arrivals
        assert got.loads_ff == ref.loads_ff
        assert got.arcs == ref.arcs
        assert got.critical_delay_ps == ref.critical_delay_ps

    def test_threads_seeded_from_one_engine_match_a_serial_run(self, monkeypatch):
        """Barrier-stepped: both jobs copy the cached engine, then both run."""
        import threading

        jobs = [
            C432_JOB,
            Job(benchmark="c432", tc_ratio=1.6, scope="circuit", max_passes=3),
        ]
        serial = Session()
        expected = [serial.optimize(job).to_json(with_timing=False) for job in jobs]

        session = Session()
        session.bounds(Job(benchmark="c432"))  # builds the cached engine
        skey = (session.library.fingerprint(), load_benchmark("c432").structure_key())
        seed = session._engines.peek(skey)
        seeded = threading.Barrier(2, timeout=60)
        seeds = []
        real = Session._job_engine

        def stepped(self, circuit):
            seeds.append(self._engines.peek(skey))
            engine = real(self, circuit)
            seeded.wait()  # neither job starts its passes before both copied
            return engine

        monkeypatch.setattr(Session, "_job_engine", stepped)
        got = [None, None]

        def run(index):
            got[index] = session.optimize(jobs[index]).to_json(with_timing=False)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert seeds == [seed, seed]
        assert got == expected


@pytest.fixture()
def tmin_solves(monkeypatch):
    """Spy on every eq. 4 solve of a job.

    Each call appends ``(key, memo_active, solved)``: the memo key
    (polish flag, path fingerprint; ``None`` for a call the memo does not
    serve, such as one with start sizes or frozen gates), whether a
    ``tmin_memo`` was active, and whether the call solved -- no memo, or
    a miss that grew it.
    """
    import repro.protocol.optimizer as optimizer
    import repro.restructuring.demorgan as demorgan
    import repro.sizing.sensitivity as sensitivity
    from repro.sizing import bounds

    real = bounds.min_delay_bound
    calls = []

    def spy(path, library, *args, **kwargs):
        memo = bounds._ACTIVE_TMIN_MEMO.get()
        before = None if memo is None else len(memo)
        result = real(path, library, *args, **kwargs)
        key = None
        if not args and kwargs.get("cref_ff") is None and set(kwargs) <= {
            "cref_ff", "polish"
        }:
            key = (kwargs.get("polish", True), path.fingerprint())
        calls.append((key, memo is not None, memo is None or len(memo) > before))
        return result

    for module in (bounds, optimizer, sensitivity, insertion, demorgan):
        monkeypatch.setattr(module, "min_delay_bound", spy)
    return calls


class TestOneTminSolvePerPath:
    def _assert_one_solve_per_path(self, calls):
        assert all(active for _, active, _ in calls), (
            "eq. 4 solved outside the job's memo"
        )
        eligible = [(key, solved) for key, _, solved in calls if key is not None]
        paths = {key for key, _ in eligible}
        assert sum(solved for _, solved in eligible) == len(paths)
        assert len(eligible) > len(paths)  # the memo served repeats

    def test_first_sweep_point_solves_each_path_once(self, tmin_solves):
        """The delay-bounds solve shares the warm memo with the first pass."""
        from repro.protocol.optimizer import WarmStart

        Session().optimize(C432_JOB, warm=WarmStart())
        self._assert_one_solve_per_path(tmin_solves)

    def test_served_circuit_job_solves_each_path_once(self, tmin_solves):
        """A served job runs under its own eq. 4 memo, as a sweep point."""
        from repro.serve.scheduler import JobExecutor

        job = Job(benchmark="c432", tc_ratio=1.3, scope="circuit")
        executor = JobExecutor(Session(), threads=1, heavy_threads=1)
        try:
            executor.run("optimize", job.to_dict())
        finally:
            executor.shutdown()
        self._assert_one_solve_per_path(tmin_solves)
