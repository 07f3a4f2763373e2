"""Session facade: characterisation caching, state-keyed memoization."""

import pytest

import repro.buffering.insertion as insertion
from repro.api import Job, JobError, Session
from repro.buffering.netlist_insertion import insert_buffer_pair
from repro.cells.library import default_library
from repro.iscas.loader import load_benchmark
from repro.process.technology import CMOS018
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
