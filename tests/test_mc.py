"""The vectorized Monte-Carlo corner engine: oracle and behaviour tests.

The two contracts everything else leans on:

* **nominal oracle** -- the batch kernel evaluated at the nominal corner
  must reproduce :func:`repro.timing.sta.analyze` (and therefore the
  incremental engine) *bit for bit* on every CORE circuit, under
  randomized sizings;
* **corner-stream compatibility** -- the array corner sampler consumes
  the rng stream exactly like the scalar ``perturbed_technology`` loop,
  and the batch evaluation of those corners matches the per-corner
  scalar loop within 1e-12 relative (bit-identical on this platform;
  the tolerance is the portable contract).
"""

import numpy as np
import pytest

from repro.analysis.variation import VariationSpec, perturbed_technology
from repro.api import KIND_MC, Job, RunRecord, Session
from repro.iscas.loader import load_benchmark
from repro.mc import (
    batch_analyze,
    batch_path_delays,
    compile_circuit,
    mc_analyze,
    mc_result_from_dict,
    mc_result_to_dict,
    mc_scalar_samples,
    nominal_corners,
    sample_corners,
)
from repro.timing.delay_model import Edge
from repro.timing.incremental import IncrementalSta
from repro.timing.sta import analyze

#: The paper's benchmark set (mirrors ``benchmarks/conftest.py``).
CORE_CIRCUITS = (
    "adder16",
    "c432",
    "c499",
    "c880",
    "c1355",
    "c1908",
    "c3540",
    "c5315",
    "c7552",
)

#: Portable numerical contract for batch-vs-scalar corner agreement.
RTOL = 1e-12


def _cache(session, name):
    """One cache's hit/miss counters from ``cache_stats``."""
    return session.cache_stats()["caches"][name]


def _randomly_sized(name: str, lib, seed: int = 11):
    circuit = load_benchmark(name)
    rng = np.random.default_rng(seed)
    for gate in circuit.gates.values():
        base = lib.cell(gate.kind).cin_min(lib.tech)
        gate.cin_ff = base * float(rng.uniform(1.0, 6.0))
    return circuit


class TestCornerSampling:
    def test_matches_scalar_rng_stream(self, lib):
        spec = VariationSpec()
        corners = sample_corners(lib.tech, spec, n_samples=20, seed=7)
        rng = np.random.default_rng(7)
        for i in range(20):
            scalar = perturbed_technology(lib.tech, spec, rng)
            batch = corners.technology_at(i)
            assert batch.tau_ps == scalar.tau_ps
            assert batch.r_ratio == scalar.r_ratio
            assert batch.vtn == scalar.vtn
            assert batch.vtp == scalar.vtp
            assert batch.c_gate_ff_per_um == scalar.c_gate_ff_per_um
            assert batch.c_junction_ff_per_um == scalar.c_junction_ff_per_um

    def test_zero_sigma_skips_the_draw(self, lib):
        # A zero sigma must not consume stream values (the scalar guard).
        spec = VariationSpec(tau_sigma=0.0, c_gate_sigma=0.0)
        corners = sample_corners(lib.tech, spec, n_samples=10, seed=3)
        rng = np.random.default_rng(3)
        for i in range(10):
            scalar = perturbed_technology(lib.tech, spec, rng)
            assert corners.technology_at(i) == scalar
        assert np.all(corners.tau_ps == lib.tech.tau_ps)

    def test_deterministic(self, lib):
        a = sample_corners(lib.tech, n_samples=50, seed=5)
        b = sample_corners(lib.tech, n_samples=50, seed=5)
        assert np.array_equal(a.tau_ps, b.tau_ps)
        assert np.array_equal(a.vtn, b.vtn)

    def test_nominal_corners(self, lib):
        corners = nominal_corners(lib.tech, 3)
        assert corners.n_samples == 3
        assert np.all(corners.tau_ps == lib.tech.tau_ps)
        assert np.all(corners.r_ratio == lib.tech.r_ratio)

    def test_validation(self, lib):
        with pytest.raises(ValueError):
            sample_corners(lib.tech, n_samples=0)
        with pytest.raises(ValueError):
            nominal_corners(lib.tech, 0)


class TestCompile:
    def test_levelized_row_space(self, lib):
        circuit = load_benchmark("fpd")
        compiled = compile_circuit(circuit, lib)
        assert compiled.n_inputs == len(circuit.inputs)
        assert compiled.n_gates == len(circuit.gates)
        assert set(compiled.names) == set(circuit.gates)
        # Every gate's fan-in lives in strictly earlier rows.
        for gate_id, name in enumerate(compiled.names):
            row = compiled.n_inputs + gate_id
            for slot, valid in enumerate(compiled.fanin_mask[gate_id]):
                if valid:
                    assert compiled.fanin_rows[gate_id, slot] < row

    def test_bind_rejects_other_structures(self, lib):
        compiled = compile_circuit(load_benchmark("fpd"), lib)
        with pytest.raises(ValueError):
            compiled.bind(load_benchmark("c432"))

    def test_bind_refreshes_sizing(self, lib):
        circuit = load_benchmark("fpd")
        compiled = compile_circuit(circuit, lib)
        before = compiled.sizes_dict()
        name = next(iter(circuit.gates))
        circuit.gates[name].cin_ff = 25.0
        compiled.bind(circuit)
        assert compiled.sizes_dict()[name] == 25.0
        assert before[name] != 25.0


class TestNominalOracle:
    @pytest.mark.parametrize("name", CORE_CIRCUITS)
    def test_bit_identical_to_analyze(self, name, lib):
        circuit = _randomly_sized(name, lib)
        compiled = compile_circuit(circuit, lib)
        batch = batch_analyze(compiled, nominal_corners(lib.tech, 1))
        oracle = analyze(circuit, lib)
        assert batch.critical_delay_ps[0] == oracle.critical_delay_ps
        for net in circuit.gates:
            for edge in (Edge.RISE, Edge.FALL):
                event = oracle.arrivals[net][edge]
                assert batch.arrival(net, edge)[0] == event.time_ps
                assert batch.transition(net, edge)[0] == event.transition_ps

    def test_bit_identical_to_incremental_engine(self, lib):
        circuit = _randomly_sized("c880", lib)
        engine = IncrementalSta(circuit, lib)
        # Perturb a few sizes through the engine's update path.
        rng = np.random.default_rng(2)
        names = list(circuit.gates)
        for name in (names[3], names[50], names[200]):
            circuit.gates[name].cin_ff *= float(rng.uniform(1.1, 1.8))
        result = engine.update([names[3], names[50], names[200]])
        batch = batch_analyze(
            compile_circuit(circuit, lib), nominal_corners(lib.tech, 1)
        )
        assert batch.critical_delay_ps[0] == result.critical_delay_ps
        for net in circuit.gates:
            for edge in (Edge.RISE, Edge.FALL):
                event = result.arrivals[net][edge]
                assert batch.arrival(net, edge)[0] == event.time_ps

    def test_nominal_column_matches_default_sizing(self, lib):
        circuit = load_benchmark("c499")  # unsized: library-minimum path
        batch = batch_analyze(
            compile_circuit(circuit, lib), nominal_corners(lib.tech, 1)
        )
        assert batch.critical_delay_ps[0] == analyze(circuit, lib).critical_delay_ps


class TestBatchVsScalarCorners:
    def test_fpd_samples_match_scalar_loop(self, lib):
        circuit = _randomly_sized("fpd", lib)
        compiled = compile_circuit(circuit, lib)
        corners = sample_corners(lib.tech, n_samples=60, seed=42)
        batch = batch_analyze(compiled, corners)
        scalar = mc_scalar_samples(circuit, lib, n_samples=60, seed=42)
        np.testing.assert_allclose(
            batch.critical_delay_ps, scalar, rtol=RTOL, atol=0.0
        )

    def test_endpoint_worst_equals_critical(self, lib):
        compiled = compile_circuit(load_benchmark("c432"), lib)
        batch = batch_analyze(compiled, sample_corners(lib.tech, n_samples=40))
        worst = batch.endpoint_arrivals().max(axis=0)
        assert np.array_equal(worst, batch.critical_delay_ps)

    def test_batch_path_kernel_matches_single_corner(self, lib, short_path):
        from repro.sizing.bounds import min_delay_bound
        from repro.timing.evaluation import path_delay_ps

        _, sizes, _, _ = min_delay_bound(short_path, lib)
        corners = sample_corners(lib.tech, n_samples=10, seed=1)
        batch = batch_path_delays(short_path, sizes, lib, corners)
        # Nominal corners reproduce the plain evaluation exactly.
        nominal = batch_path_delays(
            short_path, sizes, lib, nominal_corners(lib.tech, 4)
        )
        assert np.all(nominal == path_delay_ps(short_path, sizes, lib))
        assert batch.shape == (10,)
        assert np.all(batch > 0)


class TestMcAnalyze:
    @pytest.fixture(scope="class")
    def result(self, lib):
        return mc_analyze(
            load_benchmark("c880"), lib, n_samples=200, seed=4, tc_ps=7200.0
        )

    def test_statistics_sane(self, result):
        assert result.p01_ps <= result.p50_ps <= result.p99_ps
        assert result.mean_ps == pytest.approx(result.nominal_ps, rel=0.15)
        assert result.std_ps > 0
        assert result.guard_band > 1.0
        assert result.required_guard_band > 1.0

    def test_yield_monotone_in_tc(self, result):
        lo = result.yield_at(result.p01_ps)
        mid = result.yield_at(result.p50_ps)
        hi = result.yield_at(float(result.samples_ps.max()))
        assert lo <= mid <= hi
        assert hi == pytest.approx(1.0)

    def test_endpoints_cover_outputs(self, result, lib):
        circuit = load_benchmark("c880")
        assert {e.net for e in result.endpoints} == set(circuit.outputs)
        worst = max(e.nominal_ps for e in result.endpoints)
        assert worst == result.nominal_ps
        assert all(e.yield_frac is not None for e in result.endpoints)

    def test_deterministic(self, lib):
        circuit = load_benchmark("fpd")
        a = mc_analyze(circuit, lib, n_samples=50, seed=9)
        b = mc_analyze(circuit, lib, n_samples=50, seed=9)
        assert np.array_equal(a.samples_ps, b.samples_ps)
        assert a.endpoints == b.endpoints

    def test_distribution_view(self, result):
        dist = result.distribution()
        assert dist.nominal_ps == result.nominal_ps
        assert dist.guard_band == pytest.approx(result.guard_band)

    def test_validation(self, lib):
        circuit = load_benchmark("fpd")
        with pytest.raises(ValueError):
            mc_analyze(circuit, lib, n_samples=1)
        with pytest.raises(ValueError):
            mc_analyze(circuit, lib, n_samples=10, tc_ps=-1.0)
        with pytest.raises(ValueError):
            mc_analyze(circuit, lib, n_samples=10, target_yield=1.5)

    def test_round_trip(self, result):
        clone = mc_result_from_dict(mc_result_to_dict(result))
        assert clone.name == result.name
        assert np.array_equal(clone.samples_ps, result.samples_ps)
        assert clone.endpoints == result.endpoints
        assert clone.spec == result.spec
        assert mc_result_to_dict(clone) == mc_result_to_dict(result)


class TestSessionMc:
    def test_record_kind_and_extras(self):
        session = Session()
        record = session.mc(Job(benchmark="fpd", mc_samples=60))
        assert record.kind == KIND_MC
        assert record.payload.n_samples == 60
        assert "guard_band" in record.extra
        assert "yield" not in record.extra  # no constraint on the job

    def test_constraint_becomes_yield_target(self):
        session = Session()
        record = session.mc(Job(benchmark="fpd", tc_ps=1700.0, mc_samples=60))
        assert record.extra["tc_ps"] == 1700.0
        assert 0.0 <= record.extra["yield"] <= 1.0
        assert record.payload.yield_fraction == record.extra["yield"]
        # An absolute constraint must not pay the eq. 4 bounds solve.
        assert _cache(session, "bounds")["misses"] == 0

    def test_relative_constraint_resolves_against_tmin(self):
        session = Session()
        record = session.mc(Job(benchmark="fpd", tc_ratio=2.0, mc_samples=60))
        assert _cache(session, "bounds")["misses"] == 1
        tmin = session.path_bounds(session.benchmark("fpd")).tmin_ps
        assert record.extra["tc_ps"] == pytest.approx(2.0 * tmin)

    def test_compilation_cached_per_structure(self):
        session = Session()
        job = Job(benchmark="fpd", mc_samples=40)
        session.mc(job)
        compiled = _cache(session, "compiled")
        assert (compiled["misses"], compiled["hits"]) == (1, 0)
        session.mc(job)
        compiled = _cache(session, "compiled")
        assert (compiled["misses"], compiled["hits"]) == (1, 1)
        session.clear_caches()
        session.mc(job)
        assert _cache(session, "compiled")["misses"] == 2

    def test_resized_circuit_reuses_compilation(self, lib):
        session = Session()
        circuit = load_benchmark("fpd")
        first = session.mc(Job(circuit=circuit, mc_samples=40))
        for gate in circuit.gates.values():
            gate.cin_ff = 2.0 * lib.cell(gate.kind).cin_min(lib.tech)
        second = session.mc(Job(circuit=circuit, mc_samples=40))
        assert _cache(session, "compiled")["hits"] == 1
        # Bigger drives, same loads at the boundary: timing changed.
        assert second.payload.nominal_ps != first.payload.nominal_ps

    def test_record_json_round_trip(self):
        session = Session()
        record = session.mc(Job(benchmark="fpd", tc_ps=1700.0, mc_samples=40))
        clone = RunRecord.from_json(record.to_json(), library=session.library)
        assert clone.to_dict() == record.to_dict()
        assert np.array_equal(clone.payload.samples_ps, record.payload.samples_ps)

    def test_mc_job_validation(self):
        from repro.api import JobError

        with pytest.raises(JobError):
            Job(benchmark="fpd", mc_samples=1)
        with pytest.raises(JobError):
            Job(benchmark="fpd", mc_seed=1.5)
