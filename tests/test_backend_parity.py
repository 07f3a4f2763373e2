"""Backend parity ladder: every evaluator, every backend, bit for bit.

Two contracts are pinned here (see ``repro/timing/backend.py``):

* **Within one backend** the three evaluators -- scalar
  :func:`~repro.timing.sta.analyze`, warm
  :class:`~repro.timing.incremental.IncrementalSta` and the Monte-Carlo
  batch kernel -- agree *bit for bit* on every CORE circuit under
  randomized sizings.  The ladder runs identically for the analytic
  backend and for the NLDM backend loaded from the committed sample
  ``.lib``.
* **Across backends** no bit-level relationship is promised, but the
  sample library was characterised *from* the analytic model, so at the
  table grid nodes the two backends must agree exactly -- the anchor
  that proves the parser/interpolator reads back what the exporter
  wrote.

Plus the serialization/caching seams that carry backend identity:
``Job``/``RunRecord`` backend specs and the Session cache-key prefix
that keeps two backends from aliasing each other's artefacts.
"""

import os

import pytest

from repro.api import Job, JobError, Session
from repro.api.records import RunRecord
from repro.cells.library import default_library
from repro.liberty import export_library, library_from_lib, parse_liberty
from repro.liberty.tables import NldmTables
from repro.mc.compile import compile_circuit
from repro.mc.corners import nominal_corners
from repro.mc.kernel import batch_analyze
from repro.timing.backend import ANALYTIC_BACKEND, DelayBackend, backend_fo4
from repro.timing.delay_model import Edge, fanout_four_delay, gate_delay
from repro.timing.incremental import IncrementalSta
from repro.timing.sta import analyze

from test_mc import CORE_CIRCUITS, _randomly_sized

SAMPLE_LIB = os.path.join(
    os.path.dirname(__file__), "..", "examples", "sample_nldm.lib"
)

BACKENDS = ("analytic", "nldm")


@pytest.fixture(scope="module")
def nldm_lib():
    return library_from_lib(SAMPLE_LIB)


@pytest.fixture(scope="module", params=BACKENDS)
def backend_lib(request, nldm_lib):
    """The library under test, one per backend (same cells, same tech)."""
    if request.param == "analytic":
        return default_library()
    return nldm_lib


class TestThreeEvaluatorLadder:
    """scalar == incremental == batch kernel, per backend."""

    @pytest.mark.parametrize("name", CORE_CIRCUITS)
    def test_all_evaluators_agree(self, name, backend_lib):
        lib = backend_lib
        circuit = _randomly_sized(name, lib, seed=7)
        oracle = analyze(circuit, lib)

        engine = IncrementalSta(circuit, lib)
        got = engine.result()
        assert got.critical_delay_ps == oracle.critical_delay_ps
        assert got.arrivals == oracle.arrivals
        assert got.loads_ff == oracle.loads_ff

        batch = batch_analyze(
            compile_circuit(circuit, lib), nominal_corners(lib.tech, 1)
        )
        assert batch.critical_delay_ps[0] == oracle.critical_delay_ps
        for net in circuit.gates:
            for edge in (Edge.RISE, Edge.FALL):
                event = oracle.arrivals[net][edge]
                assert batch.arrival(net, edge)[0] == event.time_ps
                assert batch.transition(net, edge)[0] == event.transition_ps


class TestDelayBackendSurface:
    def test_scalar_and_batch_surfaces_suffice(self):
        """A backend needs only its identity, scalar and batch surfaces."""

        class Delegating(DelayBackend):
            capabilities = ANALYTIC_BACKEND.capabilities

            def cache_token(self):
                return ("delegating",)

            def gate_timing(self, *args):
                return ANALYTIC_BACKEND.gate_timing(*args)

            def compile_model(self, compiled):
                return ANALYTIC_BACKEND.compile_model(compiled)

        backend = Delegating()
        assert backend.cache_token() == ("delegating",)


class TestNldmAnchors:
    """Analytic-vs-NLDM relationships pinned by the export fidelity."""

    def test_grid_node_parity_is_exact(self, nldm_lib):
        """At table grid nodes the two backends agree to the last bit."""
        analytic = default_library()
        backend = nldm_lib.delay_backend
        tables = backend.tables
        for kind, idx in tables.kind_index.items():
            cell = analytic.cells[kind]
            cin_ref = float(tables.cin_ref[idx])
            for slew in tables.slew_axis:
                for load in tables.load_axis:
                    for edge in (Edge.RISE, Edge.FALL):
                        ref = gate_delay(
                            cell, analytic.tech, cin_ref, float(load),
                            float(slew), edge,
                        )
                        got = backend.gate_timing(
                            cell, analytic.tech, cin_ref, float(load),
                            float(slew), edge,
                        )
                        assert got.delay_ps == ref.delay_ps
                        assert got.tout_ps == ref.tout_ps
                        assert got.output_edge == ref.output_edge

    def test_export_parse_round_trip_is_lossless(self, tmp_path):
        text = export_library(default_library())
        first = NldmTables.from_library_group(parse_liberty(text))
        path = tmp_path / "round.lib"
        path.write_text(text, encoding="utf-8")
        loaded = library_from_lib(str(path))
        again = export_library(loaded)
        assert again == text
        second = NldmTables.from_library_group(parse_liberty(again))
        assert second.digest == first.digest

    def test_committed_sample_lib_is_current(self, nldm_lib):
        """The fixture must match a fresh export of the analytic model."""
        fresh = NldmTables.from_library_group(
            parse_liberty(export_library(default_library()))
        )
        assert nldm_lib.delay_backend.tables.digest == fresh.digest

    def test_fo4_figures_track_analytic(self, nldm_lib):
        """Off-grid slews interpolate; FO4 stays within a small tolerance."""
        tech = nldm_lib.tech
        for kind, cell in nldm_lib.cells.items():
            cin = cell.cin_min(tech)
            nldm = backend_fo4(cell, tech, cin, nldm_lib.delay_backend)
            ref = fanout_four_delay(cell, tech, cin)
            assert nldm == pytest.approx(ref, rel=2e-3), kind


class TestSessionBackendIdentity:
    """Backend identity in cache keys, job echoes and record round trips."""

    def test_cross_backend_sessions_never_alias(self, nldm_lib):
        """Two sessions sharing one cache store stay fully disjoint.

        Simulates a shared/serialized cache: the NLDM session is pointed
        at the analytic session's cache objects, then both run the same
        benchmark.  The library-fingerprint key prefix must keep every
        artefact separate and each result bit-identical to an unshared
        session's.
        """
        s_analytic = Session()
        s_nldm = Session(library=nldm_lib)
        for attr in (
            "_benchmarks", "_sta_cache", "_engines", "_path_cache",
            "_bounds_cache", "_compiled",
        ):
            setattr(s_nldm, attr, getattr(s_analytic, attr))

        rec_a = s_analytic.bounds(Job(benchmark="fpd"))
        rec_n = s_nldm.bounds(Job(benchmark="fpd"))
        fresh = Session(library=library_from_lib(SAMPLE_LIB))
        rec_fresh = fresh.bounds(Job(benchmark="fpd"))

        bounds_n = rec_n.payload["bounds"]
        assert bounds_n.tmin_ps == rec_fresh.payload["bounds"].tmin_ps
        assert bounds_n.tmax_ps == rec_fresh.payload["bounds"].tmax_ps
        assert bounds_n.tmin_ps != rec_a.payload["bounds"].tmin_ps
        # Every circuit-keyed cache holds one entry per library.
        for cache in (s_analytic._sta_cache, s_analytic._bounds_cache,
                      s_analytic._path_cache):
            assert len(cache) == 2
        # The benchmarks cache is backend-independent by design: one parse.
        assert len(s_analytic._benchmarks) == 1

    def test_session_rejects_mismatched_job(self):
        s = Session()
        with pytest.raises(JobError, match="pins backend"):
            s.bounds(Job(benchmark="fpd", backend="nldm", liberty=SAMPLE_LIB))
        s2 = Session(backend="nldm", liberty=SAMPLE_LIB)
        with pytest.raises(JobError, match="pins backend"):
            s2.bounds(Job(benchmark="fpd", backend="analytic"))
        with pytest.raises(JobError, match="pins liberty"):
            s2.bounds(
                Job(benchmark="fpd", backend="nldm", liberty="/other/file.lib")
            )

    def test_session_ctor_validation(self):
        with pytest.raises(JobError, match="requires a liberty"):
            Session(backend="nldm")
        with pytest.raises(JobError, match="only to backend"):
            Session(liberty=SAMPLE_LIB)
        with pytest.raises(JobError, match="unknown backend"):
            Session(backend="spice")
        with pytest.raises(ValueError, match="at most one"):
            Session(library=default_library(), backend="analytic")

    def test_job_backend_serialization_is_backward_compatible(self):
        plain = Job(benchmark="c432")
        data = plain.to_dict()
        assert "backend" not in data and "liberty" not in data
        assert Job.from_dict(data) == plain
        pinned = Job(benchmark="c432", backend="nldm", liberty=SAMPLE_LIB)
        assert Job.from_dict(pinned.to_dict()) == pinned
        with pytest.raises(JobError, match="only to backend"):
            Job(benchmark="c432", liberty=SAMPLE_LIB)

    def test_record_round_trip_rebuilds_nldm_library(self):
        session = Session(backend="nldm", liberty=SAMPLE_LIB)
        record = session.bounds(Job(benchmark="fpd"))
        assert record.job.backend == "nldm"
        assert record.job.liberty == SAMPLE_LIB
        # No explicit library: from_json must rebuild it from the echo.
        back = RunRecord.from_json(record.to_json())
        assert back.to_dict(with_timing=False) == record.to_dict(
            with_timing=False
        )


class TestPathTotals:
    @pytest.mark.parametrize(
        "name", ("fpd", "c432", "c880", "c1908", "c7552", "adder16")
    )
    def test_evaluate_path_total_equals_path_delay(self, name, nldm_lib):
        """Both path evaluators keep a running total: builtin ``sum`` of
        floats is compensated from Python 3.12 and would differ."""
        from repro.iscas.loader import load_benchmark
        from repro.timing.critical_paths import critical_path
        from repro.timing.evaluation import evaluate_path, path_delay_ps

        path = critical_path(load_benchmark(name), nldm_lib).path
        for scale in (1.0, 1.7, 2.9, 4.3):
            sizes = path.min_sizes(nldm_lib) * scale
            sizes[0] = path.cin_first_ff
            timing = evaluate_path(path, sizes, nldm_lib)
            assert timing.total_delay_ps == path_delay_ps(path, sizes, nldm_lib)
