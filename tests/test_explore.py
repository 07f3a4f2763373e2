"""Sweep subsystem: spec expansion, Pareto, campaign store, warm runner.

The load-bearing guarantee is *determinism*: a warm-started sweep (shared
session caches, neighbour-seeded engines, memoized bounds) must produce
record payloads byte-identical to cold, independent per-point runs, and a
resumed campaign must serve journaled points byte-identically too.
"""

import json
import os
import threading
from concurrent.futures import Future

import pytest

from repro.analysis.pareto import dominates, pareto_indices
from repro.api import JobError, RunRecord, Session, SweepSpec
from repro.api.store import CORRUPT_SUFFIX, ResultStore
from repro.cells.library import default_library
from repro.cli import main
from repro.explore import CampaignError, CampaignStore, run_sweep
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, FaultSpec, faults
from repro.serve import job_spec_key

SAMPLE_LIB = os.path.join(
    os.path.dirname(__file__), "..", "examples", "sample_nldm.lib"
)

#: A small, fast grid (fpd is the 60-gate paper example; two passes are
#: plenty to exercise the warm-start machinery).
SPEC = SweepSpec(
    benchmarks=("fpd",),
    tc_ratio_points=(1.2, 1.5, 1.8),
    k_paths=2,
    max_passes=2,
)


def payload_bytes(record) -> bytes:
    return json.dumps(
        record.to_dict(with_timing=False), sort_keys=True
    ).encode("utf-8")


@pytest.fixture(scope="module")
def warm_result():
    """One warm sweep shared by the read-only assertions below."""
    return run_sweep(Session(), SPEC)


class TestSweepSpec:
    def test_expansion_covers_the_grid_in_warm_order(self):
        spec = SweepSpec(
            benchmarks=("fpd", "c432"),
            tc_ratio_points=(1.5, 1.1),
            weight_modes=("uniform", "area"),
            restructuring=(True, False),
        )
        jobs = spec.jobs()
        assert len(jobs) == spec.point_count == 2 * 2 * 2 * 2
        # Benchmarks contiguous, constraints ascending inside each combo.
        assert [j.benchmark for j in jobs[:8]] == ["fpd"] * 8
        assert jobs[0].tc_ratio == 1.1 and jobs[1].tc_ratio == 1.5
        # Labels are unique and deterministic.
        labels = [j.label for j in jobs]
        assert len(set(labels)) == len(labels)
        assert labels[0] == "fpd/r1.1/uniform/dm"

    def test_label_prefix(self):
        spec = SweepSpec(
            benchmarks=("fpd",), tc_ps_points=(900.0,), label="night42"
        )
        assert spec.jobs()[0].label == "night42:fpd/ps900/uniform/dm"

    def test_round_trip(self):
        spec = SweepSpec(
            benchmarks=("c432",),
            tc_ps_points=(800.0, 1200.0),
            scope="path",
            weight_modes=("area",),
            restructuring=(False,),
            label="x",
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},  # no benchmarks
            {"benchmarks": ("fpd",)},  # no constraint axis
            {
                "benchmarks": ("fpd",),
                "tc_ps_points": (1.0,),
                "tc_ratio_points": (1.5,),
            },
            {"benchmarks": ("fpd", "fpd"), "tc_ratio_points": (1.5,)},
            {"benchmarks": ("fpd",), "tc_ratio_points": (-1.0,)},
            {"benchmarks": ("fpd",), "tc_ratio_points": (1.5, 1.5)},
            # Distinct floats whose %g renderings collide: the labels
            # (the resume/record identity) would silently merge.
            {"benchmarks": ("fpd",), "tc_ps_points": (1234.567, 1234.5671)},
            {"benchmarks": ("fpd",), "tc_ratio_points": (1.5,), "scope": "net"},
            {
                "benchmarks": ("fpd",),
                "tc_ratio_points": (1.5,),
                "weight_modes": ("heavy",),
            },
            {
                "benchmarks": ("fpd",),
                "tc_ratio_points": (1.5,),
                "restructuring": (),
            },
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(JobError):
            SweepSpec(**kwargs)


class TestPareto:
    def test_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))  # equal: no strict edge

    def test_none_is_incomparable(self):
        # The comparable coordinate decides; None coordinates are skipped.
        assert dominates((1.0, None), (2.0, None))
        assert dominates((1.0, 0.0), (2.0, None))

    def test_none_objectives(self):
        # Only the comparable coordinates count.
        assert dominates((1.0, None, 5.0), (2.0, 3.0, 5.0))
        assert not dominates((None, None), (None, None))

    def test_pareto_indices_keep_ties_and_order(self):
        points = [(2.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]
        assert pareto_indices(points) == [0, 1, 2]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))


class TestWarmDeterminism:
    def test_warm_sweep_matches_cold_independent_jobs(self, warm_result):
        # The acceptance bar: byte-identical payloads against cold runs,
        # each in its own fresh session (no shared caches at all).
        for job, record in zip(SPEC.jobs(), warm_result.records):
            cold = Session().optimize(job)
            assert payload_bytes(record) == payload_bytes(cold)

    def test_summary_covers_every_point(self, warm_result):
        summary = warm_result.summary
        assert len(summary) == SPEC.point_count
        labels = {p.label for p in summary.points}
        assert {j.label for j in SPEC.jobs()} == labels
        # Circuit-scope points carry the power objective.
        assert all(p.power_uw is not None for p in summary.points)
        # The frontier is a non-empty subset of the grid.
        frontier = set(summary.frontier_labels())
        assert frontier and frontier <= labels

    def test_tighter_constraints_cost_area(self, warm_result):
        by_tc = sorted(warm_result.summary.points, key=lambda p: p.tc_ps)
        assert by_tc[0].area_um >= by_tc[-1].area_um

    def test_summary_round_trip(self, warm_result):
        from repro.explore.summary import SweepSummary

        data = warm_result.summary.to_dict()
        again = SweepSummary.from_dict(json.loads(json.dumps(data)))
        assert again == warm_result.summary
        assert again.frontier_labels() == warm_result.summary.frontier_labels()

    def test_sweep_record_is_json_native(self, warm_result):
        from repro.api import RunRecord

        envelope = warm_result.record()
        again = RunRecord.from_json(envelope.to_json())
        assert again.payload == envelope.payload
        assert again.extra["points"] == SPEC.point_count

    def test_yield_column_off_by_default(self, warm_result):
        assert all(p.yield_frac is None for p in warm_result.summary.points)


class TestYieldObjective:
    @pytest.fixture(scope="class")
    def yielded(self):
        return run_sweep(Session(), SPEC, with_yield=True)

    def test_every_circuit_point_carries_a_yield(self, yielded):
        assert all(
            p.yield_frac is not None and 0.0 <= p.yield_frac <= 1.0
            for p in yielded.summary.points
        )

    def test_yield_does_not_change_the_records(self, yielded, warm_result):
        # The yield column is a summary annotation, never a payload edit.
        for a, b in zip(yielded.records, warm_result.records):
            assert payload_bytes(a) == payload_bytes(b)

    def test_yield_matches_direct_batch_evaluation(self, yielded):
        # The column is exactly the batch engine's yield of each point's
        # optimized netlist at its own Tc (same corner draw).
        from repro.explore.runner import YIELD_SAMPLES, YIELD_SEED
        from repro.mc import batch_analyze, compile_circuit, sample_corners

        session = Session()
        corners = sample_corners(
            session.library.tech, n_samples=YIELD_SAMPLES, seed=YIELD_SEED
        )
        for record, point in zip(yielded.records, yielded.summary.points):
            compiled = compile_circuit(record.payload.circuit, session.library)
            expected = batch_analyze(compiled, corners).yield_at(point.tc_ps)
            assert point.yield_frac == expected

    def test_nominally_infeasible_points_fail_most_corners(self, yielded):
        # Every point of this tight grid misses its Tc nominally, so no
        # corner majority can meet it either.
        for point in yielded.summary.points:
            assert not point.feasible and point.delay_ps > point.tc_ps
            assert point.yield_frac < 0.5

    def test_yield_survives_summary_round_trip(self, yielded):
        from repro.explore.summary import SweepSummary

        data = yielded.summary.to_dict()
        again = SweepSummary.from_dict(json.loads(json.dumps(data)))
        assert again == yielded.summary

    def test_old_summaries_without_yield_still_load(self, warm_result):
        from repro.explore.summary import SweepSummary

        data = warm_result.summary.to_dict()
        for point in data["points"]:
            del point["yield_frac"]  # a pre-yield-era archive
        again = SweepSummary.from_dict(data)
        assert all(p.yield_frac is None for p in again.points)

    def test_yield_axis_enters_dominance(self):
        # Two points equal on delay/area/power: the higher yield must
        # dominate once the fourth axis is populated.
        from repro.analysis.pareto import dominates

        assert dominates((1.0, 1.0, 1.0, -0.99), (1.0, 1.0, 1.0, -0.90))
        assert not dominates((1.0, 1.0, 1.0, None), (1.0, 1.0, 1.0, -0.9))


def _point_path(root, job):
    """Where a campaign files a grid point's record: the daemon's key."""
    store = ResultStore(root, MetricsRegistry())
    return store.path_for(job_spec_key("optimize", job.to_dict()))


def _tear(path):
    """Cut a file in half mid-value, as a crash mid-write would."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])


class TestCampaignStore:
    def test_journal_and_resume_skip_completed(self, tmp_path):
        root = str(tmp_path / "camp")
        session = Session()
        first = run_sweep(session, SPEC, store=root)
        assert first.computed == SPEC.point_count
        # Re-running with resume computes nothing and serves the store.
        again = run_sweep(session, SPEC, store=root, resume=True)
        assert again.computed == 0
        assert again.resumed == SPEC.point_count
        for a, b in zip(first.records, again.records):
            assert payload_bytes(a) == payload_bytes(b)

    def test_torn_tail_line_is_recomputed(self, tmp_path):
        root = str(tmp_path / "camp")
        session = Session()
        first = run_sweep(session, SPEC, store=root)
        # Simulate a crash mid-write of the last point: its record is torn.
        _tear(_point_path(root, SPEC.jobs()[-1]))
        resumed = run_sweep(session, SPEC, store=root, resume=True)
        assert resumed.computed == 1
        assert resumed.resumed == SPEC.point_count - 1
        for a, b in zip(first.records, resumed.records):
            assert payload_bytes(a) == payload_bytes(b)

    def test_torn_record_recovers_in_one_resume(self, tmp_path):
        root = str(tmp_path / "camp")
        session = Session()
        first = run_sweep(session, SPEC, store=root)
        torn = SPEC.jobs()[1]
        path = _point_path(root, torn)
        _tear(path)
        labels = []
        resumed = run_sweep(
            session, SPEC, store=root, resume=True,
            progress=lambda done, total, label: labels.append(label),
        )
        # Exactly the torn point recomputes; its fragment is kept aside.
        assert resumed.computed == 1
        assert labels == [torn.label]
        assert os.path.exists(path + CORRUPT_SUFFIX)
        for a, b in zip(first.records, resumed.records):
            assert payload_bytes(a) == payload_bytes(b)
        again = run_sweep(session, SPEC, store=root, resume=True)
        assert again.computed == 0
        assert again.resumed == SPEC.point_count

    def test_torn_write_fault_is_quarantined_and_recomputed(self, tmp_path):
        root = str(tmp_path / "camp")
        session = Session()
        plan = FaultPlan([FaultSpec(faults.SITE_TORN_WRITE, times=1)])
        with faults.installed(plan):
            first = run_sweep(session, SPEC, store=root)
        resumed = run_sweep(session, SPEC, store=root, resume=True)
        assert resumed.computed == 1
        assert resumed.resumed == SPEC.point_count - 1
        assert os.path.exists(_point_path(root, SPEC.jobs()[0]) + CORRUPT_SUFFIX)
        assert session.metrics.counters("store.")["store.quarantined"] == 1
        for a, b in zip(first.records, resumed.records):
            assert payload_bytes(a) == payload_bytes(b)

    def test_points_are_filed_under_the_daemon_key(self, tmp_path):
        root = str(tmp_path / "camp")
        result = run_sweep(Session(), SPEC, store=root)
        store = ResultStore(root, MetricsRegistry())
        for job, record in zip(SPEC.jobs(), result.records):
            stored = store.get(job_spec_key("optimize", job.to_dict()))
            assert payload_bytes(RunRecord.from_dict(stored)) == payload_bytes(
                record
            )
        # The manifest sits beside the records and is not one of them.
        assert store.count() == SPEC.point_count

    def test_unresumed_reuse_is_refused(self, tmp_path):
        root = str(tmp_path / "camp")
        run_sweep(Session(), SPEC, store=root)
        with pytest.raises(CampaignError, match="resume"):
            run_sweep(Session(), SPEC, store=root)

    def test_spec_mismatch_is_refused(self, tmp_path):
        root = str(tmp_path / "camp")
        store = CampaignStore(root, MetricsRegistry())
        store.initialize(SPEC, default_library())
        other = SweepSpec(benchmarks=("c432",), tc_ratio_points=(1.5,))
        with pytest.raises(CampaignError, match="different sweep"):
            store.initialize(other, default_library())
        assert store.spec() == SPEC

    def test_library_change_is_refused(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        grid = ["sweep", "fpd", "--tc-ratios", "1.5", "--k-paths", "2",
                "--max-passes", "1", "--no-power", "--quiet", "--store", root]
        assert main(grid) == 0
        capsys.readouterr()
        # Job keys do not name the library: an NLDM resume must not be
        # served the analytic records.
        assert main(grid + ["--resume", "--liberty", SAMPLE_LIB]) == 2
        assert "different library" in capsys.readouterr().err
        spec = CampaignStore(root, MetricsRegistry()).spec()
        nldm = Session(backend="nldm", liberty=SAMPLE_LIB)
        with pytest.raises(CampaignError, match="different library"):
            run_sweep(nldm, spec, store=root, resume=True)

    def test_torn_manifest_is_a_campaign_error(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        store = CampaignStore(root, MetricsRegistry())
        store.initialize(SPEC, default_library())
        _tear(store.manifest_path)
        with pytest.raises(CampaignError, match="manifest.json"):
            run_sweep(Session(), SPEC, store=root, resume=True)
        assert main(["sweep", "fpd", "--tc-ratios", "1.2,1.5,1.8",
                     "--k-paths", "2", "--max-passes", "2", "--quiet",
                     "--store", root, "--resume"]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_format_1_campaign_is_refused(self, tmp_path):
        root = tmp_path / "camp"
        root.mkdir()
        (root / "manifest.json").write_text(
            json.dumps({"format": 1, "spec": SPEC.to_dict()}), encoding="utf-8"
        )
        with pytest.raises(CampaignError, match="format 1"):
            run_sweep(Session(), SPEC, store=str(root), resume=True)

    def test_points_before_a_failing_job_stay_journaled(self, tmp_path):
        """A mid-campaign crash loses at most the in-flight point."""
        root = str(tmp_path / "camp")
        bad = SweepSpec(
            benchmarks=("fpd", "c0000"),  # c0000 does not exist
            tc_ratio_points=SPEC.tc_ratio_points,
            k_paths=SPEC.k_paths,
            max_passes=SPEC.max_passes,
        )
        with pytest.raises(KeyError):
            run_sweep(Session(), bad, store=root)
        # The fpd chunk completed before the failure: all three of its
        # points are stored and a resume serves them from disk.
        store = CampaignStore(root, MetricsRegistry())
        completed = store.completed(bad.jobs())
        assert {label.split("/")[0] for label in completed} == {"fpd"}
        assert len(completed) == 3
        session = Session()
        with pytest.raises(KeyError):
            run_sweep(session, bad, store=root, resume=True)
        # The resumed attempt recomputed nothing for fpd.
        assert len(store.completed(bad.jobs())) == 3
        assert session.metrics.counters("store.").get("store.writes", 0) == 0

    def test_manifest_written_once(self, tmp_path):
        root = str(tmp_path / "camp")
        store = CampaignStore(root, MetricsRegistry())
        store.initialize(SPEC, default_library())
        assert os.path.exists(store.manifest_path)
        store.initialize(SPEC, default_library())  # idempotent
        assert store.completed(SPEC.jobs()) == {}


class _ReadSignalFuture(Future):
    """A future that signals once its result has been read."""

    def __init__(self):
        super().__init__()
        self.read = threading.Event()

    def result(self, timeout=None):
        try:
            return super().result(timeout)
        finally:
            self.read.set()


class _ReversePool:
    """Pool double whose futures complete in reverse submission order.

    Once ``expected`` submissions are in, a thread runs them last to
    first, settling each future only after the previous one was read.
    """

    def __init__(self, max_workers, expected):
        self.expected = expected
        self.submitted = []
        self.thread = None

    def submit(self, fn, *args):
        future = _ReadSignalFuture()
        self.submitted.append((future, fn, args))
        if len(self.submitted) == self.expected:
            self.thread = threading.Thread(target=self._settle)
            self.thread.start()
        return future

    def _settle(self):
        for future, fn, args in reversed(self.submitted):
            future.set_result(fn(*args))
            future.read.wait(timeout=5)

    def shutdown(self, wait=True, **_):
        if self.thread is not None:
            self.thread.join(timeout=5)


class TestChunkedScheduler:
    def test_chunking_respects_benchmark_groups(self):
        from repro.explore.runner import _chunks

        spec = SweepSpec(
            benchmarks=("fpd", "c432"), tc_ratio_points=(1.1, 1.4, 1.7)
        )
        jobs = spec.jobs()
        groups = _chunks(jobs, None)
        assert [len(g) for g in groups] == [3, 3]
        split = _chunks(jobs, 2)
        assert [len(g) for g in split] == [2, 1, 2, 1]
        # No chunk ever mixes benchmarks (warm state is per-netlist).
        for chunk in split:
            assert len({j.benchmark for j in chunk}) == 1

    def test_parallel_workers_match_serial(self, warm_result):
        # Worker pools fall back to the serial loop transparently where
        # subprocesses are unavailable; payloads are identical either way.
        result = run_sweep(Session(), SPEC, workers=2, chunk_size=2)
        for a, b in zip(warm_result.records, result.records):
            assert payload_bytes(a) == payload_bytes(b)

    def test_pool_sweep_raises_the_serial_loops_job_error(self, monkeypatch):
        # Both chunks fail and finish last-submitted first; the pool path
        # must still raise the error the serial loop raises (chunk 0's).
        from repro.resilience import pool as pool_mod

        spec = SweepSpec(
            benchmarks=("nosuch_a", "nosuch_b"),
            tc_ratio_points=(1.3,),
            scope="path",
        )
        with pytest.raises(KeyError, match="nosuch_a"):
            run_sweep(Session(), spec)
        pools = []

        def reverse_pool(max_workers):
            pools.append(_ReversePool(max_workers, expected=2))
            return pools[-1]

        monkeypatch.setattr(pool_mod, "default_pool_factory", reverse_pool)
        with pytest.raises(KeyError, match="nosuch_a"):
            run_sweep(Session(), spec, workers=2)
        assert len(pools) == 1 and not pools[0].thread.is_alive()

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(
            Session(),
            SPEC,
            progress=lambda done, total, label: seen.append((done, total, label)),
        )
        assert [s[0] for s in seen] == [1, 2, 3]
        assert all(s[1] == SPEC.point_count for s in seen)
