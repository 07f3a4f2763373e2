"""Batch runner: serial/parallel parity, fallback behaviour."""

import json

import pytest

from repro.api import Job, JobError, Session


@pytest.fixture(scope="module")
def session():
    return Session()


def _payload_bytes(record) -> bytes:
    return json.dumps(
        record.to_dict(with_timing=False), sort_keys=True
    ).encode("utf-8")


class TestOptimizeMany:
    def test_serial_matches_explicit_loop(self, session):
        jobs = [Job(benchmark="fpd", tc_ratio=r) for r in (2.8, 1.5)]
        batch = session.optimize_many(jobs)
        singles = [session.optimize(job) for job in jobs]
        for a, b in zip(batch, singles):
            assert _payload_bytes(a) == _payload_bytes(b)

    def test_parallel_payloads_byte_identical_to_serial(self, session):
        # The acceptance bar: >= 4 jobs, parallel workers, byte-identical
        # RunRecord payloads against the serial path.
        jobs = [Job(benchmark="fpd", tc_ratio=r) for r in (3.0, 1.6, 1.3, 1.05)]
        serial = session.optimize_many(jobs, workers=None)
        parallel = session.optimize_many(jobs, workers=4)
        assert len(parallel) == len(serial) == 4
        for a, b in zip(serial, parallel):
            assert _payload_bytes(a) == _payload_bytes(b)
        # Order is preserved: records echo their jobs positionally.
        assert [r.job for r in parallel] == jobs

    def test_results_cover_the_domain_spectrum(self, session):
        jobs = [Job(benchmark="fpd", tc_ratio=r) for r in (3.0, 1.05)]
        weak, hard = session.optimize_many(jobs)
        assert weak.payload.domain.domain.value == "weak"
        assert weak.payload.method == "sizing"
        assert hard.payload.area_um > weak.payload.area_um

    def test_rejects_non_jobs(self, session):
        with pytest.raises(JobError, match="Job instances"):
            session.optimize_many(["fpd"])

    def test_worker_error_propagates(self, session):
        # A bad benchmark must surface, not be swallowed by the fallback.
        jobs = [
            Job(benchmark="fpd", tc_ratio=2.0),
            Job(benchmark="c0000", tc_ratio=2.0),
        ]
        with pytest.raises(KeyError):
            session.optimize_many(jobs, workers=2)

    def test_pool_failure_falls_back_to_serial(self, session, monkeypatch):
        from repro.resilience import pool as pool_mod

        def broken(max_workers):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(pool_mod, "default_pool_factory", broken)
        jobs = [Job(benchmark="fpd", tc_ratio=r) for r in (2.4, 1.4)]
        records = session.optimize_many(jobs, workers=8)
        assert [r.payload.feasible for r in records] == [True, True]
