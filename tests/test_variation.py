"""Tests for the process-variation Monte-Carlo extension."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.variation import (
    VariationSpec,
    delay_distribution,
    perturbed_technology,
    required_guard_band,
)
from repro.cells.gate_types import GateKind
from repro.cells.library import default_library
from repro.process.technology import CMOS025
from repro.sizing.bounds import min_delay_bound
from repro.timing.evaluation import path_delay_ps
from repro.timing.path import make_path


def scalar_corner_samples(path, sizes, library, spec, n_samples, seed):
    """The original per-corner loop: one library rebuild per sample.

    Retired from :func:`delay_distribution` in favour of the batch
    kernel and kept here as the reference it is compared against.  The
    rebuild re-binds the path to ``default_library`` cells, so this
    reference is only meaningful for default cell sets (the kernel uses
    the path's actual cells).
    """
    rng = np.random.default_rng(seed)
    samples = np.empty(n_samples)
    for i in range(n_samples):
        corner_tech = perturbed_technology(library.tech, spec, rng)
        corner_lib = default_library(corner_tech, k_ratio=library.inverter.k_ratio)
        corner_path = replace(
            path,
            stages=tuple(
                replace(stage, cell=corner_lib.cell(stage.cell.kind))
                for stage in path.stages
            ),
        )
        samples[i] = path_delay_ps(corner_path, sizes, corner_lib)
    return samples


@pytest.fixture(scope="module")
def sized_path(lib):
    path = make_path(
        [GateKind.INV, GateKind.NAND2, GateKind.NOR2, GateKind.INV],
        lib,
        cterm_ff=25.0 * lib.cref,
    )
    _, sizes, _, _ = min_delay_bound(path, lib)
    return path, sizes


class TestSpec:
    def test_defaults_valid(self):
        VariationSpec()

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            VariationSpec(tau_sigma=0.7)
        with pytest.raises(ValueError):
            VariationSpec(vt_sigma=-0.1)


class TestPerturbation:
    def test_zero_sigma_is_identity(self):
        rng = np.random.default_rng(0)
        spec = VariationSpec(0.0, 0.0, 0.0, 0.0, 0.0)
        corner = perturbed_technology(CMOS025, spec, rng)
        assert corner.tau_ps == CMOS025.tau_ps
        assert corner.r_ratio == CMOS025.r_ratio

    def test_corners_stay_physical(self):
        rng = np.random.default_rng(1)
        spec = VariationSpec()
        for _ in range(100):
            corner = perturbed_technology(CMOS025, spec, rng)
            assert corner.tau_ps > 0
            assert 0 < corner.vtn < corner.vdd
            assert 0 < corner.vtp < corner.vdd


class TestDistribution:
    def test_statistics_sane(self, lib, sized_path):
        path, sizes = sized_path
        dist = delay_distribution(path, sizes, lib, n_samples=200)
        assert dist.p01_ps <= dist.p50_ps <= dist.p99_ps
        assert dist.mean_ps == pytest.approx(dist.nominal_ps, rel=0.15)
        assert dist.std_ps > 0
        assert dist.guard_band > 1.0

    def test_deterministic(self, lib, sized_path):
        path, sizes = sized_path
        a = delay_distribution(path, sizes, lib, n_samples=50, seed=3)
        b = delay_distribution(path, sizes, lib, n_samples=50, seed=3)
        np.testing.assert_allclose(a.samples_ps, b.samples_ps)

    def test_wider_spread_wider_distribution(self, lib, sized_path):
        path, sizes = sized_path
        tight = delay_distribution(
            path, sizes, lib, spec=VariationSpec(tau_sigma=0.02),
            n_samples=150,
        )
        loose = delay_distribution(
            path, sizes, lib, spec=VariationSpec(tau_sigma=0.12),
            n_samples=150,
        )
        assert loose.std_ps > tight.std_ps

    def test_yield_monotone_in_tc(self, lib, sized_path):
        path, sizes = sized_path
        dist = delay_distribution(path, sizes, lib, n_samples=200)
        yields = [dist.yield_at(tc) for tc in
                  (dist.p01_ps, dist.p50_ps, float(dist.samples_ps.max()))]
        assert yields[0] <= yields[1] <= yields[2]
        assert yields[2] == pytest.approx(1.0)

    def test_yield_validation(self, lib, sized_path):
        path, sizes = sized_path
        dist = delay_distribution(path, sizes, lib, n_samples=20)
        with pytest.raises(ValueError):
            dist.yield_at(0.0)

    def test_sample_count_validated(self, lib, sized_path):
        path, sizes = sized_path
        with pytest.raises(ValueError):
            delay_distribution(path, sizes, lib, n_samples=1)


class TestBatchReroute:
    """``delay_distribution`` now runs on the vectorized corner kernel.

    The contract against the retired per-corner loop (kept as
    ``scalar_corner_samples``): identical samples within 1e-12
    relative.  In practice the agreement is *bit-exact* -- the array
    sampler reproduces the scalar loop's rng stream draw for draw and
    the kernel preserves its operation order -- but the documented
    (portable) contract is the pinned tolerance, guarding against a
    platform or numpy release whose ``Generator.normal`` composes the
    ziggurat draw differently.
    """

    def test_matches_scalar_loop(self, lib, sized_path):
        path, sizes = sized_path
        dist = delay_distribution(path, sizes, lib, n_samples=120, seed=17)
        scalar = scalar_corner_samples(
            path, sizes, lib, VariationSpec(), 120, 17
        )
        np.testing.assert_allclose(
            dist.samples_ps, scalar, rtol=1e-12, atol=0.0
        )

    def test_matches_scalar_loop_with_inactive_sigmas(self, lib, sized_path):
        # Zero sigmas skip rng draws in the scalar loop; the array
        # sampler must skip the very same stream positions.
        path, sizes = sized_path
        spec = VariationSpec(tau_sigma=0.0, c_junction_sigma=0.0)
        dist = delay_distribution(
            path, sizes, lib, spec=spec, n_samples=80, seed=23
        )
        scalar = scalar_corner_samples(path, sizes, lib, spec, 80, 23)
        np.testing.assert_allclose(
            dist.samples_ps, scalar, rtol=1e-12, atol=0.0
        )

    def test_guard_band_unchanged_by_reroute(self, lib, sized_path):
        # required_guard_band flows through the batch kernel too; its
        # value must equal the one computed from the scalar samples.
        path, sizes = sized_path
        band = required_guard_band(path, sizes, lib, n_samples=120)
        scalar = scalar_corner_samples(
            path, sizes, lib, VariationSpec(), 120, 42
        )
        nominal = delay_distribution(
            path, sizes, lib, n_samples=2
        ).nominal_ps
        expected = float(np.percentile(scalar, 99)) / nominal
        assert band == pytest.approx(expected, rel=1e-12)


class TestGuardBand:
    def test_guard_band_above_one(self, lib, sized_path):
        path, sizes = sized_path
        band = required_guard_band(path, sizes, lib, n_samples=200)
        assert 1.0 < band < 1.5

    def test_target_yield_validated(self, lib, sized_path):
        path, sizes = sized_path
        with pytest.raises(ValueError):
            required_guard_band(path, sizes, lib, target_yield=1.5)

    def test_higher_yield_needs_more_margin(self, lib, sized_path):
        path, sizes = sized_path
        b50 = required_guard_band(path, sizes, lib, target_yield=0.5,
                                  n_samples=200)
        b99 = required_guard_band(path, sizes, lib, target_yield=0.99,
                                  n_samples=200)
        assert b99 > b50
