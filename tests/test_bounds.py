"""Tests for the Tmin / Tmax delay bounds (section 3.1, eq. 4, Fig. 1)."""

import sys
import threading

import numpy as np
import pytest

from repro.cells.gate_types import GateKind
from repro.cells.library import default_library
from repro.sizing.bounds import (
    delay_bounds,
    max_delay_bound,
    min_delay_bound,
    tmin_memo,
)
from repro.timing.evaluation import delay_gradient, path_delay_ps
from repro.timing.path import make_path


class TestTmax:
    def test_tmax_is_min_sizing_delay(self, eleven_gate_path, lib):
        tmax, sizes = max_delay_bound(eleven_gate_path, lib)
        assert tmax == pytest.approx(
            path_delay_ps(eleven_gate_path, eleven_gate_path.min_sizes(lib), lib)
        )
        np.testing.assert_allclose(sizes, eleven_gate_path.min_sizes(lib))


class TestTmin:
    def test_window_ordering(self, eleven_gate_path, lib):
        bounds = delay_bounds(eleven_gate_path, lib)
        assert bounds.tmin_ps < bounds.tmax_ps
        assert bounds.area_tmin_um > bounds.area_tmax_um

    def test_stationarity(self, eleven_gate_path, lib):
        """Tmin is a genuine stationary point of the exact model."""
        bounds = delay_bounds(eleven_gate_path, lib)
        grad = delay_gradient(eleven_gate_path, bounds.sizes_tmin, lib)
        scale = bounds.tmin_ps / float(np.mean(bounds.sizes_tmin))
        assert float(np.abs(grad[1:]).max()) < 0.02 * scale

    def test_lower_bound_against_random_sizings(self, eleven_gate_path, lib, rng):
        """Convexity: no sizing beats the eq. 4 fixed point."""
        bounds = delay_bounds(eleven_gate_path, lib)
        n = len(eleven_gate_path)
        for _ in range(100):
            raw = np.exp(rng.uniform(np.log(lib.cref), np.log(300 * lib.cref), n))
            sizes = eleven_gate_path.clamp_sizes(raw, lib)
            assert (
                path_delay_ps(eleven_gate_path, sizes, lib)
                >= bounds.tmin_ps - 1e-6
            )

    def test_cref_seed_independence(self, eleven_gate_path, lib):
        """The paper's observation: Tmin does not depend on the seed drive."""
        t_small, _, _, _ = min_delay_bound(eleven_gate_path, lib, cref_ff=lib.cref)
        t_big, _, _, _ = min_delay_bound(
            eleven_gate_path, lib, cref_ff=20.0 * lib.cref
        )
        assert t_small == pytest.approx(t_big, rel=1e-4)

    def test_single_stage_path(self, lib):
        """With no free gate, Tmin == Tmax."""
        path = make_path([GateKind.INV], lib)
        bounds = delay_bounds(path, lib)
        assert bounds.tmin_ps == pytest.approx(bounds.tmax_ps)

    def test_invalid_cref(self, eleven_gate_path, lib):
        with pytest.raises(ValueError):
            min_delay_bound(eleven_gate_path, lib, cref_ff=0.0)

    def test_history_converges_downward(self, eleven_gate_path, lib):
        """The Fig. 1 trajectory: delay decreases sweep over sweep."""
        bounds = delay_bounds(eleven_gate_path, lib)
        delays = [point.delay_ps for point in bounds.history]
        assert len(delays) >= 3
        # Monotone decrease after the initial backward-pass point (up to
        # the sub-millipico oscillation of the fixed point near optimum).
        assert all(b <= a + 1e-3 for a, b in zip(delays[1:], delays[2:]))
        assert delays[-1] == pytest.approx(bounds.tmin_ps)

    def test_history_tracks_capacitance_growth(self, eleven_gate_path, lib):
        bounds = delay_bounds(eleven_gate_path, lib)
        first, last = bounds.history[0], bounds.history[-1]
        assert last.total_cin_over_cref > first.total_cin_over_cref * 0.5
        assert last.delay_ps < first.delay_ps

    def test_feasibility_predicate(self, eleven_gate_path, lib):
        bounds = delay_bounds(eleven_gate_path, lib)
        assert bounds.feasible(bounds.tmin_ps * 1.5)
        assert not bounds.feasible(bounds.tmin_ps * 0.9)

    def test_frozen_stage_respected(self, eleven_gate_path, lib):
        frozen = np.zeros(len(eleven_gate_path), dtype=bool)
        frozen[4] = True
        start = eleven_gate_path.min_sizes(lib)
        start[4] = 7.0 * lib.cref
        _, sizes, _, _ = min_delay_bound(
            eleven_gate_path, lib, start_sizes=start, frozen=frozen
        )
        assert sizes[4] == pytest.approx(7.0 * lib.cref)

    def test_frozen_tmin_never_beats_free(self, eleven_gate_path, lib):
        t_free, _, _, _ = min_delay_bound(eleven_gate_path, lib)
        frozen = np.zeros(len(eleven_gate_path), dtype=bool)
        frozen[3] = True
        start = eleven_gate_path.min_sizes(lib)
        t_frozen, _, _, _ = min_delay_bound(
            eleven_gate_path, lib, start_sizes=start, frozen=frozen
        )
        assert t_frozen >= t_free - 1e-6


class TestHeavyTerminalLoad:
    def test_tmin_grows_with_terminal_load(self, lib):
        kinds = [GateKind.INV, GateKind.NAND2, GateKind.INV]
        light = make_path(kinds, lib, cterm_ff=10.0 * lib.cref)
        heavy = make_path(kinds, lib, cterm_ff=100.0 * lib.cref)
        t_light, _, _, _ = min_delay_bound(light, lib)
        t_heavy, _, _, _ = min_delay_bound(heavy, lib)
        assert t_heavy > t_light


class TestTminMemoScope:
    def test_overlapping_threads_keep_their_own_memo(
        self, eleven_gate_path, short_path, lib
    ):
        """Barrier-stepped: A enters, B enters, A exits, B solves, B exits.

        A module-global memo slot fails this twice: A's exit restores the
        slot to what it held before A (nothing), so B's solve misses B's
        memo; and B's exit then restores A's memo, leaking it to every
        later solve in the process.
        """
        memo_a, memo_b = {}, {}
        step = threading.Barrier(2, timeout=30)

        def run_a():
            with tmin_memo(memo_a):
                step.wait()  # 1: A's memo active
                step.wait()  # 2: B's memo active too
            step.wait()  # 3: A has exited

        def run_b():
            step.wait()
            with tmin_memo(memo_b):
                step.wait()
                step.wait()
                min_delay_bound(eleven_gate_path, lib)

        threads = [threading.Thread(target=run) for run in (run_a, run_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(memo_b) == 1
        # Outside every scope no memo is active, in this thread or any.
        min_delay_bound(short_path, lib)
        assert (len(memo_a), len(memo_b)) == (0, 1)

    def test_memo_stress_each_thread_fills_only_its_own(self, lib):
        """More threads than cores, a tiny switch interval: no memo leaks."""
        kinds = [GateKind.INV, GateKind.NAND2, GateKind.NOR2, GateKind.INV]
        paths = [
            make_path(kinds, lib, cterm_ff=(10.0 + i) * lib.cref) for i in range(6)
        ]
        memos = [{} for _ in paths]

        def run(path, memo):
            with tmin_memo(memo):
                for _ in range(20):
                    min_delay_bound(path, lib)
                    min_delay_bound(path, lib, polish=False)

        threads = [
            threading.Thread(target=run, args=pair) for pair in zip(paths, memos)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for path, memo in zip(paths, memos):
            assert set(memo) == {
                (lib.fingerprint(), polish, path.fingerprint())
                for polish in (True, False)
            }

    def test_memo_is_keyed_by_library_value(self, eleven_gate_path, lib):
        """Equal libraries share entries; the key holds no object identity."""
        memo = {}
        twin = default_library()
        assert twin is not lib and twin.fingerprint() == lib.fingerprint()
        with tmin_memo(memo):
            first = min_delay_bound(eleven_gate_path, lib)
            second = min_delay_bound(eleven_gate_path, twin)
        assert len(memo) == 1
        ((library_key, polish, path_key),) = memo
        assert (library_key, polish, path_key) == (
            lib.fingerprint(),
            True,
            eleven_gate_path.fingerprint(),
        )
        assert second[0] == first[0]
        np.testing.assert_array_equal(second[1], first[1])
