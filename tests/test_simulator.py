"""Tests for the transistor-level transient simulator."""

import numpy as np
import pytest

from repro.cells.gate_types import GateKind
from repro.spice.simulator import SimOptions, simulate_gate, simulate_path
from repro.timing.delay_model import Edge
from repro.timing.path import make_path

FAST = SimOptions(n_steps=1200)


class TestSingleGate:
    def test_inverter_swings_rail_to_rail(self, lib):
        result = simulate_gate(GateKind.INV, lib, 10.0, 30.0, options=FAST)
        wave = result.node_volts[0]
        assert wave[0] == pytest.approx(lib.tech.vdd, abs=0.05)
        assert wave[-1] == pytest.approx(0.0, abs=0.05)

    def test_delay_increases_with_load(self, lib):
        delays = [
            simulate_gate(GateKind.INV, lib, 10.0, load, options=FAST).path_delay_ps
            for load in (20.0, 60.0, 120.0)
        ]
        assert delays[0] < delays[1] < delays[2]

    def test_delay_decreases_with_drive(self, lib):
        delays = [
            simulate_gate(GateKind.INV, lib, cin, 80.0, options=FAST).path_delay_ps
            for cin in (6.0, 12.0, 24.0)
        ]
        assert delays[0] > delays[1] > delays[2]

    def test_falling_input_direction(self, lib):
        result = simulate_gate(
            GateKind.INV, lib, 10.0, 30.0, input_edge=Edge.FALL, options=FAST
        )
        wave = result.node_volts[0]
        assert wave[0] == pytest.approx(0.0, abs=0.05)
        assert wave[-1] == pytest.approx(lib.tech.vdd, abs=0.05)

    def test_nor_slower_than_nand_at_same_size(self, lib):
        """The device-level root of Table 2: NOR's stacked P network."""
        t_nand = simulate_gate(GateKind.NAND2, lib, 12.0, 60.0,
                               input_edge=Edge.FALL, options=FAST).path_delay_ps
        t_nor = simulate_gate(GateKind.NOR2, lib, 12.0, 60.0,
                              input_edge=Edge.FALL, options=FAST).path_delay_ps
        assert t_nor > t_nand


class TestChains:
    def test_stage_delays_sum_close_to_path_delay(self, lib):
        path = make_path([GateKind.INV] * 4, lib, cterm_ff=25.0 * lib.cref)
        sizes = path.min_sizes(lib) * np.array([1.0, 2.0, 3.0, 5.0])
        sizes[0] = path.cin_first_ff
        result = simulate_path(path, sizes, lib, options=FAST)
        assert sum(result.stage_delays_ps) == pytest.approx(
            result.path_delay_ps, rel=0.05
        )

    def test_composites_expand(self, lib):
        path = make_path([GateKind.AND2, GateKind.INV], lib)
        sizes = path.min_sizes(lib)
        result = simulate_path(path, sizes, lib, options=FAST)
        # AND2 expands to NAND2 + INV: 3 primitive nodes for 2 stages.
        assert result.node_volts.shape[0] == 3
        assert result.stage_map == (1, 2)

    def test_buf_expansion_polarity(self, lib):
        path = make_path([GateKind.BUF], lib)
        result = simulate_path(path, path.min_sizes(lib), lib, options=FAST)
        # Rising input, non-inverting output: final node ends high.
        assert result.node_volts[-1][-1] == pytest.approx(lib.tech.vdd, abs=0.1)

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_every_kind_switches_between_inverters(self, lib, kind):
        # The expanded chain must produce the output edge the timing
        # model's polarity (``is_inverting``) predicts at every stage.
        path = make_path([GateKind.INV, kind, GateKind.INV], lib)
        result = simulate_path(path, path.min_sizes(lib), lib, options=FAST)
        assert all(d > 0 for d in result.stage_delays_ps)
        assert result.path_delay_ps > 0

    def test_xnor2_simulated_flimit_is_finite(self, lib):
        from repro.buffering.flimit import flimit_simulated

        assert np.isfinite(flimit_simulated(lib, GateKind.XNOR2))

    def test_shape_validated(self, lib):
        path = make_path([GateKind.INV, GateKind.INV], lib)
        with pytest.raises(ValueError):
            simulate_path(path, [1.0], lib, options=FAST)


class TestModelAgreement:
    """The Fig. 2-style validation: eq. 1-3 vs the transistor simulator."""

    @pytest.mark.parametrize(
        "kinds",
        [
            [GateKind.INV] * 5,
            [GateKind.NAND2, GateKind.INV, GateKind.NOR2, GateKind.INV],
            [GateKind.INV, GateKind.NAND3, GateKind.INV, GateKind.NOR3, GateKind.INV],
        ],
    )
    def test_path_delay_within_band(self, lib, kinds):
        from repro.timing.evaluation import path_delay_ps

        path = make_path(kinds, lib, cterm_ff=20.0 * lib.cref)
        sizes = path.min_sizes(lib) * 2.0
        sizes[0] = path.cin_first_ff
        model = path_delay_ps(path, sizes, lib)
        sim = simulate_path(path, sizes, lib, options=SimOptions(n_steps=2500))
        assert sim.path_delay_ps == pytest.approx(model, rel=0.25)

    def test_optimally_sized_chain_agreement(self, lib):
        """Near the Tmin sizing (the regime the optimizers live in), the
        model tracks the simulator tightly."""
        from repro.sizing.bounds import min_delay_bound

        path = make_path([GateKind.INV] * 6, lib, cterm_ff=60.0 * lib.cref)
        tmin, sizes, _, _ = min_delay_bound(path, lib)
        sim = simulate_path(path, sizes, lib, options=SimOptions(n_steps=2500))
        assert sim.path_delay_ps == pytest.approx(tmin, rel=0.20)
