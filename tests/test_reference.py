"""Cross-validation of the closed-form engines against scipy L-BFGS-B."""

import pytest

from repro.cells.gate_types import GateKind
from repro.sizing.bounds import min_delay_bound
from repro.sizing.sensitivity import distribute_constraint
from repro.timing.path import make_path

from scipy_reference import (
    reference_min_area_for_delay,
    reference_minimum_delay,
)


class TestReferenceTmin:
    def test_agrees_with_link_equations(self, eleven_gate_path, lib):
        ours, _, _, _ = min_delay_bound(eleven_gate_path, lib)
        theirs = reference_minimum_delay(eleven_gate_path, lib)
        assert theirs.converged
        assert ours == pytest.approx(theirs.delay_ps, rel=2e-3)

    def test_agrees_on_loaded_path(self, lib):
        path = make_path(
            [GateKind.INV, GateKind.NAND3, GateKind.NOR2, GateKind.INV],
            lib,
            cterm_ff=80.0 * lib.cref,
            cside_ff=[0.0, 40.0 * lib.cref, 0.0, 0.0],
        )
        ours, _, _, _ = min_delay_bound(path, lib)
        theirs = reference_minimum_delay(path, lib)
        assert ours == pytest.approx(theirs.delay_ps, rel=2e-3)

    def test_single_stage(self, lib):
        path = make_path([GateKind.INV], lib)
        result = reference_minimum_delay(path, lib)
        assert result.converged

    def test_engine_is_cheaper(self, eleven_gate_path, lib):
        """The specialised fixed point beats the general optimizer on
        evaluation count -- the quantitative version of 'why eq. 4'."""
        theirs = reference_minimum_delay(eleven_gate_path, lib)
        # The link-equation engine needs tens of sweeps; L-BFGS-B spends
        # at least as many full gradient evaluations.
        assert theirs.n_evaluations >= 10


class TestReferenceConstrained:
    def test_area_matches_constant_sensitivity(self, eleven_gate_path, lib):
        """The paper's 'provably minimum area' claim, certified externally:
        scipy finds no implementation meaningfully smaller than eq. 6's."""
        tmin, _, _, _ = min_delay_bound(eleven_gate_path, lib)
        tc = 1.3 * tmin
        ours = distribute_constraint(eleven_gate_path, lib, tc,
                                     weight_mode="area")
        theirs = reference_min_area_for_delay(
            eleven_gate_path, lib, tc, start_sizes=ours.sizes
        )
        assert ours.feasible
        assert theirs.delay_ps <= tc * (1 + 1e-3)
        assert ours.area_um <= theirs.area_um * 1.03

    def test_uniform_mode_close_to_optimal(self, eleven_gate_path, lib):
        """The paper's uniform-sensitivity variant is near the true
        minimum-sum-W solution (the gap is what the 'area' mode closes)."""
        tmin, _, _, _ = min_delay_bound(eleven_gate_path, lib)
        tc = 1.3 * tmin
        ours = distribute_constraint(eleven_gate_path, lib, tc,
                                     weight_mode="uniform")
        theirs = reference_min_area_for_delay(
            eleven_gate_path, lib, tc, start_sizes=ours.sizes
        )
        assert ours.area_um <= theirs.area_um * 1.10

    def test_tc_validated(self, eleven_gate_path, lib):
        with pytest.raises(ValueError):
            reference_min_area_for_delay(eleven_gate_path, lib, 0.0)
