"""NLDM table-lookup delay backend over parsed Liberty libraries.

:class:`NldmBackend` implements the full
:class:`~repro.timing.backend.DelayBackend` surface from the stacked
tables of :class:`~repro.liberty.tables.NldmTables`:

* the **scalar** kernel bilinearly interpolates the cell's
  ``cell_rise``/``cell_fall`` (delay) and ``rise_transition``/
  ``fall_transition`` (output slew) tables at ``(input slew, effective
  load)``.  The load axis is electrical effort: a gate sized to ``cin``
  enters the table at ``load * cin_ref / cin``, where ``cin_ref`` is the
  input capacitance the cell was characterised at -- that is what lets
  one table serve a continuously sized gate;
* the **batch** surface (:class:`NldmBatchModel`) propagates one
  nominal column with per-level vectorized lookups, then scales every
  corner column by the global speed ratio ``tau_corner / tau_nominal``
  (``capabilities.exact_corners`` is ``False``: tables are
  characterised at one process point).

Bit-exactness: both surfaces share the interpolation kernels of
:mod:`repro.liberty.tables`, evaluated in one operation order, so the
three evaluators agree bit for bit *within* this backend.  Unlike the
analytic model, an NLDM output transition depends on the winning fan-in
arc's slew, so the level evaluation tracks the argmax winner; ``max``
ties resolve to the first slot, matching the scalar engine's
strict-``>`` first-wins selection over the same fan-in order.

No bit-level relationship with the analytic backend is promised, even
for a ``.lib`` exported *from* the analytic model: lookups between grid
nodes see bilinear interpolation error (exactly zero only where the
analytic quantity is itself linear in the table variables).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.cells.cell import Cell
from repro.cells.gate_types import GateKind
from repro.cells.library import UnknownCellError
from repro.liberty.tables import NldmTables, interp_table, interp_table_stack
from repro.process.technology import Technology
from repro.timing.backend import BackendCapabilities, BatchDelayModel, DelayBackend
from repro.timing.delay_model import Edge, GateTiming, output_edge_for

if TYPE_CHECKING:  # pragma: no cover - type names only
    from repro.mc.compile import CompiledCircuit
    from repro.mc.corners import CornerSamples


class NldmBackend(DelayBackend):
    """Table-lookup delay model over one :class:`NldmTables` set."""

    capabilities = BackendCapabilities(
        name="nldm", closed_form_bounds=False, exact_corners=False
    )

    def __init__(self, tables: NldmTables) -> None:
        self.tables = tables

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NldmBackend(cells={self.tables.n_cells}, digest={self.tables.digest[:8]})"

    def cache_token(self) -> Tuple:
        """Identity = the table content digest (axes, cin_ref, values)."""
        return ("nldm", self.tables.digest)

    def _cell_index(self, kind: GateKind) -> int:
        idx = self.tables.kind_index.get(kind)
        if idx is None:
            raise UnknownCellError(
                f"no NLDM tables for gate kind {kind!r} in this library"
            )
        return idx

    def gate_timing(
        self,
        cell: Cell,
        tech: Technology,
        cin_ff: float,
        cload_ext_ff: float,
        tin_ps: float,
        input_edge: Edge,
    ) -> GateTiming:
        """Bilinear table lookup of one gate arc.

        Validation mirrors the analytic scalar kernel so both backends
        reject the same ill-posed inputs with the same exception types.
        """
        if cin_ff <= 0:
            raise ValueError(f"cin_ff must be positive, got {cin_ff}")
        if cload_ext_ff < 0:
            raise ValueError("cload_ext_ff must be non-negative")
        if tin_ps < 0:
            raise ValueError(f"tin_ps must be non-negative, got {tin_ps}")
        t = self.tables
        idx = self._cell_index(cell.kind)
        out_edge = output_edge_for(cell, input_edge)
        l_eff = cload_ext_ff * (t.cin_ref[idx] / cin_ff)
        if out_edge is Edge.RISE:
            delay = interp_table(
                t.cell_rise[idx], t.slew_axis, t.load_axis, tin_ps, l_eff
            )
            tout = interp_table(
                t.rise_transition[idx], t.slew_axis, t.load_axis, tin_ps, l_eff
            )
        else:
            delay = interp_table(
                t.cell_fall[idx], t.slew_axis, t.load_axis, tin_ps, l_eff
            )
            tout = interp_table(
                t.fall_transition[idx], t.slew_axis, t.load_axis, tin_ps, l_eff
            )
        return GateTiming(
            delay_ps=float(delay), tout_ps=float(tout), output_edge=out_edge
        )

    def compile_model(self, compiled: "CompiledCircuit") -> BatchDelayModel:
        """Fold per-gate table selectors into a batch model."""
        return NldmBatchModel(self, compiled)


class NldmBatchModel(BatchDelayModel):
    """Batch surface: vectorized table lookups over one nominal column.

    The constructor concatenates the rise/fall stacks into one
    ``(2 * n_cells, S, L)`` array per quantity and folds a per-gate
    *input-polarity* table selector: ``_ir_sel[g]`` picks the table of
    the output edge a rising input produces at gate ``g`` (``cell_fall``
    for inverting cells), ``_if_sel`` the falling-input twin.  That
    turns the level loop into two gather-interpolate-max sweeps, one per
    input polarity, mirroring the analytic kernel's ``b_rise``/
    ``b_fall`` split.

    Corners: one nominal column is propagated exactly, then every
    corner column is the nominal value scaled by
    ``tau_corner / tau_nominal`` -- exact at the nominal corner (scale
    is exactly ``1.0``), a first-order global-speed approximation
    elsewhere (``exact_corners=False``).
    """

    def __init__(self, backend: NldmBackend, compiled: "CompiledCircuit") -> None:
        self._backend = backend
        t = backend.tables
        idx = np.empty(len(compiled.cells), dtype=np.intp)
        for gate_id, cell in enumerate(compiled.cells):
            idx[gate_id] = backend._cell_index(cell.kind)
        self._idx = idx
        n = t.n_cells
        # Output-edge table stacks: rows [0, n) are the rise tables,
        # rows [n, 2n) the fall tables of the same cell.
        self._delay_stack = np.concatenate([t.cell_rise, t.cell_fall])
        self._tran_stack = np.concatenate([t.rise_transition, t.fall_transition])
        inv = compiled.inverting
        self._ir_sel = np.where(inv, idx + n, idx)
        self._if_sel = np.where(inv, idx, idx + n)
        self._cin_ref = t.cin_ref[idx]

    def bind(self, compiled: "CompiledCircuit") -> None:
        """Refresh the effective table loads of the bound sizing.

        Same operation order as the scalar kernel's
        ``cload_ext_ff * (cin_ref / cin_ff)``, elementwise.
        """
        self._l_eff = compiled.load * (self._cin_ref / compiled.cin)

    def propagate(
        self,
        compiled: "CompiledCircuit",
        corners: "CornerSamples",
        time_rise: np.ndarray,
        time_fall: np.ndarray,
        tran_rise: np.ndarray,
        tran_fall: np.ndarray,
    ) -> None:
        """One exact nominal propagation, then the tau-ratio corner scale."""
        t = self._backend.tables
        sax = t.slew_axis
        lax = t.load_axis
        n_in = compiled.n_inputs
        n_nets = compiled.n_nets
        neg_inf = -np.inf

        t_r = np.empty(n_nets)
        t_f = np.empty(n_nets)
        x_r = np.empty(n_nets)
        x_f = np.empty(n_nets)
        t_r[:n_in] = 0.0
        t_f[:n_in] = 0.0
        x_r[:n_in] = compiled.input_transition_ps
        x_f[:n_in] = compiled.input_transition_ps

        for start, end in compiled.levels:
            rows = compiled.fanin_rows[start:end]
            mask = compiled.fanin_mask[start:end]
            le = self._l_eff[start:end]
            ir_sel = self._ir_sel[start:end]
            if_sel = self._if_sel[start:end]
            pi = np.arange(end - start)

            # Rising-input arcs: delay lookup per (gate, fan-in slot),
            # candidate arrival, first-max winner, winner's output slew.
            slew = x_r[rows]
            d = interp_table_stack(
                self._delay_stack, ir_sel[:, None], sax, lax, slew, le[:, None]
            )
            cand = np.where(mask, t_r[rows] + d, neg_inf)
            m_ir = np.max(cand, axis=1)
            win = np.argmax(cand, axis=1)
            tr_ir = interp_table_stack(
                self._tran_stack, ir_sel, sax, lax, slew[pi, win], le
            )

            # Falling-input arcs.
            slew = x_f[rows]
            d = interp_table_stack(
                self._delay_stack, if_sel[:, None], sax, lax, slew, le[:, None]
            )
            cand = np.where(mask, t_f[rows] + d, neg_inf)
            m_if = np.max(cand, axis=1)
            win = np.argmax(cand, axis=1)
            tr_if = interp_table_stack(
                self._tran_stack, if_sel, sax, lax, slew[pi, win], le
            )

            inv = compiled.inverting[start:end]
            out = slice(n_in + start, n_in + end)
            t_r[out] = np.where(inv, m_if, m_ir)
            t_f[out] = np.where(inv, m_ir, m_if)
            x_r[out] = np.where(inv, tr_if, tr_ir)
            x_f[out] = np.where(inv, tr_ir, tr_if)

        scale = corners.tau_ps / compiled.library.tech.tau_ps
        time_rise[:] = t_r[:, None] * scale[None, :]
        time_fall[:] = t_f[:, None] * scale[None, :]
        tran_rise[:] = x_r[:, None] * scale[None, :]
        tran_fall[:] = x_f[:, None] * scale[None, :]
