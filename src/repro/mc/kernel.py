"""Batch STA and batch path evaluation: all corners at once.

The kernels here propagate the eq. 1-3 delay model for *N process
corners simultaneously*: every timing quantity is a ``(rows, n_samples)``
array, and one level of the circuit is handled by a handful of numpy
operations instead of ``n_samples`` Python dict walks.

Bit-identity contract
---------------------
The batch kernel evaluates exactly the arithmetic of the scalar engines,
in the same operation order (multiplication/division associativity
included), so at the nominal corner its arrivals and transitions equal
:func:`repro.timing.sta.analyze` -- and therefore
:class:`~repro.timing.incremental.IncrementalSta` -- *bit for bit*
(asserted over every CORE circuit in ``tests/test_mc.py``).  Two model
facts make the max-reduction itself exact:

* a gate's output **transition** (eq. 2) depends only on the output edge
  and the gate's own size/load -- never on *which* fan-in arc wins -- so
  the per-edge reduction only needs ``max`` over candidate arrival
  times, which is exact in floating point;
* a candidate's arrival is ``t_src + delay`` computed fully before the
  comparison, exactly like the scalar kernel's strict-``>`` selection.

The scalar engine's tie-break (first-come on exactly equal arrivals)
can, in principle, pick a different *cause* than the batch argmax, but
never a different arrival/transition value, so the annotations agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.cells.library import Library
from repro.mc.compile import CompiledCircuit
from repro.mc.corners import CornerSamples
from repro.timing.backend import BatchDelayModel
from repro.timing.delay_model import Edge, output_edge_for
from repro.timing.evaluation import _check_sizes, path_delay_ps
from repro.timing.path import BoundedPath


class AnalyticBatchModel(BatchDelayModel):
    """Batch surface of the analytic backend: the eq. 1-3 level loop.

    The constructor folds the per-gate cell constants of the compiled
    structure into arrays (written onto ``compiled`` itself),
    :meth:`bind` refreshes the sizing-derived ones, and :meth:`propagate`
    is the original :func:`batch_analyze` level loop, moved verbatim so
    the bit-identity contract above survives the backend seam untouched.
    """

    def __init__(self, compiled: CompiledCircuit) -> None:
        n_gates = len(compiled.cells)
        compiled.k_ratio = np.empty(n_gates)
        compiled.dw_hl = np.empty(n_gates)
        compiled.dw_lh = np.empty(n_gates)
        compiled.p_intrinsic = np.empty(n_gates)
        for gate_id, cell in enumerate(compiled.cells):
            compiled.k_ratio[gate_id] = cell.k_ratio
            compiled.dw_hl[gate_id] = cell.dw_hl
            compiled.dw_lh[gate_id] = cell.dw_lh
            compiled.p_intrinsic[gate_id] = cell.p_intrinsic
        # Symmetry factor of the falling edge (eq. 3) is sizing- and
        # corner-free: S_HL = DW_HL * (1 + k) / 2.  The rising edge picks
        # up the perturbed R per corner, so propagate builds it itself.
        compiled.s_hl = compiled.dw_hl * (1.0 + compiled.k_ratio) / 2.0

    def bind(self, compiled: CompiledCircuit) -> None:
        """Refresh the sizing-derived analytic arrays after a re-bind."""
        # Total load (external + own junction parasitic), eq. 2's C_L:
        # same operation order as delay_model.total_load.
        compiled.cl_total = compiled.p_intrinsic * compiled.cin + compiled.load
        # Miller coupling factors per switching-input polarity (eq. 1);
        # cm follows Cell.coupling_cap's operation order exactly.
        cm_rise = 0.5 * compiled.cin * compiled.k_ratio / (1.0 + compiled.k_ratio)
        cm_fall = 0.5 * compiled.cin / (1.0 + compiled.k_ratio)
        compiled.half_coupling_rise = 0.5 * (
            1.0 + 2.0 * cm_rise / (cm_rise + compiled.cl_total)
        )
        compiled.half_coupling_fall = 0.5 * (
            1.0 + 2.0 * cm_fall / (cm_fall + compiled.cl_total)
        )

    def propagate(
        self,
        compiled: CompiledCircuit,
        corners: CornerSamples,
        time_rise: np.ndarray,
        time_fall: np.ndarray,
        tran_rise: np.ndarray,
        tran_fall: np.ndarray,
    ) -> None:
        """Run the eq. 1-3 level loop over every corner column."""
        n_in = compiled.n_inputs
        tau = corners.tau_ps
        r = corners.r_ratio
        # Half input-slope weights of eq. 1 per switching-input polarity:
        # the scalar kernel computes (0.5 * v_T) * t_in in that order.
        hv_rise = 0.5 * corners.vtn_reduced
        hv_fall = 0.5 * corners.vtp_reduced
        neg_inf = -np.inf

        for start, end in compiled.levels:
            k = compiled.k_ratio[start:end, None]
            cl = compiled.cl_total[start:end, None]
            cin = compiled.cin[start:end, None]
            inv = compiled.inverting[start:end, None]

            # Eq. 3 rising-edge symmetry factor with the corner's R, and
            # the eq. 2 transitions for both output edges (operation
            # order of Cell.s_lh / output_transition_time preserved).
            s_lh = compiled.dw_lh[start:end, None] * (r[None, :] / k) * (1.0 + k) / 2.0
            tout_rise = s_lh * tau[None, :] * cl / cin
            tout_fall = compiled.s_hl[start:end, None] * tau[None, :] * cl / cin

            # Load/coupling contribution of eq. 1 per *input* polarity: a
            # rising input drives the falling output of an inverting cell.
            b_rise = compiled.half_coupling_rise[start:end, None] * np.where(
                inv, tout_fall, tout_rise
            )
            b_fall = compiled.half_coupling_fall[start:end, None] * np.where(
                inv, tout_rise, tout_fall
            )

            rows = compiled.fanin_rows[start:end]
            mask = compiled.fanin_mask[start:end, :, None]

            delay = hv_rise[None, None, :] * tran_rise[rows] + b_rise[:, None, :]
            cand = time_rise[rows] + delay
            m_rise = np.max(np.where(mask, cand, neg_inf), axis=1)

            delay = hv_fall[None, None, :] * tran_fall[rows] + b_fall[:, None, :]
            cand = time_fall[rows] + delay
            m_fall = np.max(np.where(mask, cand, neg_inf), axis=1)

            out = slice(n_in + start, n_in + end)
            time_rise[out] = np.where(inv, m_fall, m_rise)
            time_fall[out] = np.where(inv, m_rise, m_fall)
            tran_rise[out] = tout_rise
            tran_fall[out] = tout_fall


@dataclass(frozen=True)
class BatchStaResult:
    """Full-circuit batch timing annotation over ``n_samples`` corners.

    All arrays are ``(n_nets, n_samples)`` in the compiled net row
    space (primary inputs first, then gates in levelized order).
    """

    compiled: CompiledCircuit
    time_rise: np.ndarray
    time_fall: np.ndarray
    tran_rise: np.ndarray
    tran_fall: np.ndarray
    #: Worst arrival over all primary outputs and polarities, per sample.
    critical_delay_ps: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of corners evaluated."""
        return int(self.time_rise.shape[1])

    def arrival(self, net: str, edge: Edge) -> np.ndarray:
        """Per-sample arrival times of ``edge`` at ``net`` (ps)."""
        row = self.compiled.gate_row(net)
        return self.time_rise[row] if edge is Edge.RISE else self.time_fall[row]

    def transition(self, net: str, edge: Edge) -> np.ndarray:
        """Per-sample transition times of ``edge`` at ``net`` (ps)."""
        row = self.compiled.gate_row(net)
        return self.tran_rise[row] if edge is Edge.RISE else self.tran_fall[row]

    def endpoint_arrivals(self) -> np.ndarray:
        """Worst arrival per primary output, ``(n_outputs, n_samples)``."""
        rows = self.compiled.output_rows
        return np.maximum(self.time_rise[rows], self.time_fall[rows])

    def endpoint_yields(self, tc_ps: float) -> Dict[str, float]:
        """Per-endpoint fraction of corners meeting ``tc_ps``."""
        if tc_ps <= 0:
            raise ValueError("tc_ps must be positive")
        worst = self.endpoint_arrivals()
        return {
            net: float(np.mean(worst[i] <= tc_ps))
            for i, net in enumerate(self.compiled.output_names)
        }

    def yield_at(self, tc_ps: float) -> float:
        """Fraction of corners whose critical delay meets ``tc_ps``."""
        if tc_ps <= 0:
            raise ValueError("tc_ps must be positive")
        return float(np.mean(self.critical_delay_ps <= tc_ps))


def batch_analyze(
    compiled: CompiledCircuit, corners: CornerSamples
) -> BatchStaResult:
    """Propagate arrivals for every corner at once, level by level."""
    n = corners.n_samples
    n_nets = compiled.n_nets
    n_in = compiled.n_inputs

    time_rise = np.empty((n_nets, n))
    time_fall = np.empty((n_nets, n))
    tran_rise = np.empty((n_nets, n))
    tran_fall = np.empty((n_nets, n))
    time_rise[:n_in] = 0.0
    time_fall[:n_in] = 0.0
    tran_rise[:n_in] = compiled.input_transition_ps
    tran_fall[:n_in] = compiled.input_transition_ps

    compiled.model.propagate(
        compiled, corners, time_rise, time_fall, tran_rise, tran_fall
    )

    rows = compiled.output_rows
    critical = np.max(
        np.maximum(time_rise[rows], time_fall[rows]), axis=0
    )
    return BatchStaResult(
        compiled=compiled,
        time_rise=time_rise,
        time_fall=time_fall,
        tran_rise=tran_rise,
        tran_fall=tran_fall,
        critical_delay_ps=critical,
    )


def batch_path_delays(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
    corners: CornerSamples,
) -> np.ndarray:
    """Eq. 1 delay of one sized path at every corner, ``(n_samples,)``.

    The vectorized twin of
    :func:`repro.timing.evaluation.path_delay_ps`: stage constants that
    variation perturbs (``S*tau`` through ``tau``/``R``, the reduced
    thresholds) become per-corner arrays; everything else (coupling,
    parasitics, side loads, the sizing) is the fixed scalar the nominal
    evaluation uses, in the same operation order -- so the corner ``i``
    column equals a scalar re-evaluation under ``corners.technology_at(i)``
    bit for bit.

    Backends without exact corner support (NLDM tables, whose arcs are
    characterised at one process point) approximate corner ``i`` as the
    nominal backend delay scaled by the global speed ratio
    ``tau_i / tau_nominal`` -- exact at the nominal corner, first-order
    elsewhere (see ``capabilities.exact_corners``).
    """
    arr = _check_sizes(path, sizes)
    if not library.delay_backend.capabilities.exact_corners:
        nominal = path_delay_ps(path, arr, library)
        return np.asarray(nominal * (corners.tau_ps / library.tech.tau_ps))
    tau = corners.tau_ps
    r = corners.r_ratio
    vt_rise = corners.vtn_reduced
    vt_fall = corners.vtp_reduced

    total = 0.0
    tin = path.tin_first_ps
    edge = path.input_edge
    n = len(path)
    for i in range(n):
        stage = path.stages[i]
        cell = stage.cell
        out_edge = output_edge_for(cell, edge)
        if out_edge is Edge.FALL:
            s = cell.dw_hl * (1.0 + cell.k_ratio) / 2.0
        else:
            s = cell.dw_lh * (r / cell.k_ratio) * (1.0 + cell.k_ratio) / 2.0
        s_tau = s * tau
        vt = vt_rise if edge is Edge.RISE else vt_fall
        m = cell.coupling_cap(1.0, input_rising=edge is Edge.RISE)

        c = arr[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        cl = cell.p_intrinsic * c + stage.cside_ff + downstream
        tout = s_tau * cl / c
        cm = m * c
        half_k = 0.5 * (1.0 + 2.0 * cm / (cm + cl))
        total = total + (0.5 * vt * tin + half_k * tout)
        tin = tout
        edge = out_edge
    return np.asarray(total)
