"""Transistor-level transient simulation of bounded paths.

This is the repository's HSPICE stand-in: an independent, physics-based
reference against which the closed-form eq. 1-3 model is validated (the
paper's Fig. 2 and Table 2 "simulation" columns).

Model
-----
* Each gate is reduced to its switching arc: the on-path transistor pair
  with series stacks folded into effective widths (``W / stack``), side
  inputs held at their non-controlling values.  Composite cells (BUF,
  AND, OR, XOR, XNOR) are expanded into their inverting primitive stages
  first.
* Devices follow the Sakurai--Newton alpha-power law
  (:mod:`repro.process.transistor`), evaluated vectorised over all nodes.
* Node dynamics include the gate input/output coupling capacitance
  ``C_M`` as a tridiagonal capacitance matrix -- the Miller effect the
  eq. 1 coupling factor approximates -- plus junction, side and terminal
  loads.
* Integration: fixed-step RK4 on ``M dV/dt = I(V, t)``.
  :func:`simulate_paths` advances a batch of transients in one RK4 loop
  over ``(lanes, nodes)`` arrays, lanes grouped by expanded node count
  (nothing is padded), each on its own time grid; every lane equals a
  one-path run bit for bit (``tests/test_simulator_reference.py``).

Units: fF, ps, V, mA throughout (consistent: mA = fF*V/ps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.cell import Cell
from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.process.transistor import nmos_for, pmos_for
from repro.spice.waveform import delay_50, ramp_input, transition_time
from repro.timing.delay_model import Edge
from repro.timing.evaluation import evaluate_path
from repro.timing.path import BoundedPath


@dataclass(frozen=True)
class SimOptions:
    """Transient analysis controls.

    Attributes
    ----------
    n_steps:
        RK4 steps over the full window.
    t_end_ps:
        Simulation window; ``None`` auto-sizes it from the closed-form
        path delay (3x + input transition margin).
    input_transition_ps:
        Full-swing ramp time of the stimulus.
    """

    n_steps: int = 4000
    t_end_ps: Optional[float] = None
    input_transition_ps: float = 20.0


@dataclass(frozen=True)
class ChainSimResult:
    """Waveforms and measurements of one path transient.

    Attributes
    ----------
    times_ps / input_volts / node_volts:
        Raw waveforms; ``node_volts[i]`` is primitive stage ``i``'s output.
    stage_map:
        For each *path* stage, the primitive node index of its output.
    path_delay_ps:
        50% input to 50% last-output propagation delay.
    stage_delays_ps:
        Per path-stage 50%-50% delays.
    stage_transitions_ps:
        Full-swing-equivalent output transition per path stage.
    """

    times_ps: np.ndarray
    input_volts: np.ndarray
    node_volts: np.ndarray
    stage_map: Tuple[int, ...]
    path_delay_ps: float
    stage_delays_ps: Tuple[float, ...]
    stage_transitions_ps: Tuple[float, ...]


_COMPOSITE_EXPANSION = {
    GateKind.BUF: (GateKind.INV, GateKind.INV),
    GateKind.AND2: (GateKind.NAND2, GateKind.INV),
    GateKind.AND3: (GateKind.NAND3, GateKind.INV),
    GateKind.AND4: (GateKind.NAND4, GateKind.INV),
    GateKind.OR2: (GateKind.NOR2, GateKind.INV),
    GateKind.OR3: (GateKind.NOR3, GateKind.INV),
    GateKind.OR4: (GateKind.NOR4, GateKind.INV),
    # XOR switching arc: two NAND-like stages (non-inverting with the
    # side input low); XNOR is that arc plus an output inverter.
    GateKind.XOR2: (GateKind.NAND2, GateKind.NAND2),
    GateKind.XNOR2: (GateKind.NAND2, GateKind.NAND2, GateKind.INV),
}


def _expand_stages(
    path: BoundedPath, sizes: np.ndarray, library: Library
) -> Tuple[List[Tuple[Cell, float, float]], Tuple[int, ...]]:
    """Expand composites; returns [(cell, cin, cside)], and per-path-stage
    primitive output indices."""
    expanded: List[Tuple[Cell, float, float]] = []
    stage_map: List[int] = []
    for stage, cin in zip(path.stages, sizes):
        kinds = _COMPOSITE_EXPANSION.get(stage.cell.kind)
        if kinds is None:
            expanded.append((stage.cell, cin, stage.cside_ff))
        else:
            # Internal stages sized like the input stage: the usual
            # composite-cell layout choice.
            for kind in kinds[:-1]:
                expanded.append((library.cell(kind), cin, 0.0))
            expanded.append((library.cell(kinds[-1]), cin, stage.cside_ff))
        stage_map.append(len(expanded) - 1)
    return expanded, tuple(stage_map)


def _alpha_power_current(
    drive: np.ndarray,
    vgs: np.ndarray,
    vds: np.ndarray,
    vt: float,
    alpha: float,
    vd0_coeff: float,
) -> np.ndarray:
    """Vectorised Sakurai--Newton drain current (mA); ``drive`` is beta * W."""
    vgst = np.maximum(vgs - vt, 0.0)
    vds_pos = np.maximum(vds, 0.0)
    i_sat = drive * vgst**alpha
    vd0 = vd0_coeff * vgst ** (alpha / 2.0)
    conducting = vd0 > 0
    x = np.where(conducting, vds_pos / np.where(conducting, vd0, 1.0), np.inf)
    linear = np.clip(x, 0.0, 1.0)
    triode = i_sat * linear * (2.0 - linear)
    return np.where(x >= 1.0, i_sat, triode)


@dataclass(frozen=True)
class _Lane:
    """One path transient, ready to integrate: the per-lane inputs of the RK4 loop."""

    stage_map: Tuple[int, ...]
    wn_eff_um: np.ndarray
    wp_eff_um: np.ndarray
    cm_ff: np.ndarray
    m_inv: np.ndarray
    times_ps: np.ndarray
    v0: np.ndarray
    input_rising: bool


def _build_lane(
    path: BoundedPath, sizes: Sequence[float], library: Library, options: SimOptions
) -> _Lane:
    """Expand, assemble and time-grid one sized path."""
    tech = library.tech
    vdd = tech.vdd
    arr = np.asarray(sizes, dtype=float).copy()
    if arr.shape != (len(path),):
        raise ValueError(f"expected {len(path)} sizes, got shape {arr.shape}")
    arr[0] = path.cin_first_ff

    prim, stage_map = _expand_stages(path, arr, library)
    m = len(prim)
    input_rising = path.input_edge is Edge.RISE

    # Assemble per-node electrical data.
    wn_eff, wp_eff, cm_list, cnode_list = [], [], [], []
    for i, (cell, cin, cside) in enumerate(prim):
        wn, wp = cell.wn_wp_um(cin, tech)
        downstream = prim[i + 1][1] if i + 1 < m else path.cterm_ff
        cnode_list.append(cell.parasitic_cap(cin) + cside + downstream)
        # Simulation-side C_M: mean of the two per-edge values (the edge
        # alternates stage to stage anyway).
        cm_list.append(
            0.5 * (cell.coupling_cap(cin, True) + cell.coupling_cap(cin, False))
        )
        wn_eff.append(wn / cell.stack_n)
        wp_eff.append(wp / cell.stack_p)
    cm = np.array(cm_list)
    cnode = np.array(cnode_list)

    # Capacitance matrix: node i couples to its driving node (i-1 or the
    # source) through cm[i], and to node i+1 through cm[i+1].
    matrix = np.zeros((m, m))
    for i in range(m):
        matrix[i, i] = cnode[i] + cm[i]
        if i + 1 < m:
            matrix[i, i] += cm[i + 1]
            matrix[i, i + 1] -= cm[i + 1]
            matrix[i + 1, i] -= cm[i + 1]

    if options.t_end_ps is not None:
        t_end = options.t_end_ps
    else:
        model = evaluate_path(path, arr, library)
        t_end = 3.0 * model.total_delay_ps + 10.0 * options.input_transition_ps + 50.0

    # DC initial condition: primitives are all inverting.
    v0 = np.empty(m)
    level = 0.0 if input_rising else vdd
    for i in range(m):
        level = vdd - level
        v0[i] = level

    return _Lane(
        stage_map=stage_map,
        wn_eff_um=np.array(wn_eff),
        wp_eff_um=np.array(wp_eff),
        cm_ff=cm,
        m_inv=np.linalg.inv(matrix),
        times_ps=np.linspace(0.0, t_end, options.n_steps + 1),
        v0=v0,
        input_rising=input_rising,
    )


def _integrate(lanes: Sequence[_Lane], library: Library, options: SimOptions) -> np.ndarray:
    """RK4-advance lanes of one node count together; ``(lanes, nodes, steps + 1)``.

    Every operation acts element by element on ``(lanes, nodes)`` arrays,
    and ``m_inv @ rhs`` is a stack of the same matrix-vector products, so
    each lane's waveform equals a one-lane run bit for bit.  The source
    level and its ``C_M`` injection depend on time only, so they are
    evaluated for every step up front.
    """
    tech = library.tech
    vdd = tech.vdd
    nmos = nmos_for(tech)
    pmos = pmos_for(tech)
    n_drive = nmos.beta_ma_per_um * np.stack([lane.wn_eff_um for lane in lanes])
    p_drive = pmos.beta_ma_per_um * np.stack([lane.wp_eff_um for lane in lanes])
    cm0 = np.array([lane.cm_ff[0] for lane in lanes])
    m_inv = np.stack([lane.m_inv for lane in lanes])
    times = np.stack([lane.times_ps for lane in lanes])
    rising = np.array([lane.input_rising for lane in lanes])
    dt = times[:, 1] - times[:, 0]
    dt_col = dt[:, None]

    tr = options.input_transition_ps
    t_start = 2.0 * tr + 10.0
    slope = vdd / tr if tr > 0 else 0.0
    lane_slope = np.where(rising, slope, -slope)[:, None]

    def source(t: np.ndarray):
        """Input level and ``C_M`` injection at ``t``, transposed to ``(steps, lanes)``."""
        if tr == 0:
            level = np.where(t >= t_start, vdd, 0.0)
            current = np.zeros(t.shape)
        else:
            level = vdd * np.clip((t - t_start) / tr, 0.0, 1.0)
            inside = (t_start <= t) & (t <= t_start + tr)
            current = cm0[:, None] * np.where(inside, lane_slope, 0.0)
        return np.where(rising[:, None], level, vdd - level).T, current.T

    level_t, drive_t = source(times)
    level_mid, drive_mid = source(times + (0.5 * dt)[:, None])
    level_end, drive_end = source(times + dt_col)

    def derivative(level: np.ndarray, drive: np.ndarray, v: np.ndarray) -> np.ndarray:
        vin = np.empty(v.shape)
        vin[:, 0] = level
        vin[:, 1:] = v[:, :-1]
        i_n = _alpha_power_current(
            n_drive, vin, v, nmos.vt, nmos.alpha, nmos.vd0_per_vgst
        )
        i_p = _alpha_power_current(
            p_drive, vdd - vin, vdd - v, pmos.vt, pmos.alpha, pmos.vd0_per_vgst
        )
        rhs = i_p - i_n
        rhs[:, 0] += drive
        return (m_inv @ rhs[:, :, None])[:, :, 0]

    v = np.stack([lane.v0 for lane in lanes])
    history = np.empty(v.shape + (times.shape[1],))
    history[:, :, 0] = v
    for step in range(times.shape[1] - 1):
        k1 = derivative(level_t[step], drive_t[step], v)
        k2 = derivative(level_mid[step], drive_mid[step], v + 0.5 * dt_col * k1)
        k3 = derivative(level_mid[step], drive_mid[step], v + 0.5 * dt_col * k2)
        k4 = derivative(level_end[step], drive_end[step], v + dt_col * k3)
        v = v + (dt_col / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = np.clip(v, -0.5 * vdd, 1.5 * vdd)
        history[:, :, step + 1] = v
    return history


def _measure(
    path: BoundedPath,
    lane: _Lane,
    history: np.ndarray,
    library: Library,
    options: SimOptions,
) -> ChainSimResult:
    """Delays and transitions of one lane's waveforms on the original path stages."""
    vdd = library.tech.vdd
    times = lane.times_ps
    input_rising = lane.input_rising
    t_start = 2.0 * options.input_transition_ps + 10.0
    vin_t = ramp_input(times, vdd, input_rising, t_start, options.input_transition_ps)
    stage_delays: List[float] = []
    stage_transitions: List[float] = []
    prev_wave = vin_t
    prev_rising = input_rising
    for path_index, node_index in enumerate(lane.stage_map):
        wave = history[node_index]
        # Polarity at this output.
        edge = path.edge_at(path_index)
        cell = path.stages[path_index].cell
        out_rising = (edge is Edge.RISE) != cell.inverting
        stage_delays.append(
            delay_50(times, prev_wave, wave, vdd, prev_rising, out_rising)
        )
        stage_transitions.append(transition_time(times, wave, vdd, out_rising))
        prev_wave = wave
        prev_rising = out_rising

    last_wave = history[lane.stage_map[-1]]
    path_delay = delay_50(times, vin_t, last_wave, vdd, input_rising, prev_rising)

    return ChainSimResult(
        times_ps=times,
        input_volts=vin_t,
        node_volts=history,
        stage_map=lane.stage_map,
        path_delay_ps=path_delay,
        stage_delays_ps=tuple(stage_delays),
        stage_transitions_ps=tuple(stage_transitions),
    )


def simulate_paths(
    paths: Sequence[BoundedPath],
    sizes: Sequence[Sequence[float]],
    library: Library,
    options: Optional[SimOptions] = None,
) -> List[ChainSimResult]:
    """Transient-simulate a batch of sized paths; one result per path.

    Paths whose expanded chains have the same node count advance
    together in one RK4 loop over ``(lanes, nodes)`` arrays -- nothing
    is padded -- each lane on its own time grid and step.  Every result
    equals :func:`simulate_path` of its path alone, bit for bit.
    """
    if options is None:
        options = SimOptions()
    if len(paths) != len(sizes):
        raise ValueError(f"{len(paths)} paths but {len(sizes)} sizing vectors")
    lanes = [
        _build_lane(path, lane_sizes, library, options)
        for path, lane_sizes in zip(paths, sizes)
    ]
    groups: Dict[int, List[int]] = {}
    for index, lane in enumerate(lanes):
        groups.setdefault(lane.v0.size, []).append(index)
    results: List[Optional[ChainSimResult]] = [None] * len(lanes)
    for members in groups.values():
        history = _integrate([lanes[i] for i in members], library, options)
        for row, index in enumerate(members):
            results[index] = _measure(
                paths[index], lanes[index], history[row], library, options
            )
    return results  # type: ignore[return-value]


def simulate_path(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
    options: Optional[SimOptions] = None,
) -> ChainSimResult:
    """Transient-simulate a sized path and measure its delays."""
    return simulate_paths([path], [sizes], library, options)[0]


def simulate_gate(
    kind: GateKind,
    library: Library,
    cin_ff: float,
    cload_ff: float,
    input_edge: Edge = Edge.RISE,
    options: Optional[SimOptions] = None,
) -> ChainSimResult:
    """Single-gate transient (Table 2 style characterisation helper)."""
    from repro.timing.path import make_path

    path = make_path(
        [kind],
        library,
        cin_first_ff=cin_ff,
        cterm_ff=cload_ff,
        input_edge=input_edge,
    )
    return simulate_path(path, [cin_ff], library, options=options)
