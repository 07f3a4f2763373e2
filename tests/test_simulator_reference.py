"""Bit-identity of the batched transient simulator against the one-path loop.

:func:`repro.spice.simulator.simulate_paths` advances a batch of path
transients in one RK4 loop over ``(lanes, nodes)`` arrays, lanes grouped
by expanded node count, each on its own time grid.  The one-path loop it
replaced is kept below, verbatim in its operation order (its per-node
records as tuples), as the reference.  Every operation of a step acts
element by element, and the ``m_inv @ rhs`` product is a stack of the
same matrix-vector products, so every comparison is ``==``.
"""

from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.process.transistor import nmos_for, pmos_for
from repro.spice.simulator import (
    ChainSimResult,
    SimOptions,
    _expand_stages,
    simulate_path,
    simulate_paths,
)
from repro.spice.waveform import delay_50, ramp_input, transition_time
from repro.timing.delay_model import Edge
from repro.timing.evaluation import evaluate_path
from repro.timing.path import BoundedPath, make_path

# -- reference implementation: the one-path loop, verbatim --------------


def ref_alpha_power_current(
    widths_um: np.ndarray,
    vgs: np.ndarray,
    vds: np.ndarray,
    beta: float,
    vt: float,
    alpha: float,
    vd0_coeff: float,
) -> np.ndarray:
    """Vectorised Sakurai--Newton drain current (mA)."""
    vgst = np.maximum(vgs - vt, 0.0)
    vds_pos = np.maximum(vds, 0.0)
    i_sat = beta * widths_um * vgst**alpha
    vd0 = vd0_coeff * vgst ** (alpha / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(vd0 > 0, vds_pos / np.where(vd0 > 0, vd0, 1.0), np.inf)
    triode = i_sat * np.clip(x, 0.0, 1.0) * (2.0 - np.clip(x, 0.0, 1.0))
    return np.where(x >= 1.0, i_sat, triode)



def ref_simulate_path(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
    options: Optional[SimOptions] = None,
) -> ChainSimResult:
    if options is None:
        options = SimOptions()
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
    stages = []
    for i, (cell, cin, cside) in enumerate(prim):
        wn, wp = cell.wn_wp_um(cin, tech)
        downstream = prim[i + 1][1] if i + 1 < m else path.cterm_ff
        cnode = cell.parasitic_cap(cin) + cside + downstream
        # Simulation-side C_M: mean of the two per-edge values (the edge
        # alternates stage to stage anyway).
        cm = 0.5 * (cell.coupling_cap(cin, True) + cell.coupling_cap(cin, False))
        stages.append((wn / cell.stack_n, wp / cell.stack_p, cm, cnode))

    wn_eff = np.array([s[0] for s in stages])
    wp_eff = np.array([s[1] for s in stages])
    cm = np.array([s[2] for s in stages])
    cnode = np.array([s[3] for s in stages])

    # Capacitance matrix: node i couples to its driving node (i-1 or the
    # source) through cm[i], and to node i+1 through cm[i+1].
    matrix = np.zeros((m, m))
    for i in range(m):
        matrix[i, i] = cnode[i] + cm[i]
        if i + 1 < m:
            matrix[i, i] += cm[i + 1]
            matrix[i, i + 1] -= cm[i + 1]
            matrix[i + 1, i] -= cm[i + 1]
    m_inv = np.linalg.inv(matrix)

    nmos = nmos_for(tech)
    pmos = pmos_for(tech)

    if options.t_end_ps is not None:
        t_end = options.t_end_ps
    else:
        model = evaluate_path(path, arr, library)
        t_end = 3.0 * model.total_delay_ps + 10.0 * options.input_transition_ps + 50.0
    t_start = 2.0 * options.input_transition_ps + 10.0
    times = np.linspace(0.0, t_end, options.n_steps + 1)
    dt = times[1] - times[0]

    vin_t = ramp_input(times, vdd, input_rising, t_start, options.input_transition_ps)
    slope = vdd / options.input_transition_ps if options.input_transition_ps > 0 else 0.0

    def input_level(t: float) -> float:
        if options.input_transition_ps == 0:
            level = vdd if t >= t_start else 0.0
        else:
            frac = np.clip((t - t_start) / options.input_transition_ps, 0.0, 1.0)
            level = vdd * frac
        return level if input_rising else vdd - level

    def input_slope(t: float) -> float:
        if options.input_transition_ps == 0:
            return 0.0
        inside = t_start <= t <= t_start + options.input_transition_ps
        if not inside:
            return 0.0
        return slope if input_rising else -slope

    def derivative(t: float, v: np.ndarray) -> np.ndarray:
        vin = np.empty(m)
        vin[0] = input_level(t)
        vin[1:] = v[:-1]
        i_n = ref_alpha_power_current(
            wn_eff, vin, v, nmos.beta_ma_per_um, nmos.vt, nmos.alpha, nmos.vd0_per_vgst
        )
        i_p = ref_alpha_power_current(
            wp_eff, vdd - vin, vdd - v, pmos.beta_ma_per_um, pmos.vt, pmos.alpha,
            pmos.vd0_per_vgst,
        )
        rhs = i_p - i_n
        rhs[0] += cm[0] * input_slope(t)
        return m_inv @ rhs

    # DC initial condition: primitives are all inverting.
    v = np.empty(m)
    level = 0.0 if input_rising else vdd
    for i in range(m):
        level = vdd - level
        v[i] = level

    history = np.empty((m, times.size))
    history[:, 0] = v
    for step in range(times.size - 1):
        t = times[step]
        k1 = derivative(t, v)
        k2 = derivative(t + 0.5 * dt, v + 0.5 * dt * k1)
        k3 = derivative(t + 0.5 * dt, v + 0.5 * dt * k2)
        k4 = derivative(t + dt, v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = np.clip(v, -0.5 * vdd, 1.5 * vdd)
        history[:, step + 1] = v

    # Measurements on the original path stages.
    stage_delays: List[float] = []
    stage_transitions: List[float] = []
    prev_wave = vin_t
    prev_rising = input_rising
    for path_index, node_index in enumerate(stage_map):
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

    last_wave = history[stage_map[-1]]
    last_rising = prev_rising
    path_delay = delay_50(times, vin_t, last_wave, vdd, input_rising, last_rising)

    return ChainSimResult(
        times_ps=times,
        input_volts=vin_t,
        node_volts=history,
        stage_map=stage_map,
        path_delay_ps=path_delay,
        stage_delays_ps=tuple(stage_delays),
        stage_transitions_ps=tuple(stage_transitions),
    )



# -- comparisons ---------------------------------------------------------


def _assert_identical(got: ChainSimResult, want: ChainSimResult) -> None:
    assert got.path_delay_ps == want.path_delay_ps
    assert got.stage_delays_ps == want.stage_delays_ps
    assert got.stage_transitions_ps == want.stage_transitions_ps
    assert got.stage_map == want.stage_map
    assert np.array_equal(got.times_ps, want.times_ps)
    assert np.array_equal(got.input_volts, want.input_volts)
    assert np.array_equal(got.node_volts, want.node_volts)


def _mixed_batch(lib):
    """INV, NAND2, NOR3, composite AND2 and a 3-stage path, both edges."""
    cref = lib.cref
    batch = []
    for kind, edge in (
        (GateKind.INV, Edge.RISE),
        (GateKind.NAND2, Edge.FALL),
        (GateKind.NOR3, Edge.RISE),
        (GateKind.AND2, Edge.RISE),
        (GateKind.NOR3, Edge.FALL),
    ):
        path = make_path([GateKind.INV, kind], lib, cin_first_ff=2.0 * cref,
                         cterm_ff=18.0 * cref, input_edge=edge)
        batch.append((path, [path.cin_first_ff, 4.0 * cref]))
    three = make_path([GateKind.INV, GateKind.NAND2, GateKind.INV], lib,
                      cin_first_ff=2.0 * cref, cterm_ff=40.0 * cref)
    batch.append((three, [three.cin_first_ff, 4.0 * cref, 9.0 * cref]))
    batch.append((three, [three.cin_first_ff, 4.0 * cref, 15.0 * cref]))
    return batch


@pytest.mark.parametrize(
    "options",
    [
        SimOptions(n_steps=600),
        SimOptions(n_steps=300, input_transition_ps=0.0),
        SimOptions(n_steps=300, t_end_ps=400.0),
    ],
    ids=["ramp", "step", "fixed-window"],
)
def test_batch_equals_one_path_loop(lib, options):
    batch = _mixed_batch(lib)
    got = simulate_paths([p for p, _ in batch], [s for _, s in batch], lib, options)
    assert len(got) == len(batch)
    for result, (path, sizes) in zip(got, batch):
        _assert_identical(result, ref_simulate_path(path, sizes, lib, options))


def test_one_path_call(lib):
    path = make_path([GateKind.NAND2, GateKind.AND3], lib, cterm_ff=30.0 * lib.cref)
    options = SimOptions(n_steps=400)
    sizes = [path.cin_first_ff, 3.0 * lib.cref]
    _assert_identical(
        simulate_path(path, sizes, lib, options),
        ref_simulate_path(path, sizes, lib, options),
    )


def test_batch_validates_lengths(lib):
    path = make_path([GateKind.INV], lib)
    with pytest.raises(ValueError):
        simulate_paths([path, path], [[path.cin_first_ff]], lib)
