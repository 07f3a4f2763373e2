"""Bit-identity of the lockstep Flimit characterisation against the scalar search.

:mod:`repro.buffering.flimit` searches every (driver, gate) pair as one
numpy lane of a single bisection, each bisection step running one
golden-section search for the best buffer over all lanes.  The scalar
search it replaced -- a bisection on ``F`` over a golden-section search,
one pair at a time through ``path_delay_ps`` -- is kept below, verbatim
in its operation order, as the reference.  So is the simulated search
(Table 2's "Simulation" column): a grid scan and a bisection, one pair
and one transient at a time through ``simulate_path``.  Every comparison
is ``==``.
"""

import math
import os
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

import repro.spice.simulator as simulator
from repro.buffering.flimit import (
    _flimit_lanes,
    _flimit_simulated_lanes,
    characterize_library,
    flimit,
    flimit_simulated,
)
from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.liberty import library_from_lib
from repro.timing.delay_model import Edge
from repro.timing.evaluation import path_delay_ps
from repro.timing.path import make_path

SAMPLE_LIB = os.path.join(
    os.path.dirname(__file__), "..", "examples", "sample_nldm.lib"
)

# -- reference implementation: the scalar search, verbatim ---------------


def ref_two_stage_delay(
    library: Library,
    driver: GateKind,
    gate: GateKind,
    cin_gate_ff: float,
    cload_ff: float,
    input_edge: Edge,
) -> float:
    """Structure A delay: driver -> gate -> load."""
    path = make_path(
        [driver, gate],
        library,
        cin_first_ff=library.cref * 2.0,
        cterm_ff=cload_ff,
        input_edge=input_edge,
    )
    return path_delay_ps(path, [path.cin_first_ff, cin_gate_ff], library)


def ref_buffered_delay(
    library: Library,
    driver: GateKind,
    gate: GateKind,
    cin_gate_ff: float,
    cload_ff: float,
    input_edge: Edge,
    buffer_stages: int,
) -> float:
    """Structure B delay with the buffer optimally sized (golden search)."""
    kinds = [driver, gate] + [GateKind.INV] * buffer_stages
    path = make_path(
        kinds,
        library,
        cin_first_ff=library.cref * 2.0,
        cterm_ff=cload_ff,
        input_edge=input_edge,
    )
    inv_min = library.inverter.cin_min(library.tech)

    def delay_for(buffer_cins: Sequence[float]) -> float:
        sizes = [path.cin_first_ff, cin_gate_ff] + list(buffer_cins)
        return path_delay_ps(path, sizes, library)

    if buffer_stages == 1:
        lo, hi = inv_min, max(cload_ff * 2.0, inv_min * 4.0)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = delay_for([c]), delay_for([d])
        for _ in range(70):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = delay_for([c])
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = delay_for([d])
        best = 0.5 * (a + b)
        return delay_for([best])

    def taper_delay(first_cin: float) -> float:
        ratio = (cload_ff / first_cin) ** (1.0 / buffer_stages)
        cins = [first_cin * ratio**j for j in range(buffer_stages)]
        cins = [max(c, inv_min) for c in cins]
        return delay_for(cins)

    lo, hi = inv_min, max(cload_ff, inv_min * 4.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = taper_delay(c), taper_delay(d)
    for _ in range(70):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = taper_delay(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = taper_delay(d)
    return taper_delay(0.5 * (a + b))


def ref_flimit(
    library: Library,
    gate: GateKind,
    driver: GateKind = GateKind.INV,
    cin_gate_ff=None,
    buffer_stages: int = 1,
    input_edge: Edge = Edge.RISE,
    f_max: float = 400.0,
) -> float:
    if buffer_stages < 1:
        raise ValueError("buffer_stages must be >= 1")
    if cin_gate_ff is None:
        cin_gate_ff = 4.0 * library.cref

    def advantage(f: float) -> float:
        cload = f * cin_gate_ff
        t_a = ref_two_stage_delay(library, driver, gate, cin_gate_ff, cload, input_edge)
        t_b = ref_buffered_delay(
            library, driver, gate, cin_gate_ff, cload, input_edge, buffer_stages
        )
        return t_a - t_b

    lo, hi = 1.0, f_max
    if advantage(lo) > 0:
        return lo
    if advantage(hi) < 0:
        return math.inf
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if advantage(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def ref_flimit_simulated(
    library: Library,
    gate: GateKind,
    driver: GateKind = GateKind.INV,
    cin_gate_ff=None,
    input_edge: Edge = Edge.RISE,
    f_max: float = 60.0,
    n_grid: int = 10,
) -> float:
    from repro.spice.simulator import SimOptions, simulate_path

    if cin_gate_ff is None:
        cin_gate_ff = 4.0 * library.cref
    inv_min = library.inverter.cin_min(library.tech)
    options = SimOptions(n_steps=1500)

    def advantage(f: float) -> float:
        cload = f * cin_gate_ff
        path_a = make_path(
            [driver, gate],
            library,
            cin_first_ff=library.cref * 2.0,
            cterm_ff=cload,
            input_edge=input_edge,
        )
        t_a = simulate_path(
            path_a, [path_a.cin_first_ff, cin_gate_ff], library, options
        ).path_delay_ps
        path_b = make_path(
            [driver, gate, GateKind.INV],
            library,
            cin_first_ff=library.cref * 2.0,
            cterm_ff=cload,
            input_edge=input_edge,
        )
        base = max(math.sqrt(cin_gate_ff * cload), inv_min)
        t_b = min(
            simulate_path(
                path_b,
                [path_b.cin_first_ff, cin_gate_ff, max(scale * base, inv_min)],
                library,
                options,
            ).path_delay_ps
            for scale in (0.5, 0.75, 1.0, 1.5)
        )
        return t_a - t_b

    grid = np.linspace(1.5, f_max, n_grid)
    previous_f, previous_adv = grid[0], advantage(grid[0])
    if previous_adv > 0:
        return float(previous_f)
    for f in grid[1:]:
        adv = advantage(float(f))
        if adv > 0:
            lo, hi = previous_f, float(f)
            for _ in range(12):
                mid = 0.5 * (lo + hi)
                if advantage(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        previous_f, previous_adv = float(f), adv
    return math.inf


# -- comparisons ---------------------------------------------------------

#: A mixed lane set: simple, stacked, composite and complex cells.
MIXED = (
    GateKind.INV,
    GateKind.NAND3,
    GateKind.NOR2,
    GateKind.AND2,
    GateKind.XOR2,
    GateKind.AOI21,
)


def _lanes(lib, gates, driver=GateKind.INV, **kwargs):
    options = dict(cin_gate_ff=4.0 * lib.cref, buffer_stages=1,
                   input_edge=Edge.RISE, f_max=400.0)
    options.update(kwargs)
    return _flimit_lanes(
        lib,
        [(driver, gate) for gate in gates],
        options["cin_gate_ff"],
        options["buffer_stages"],
        options["input_edge"],
        options["f_max"],
    )


def test_default_table_all_kinds(lib):
    kinds = tuple(cell.kind for cell in lib)
    assert len(kinds) == 20
    entries = characterize_library(lib, gates=kinds)
    assert [(e.driver, e.gate) for e in entries] == [(GateKind.INV, k) for k in kinds]
    for entry in entries:
        assert entry.computed == ref_flimit(lib, entry.gate), entry.gate
        assert entry.simulated is None


def test_several_drivers(lib):
    drivers = (GateKind.INV, GateKind.NAND2, GateKind.NOR3)
    gates = (GateKind.INV, GateKind.NAND2, GateKind.NOR3, GateKind.OR2)
    entries = characterize_library(lib, gates=gates, drivers=drivers)
    assert len(entries) == len(drivers) * len(gates)
    for entry in entries:
        assert entry.computed == ref_flimit(lib, entry.gate, entry.driver)


def test_falling_input(lib):
    got = _lanes(lib, MIXED, input_edge=Edge.FALL)
    assert got == [ref_flimit(lib, g, input_edge=Edge.FALL) for g in MIXED]


def test_buffer_pairs_taper(lib):
    gates = (GateKind.INV, GateKind.NAND2, GateKind.NOR3)
    entries = characterize_library(lib, gates=gates, buffer_stages=2)
    assert [e.computed for e in entries] == [
        ref_flimit(lib, g, buffer_stages=2) for g in gates
    ]


def test_other_gate_size(lib):
    cin = 2.0 * lib.cref
    got = _lanes(lib, MIXED, cin_gate_ff=cin)
    assert got == [ref_flimit(lib, g, cin_gate_ff=cin) for g in MIXED]


def test_buffer_never_wins_below_f_max(lib):
    got = _lanes(lib, MIXED, f_max=2.0)
    assert got == [math.inf] * len(MIXED)
    assert got == [ref_flimit(lib, g, f_max=2.0) for g in MIXED]


def test_one_lane_calls(lib):
    for gate in (GateKind.NAND2, GateKind.OAI22):
        assert flimit(lib, gate, driver=GateKind.NOR2) == ref_flimit(
            lib, gate, driver=GateKind.NOR2
        )


def test_nldm_lanes():
    """Non-analytic backends time each lane through ``path_delay_ps``."""
    nldm = library_from_lib(SAMPLE_LIB)
    gates = (GateKind.INV, GateKind.NAND2, GateKind.NOR3)
    entries = characterize_library(nldm, gates=gates)
    assert [e.computed for e in entries] == [ref_flimit(nldm, g) for g in gates]


@pytest.mark.parametrize("cin", [0.0, -1.0])
def test_nonpositive_gate_size_rejected(lib, cin):
    with pytest.raises(ValueError):
        flimit(lib, GateKind.INV, cin_gate_ff=cin)


def test_zero_buffer_stages_rejected(lib):
    with pytest.raises(ValueError):
        flimit(lib, GateKind.INV, buffer_stages=0)
    with pytest.raises(ValueError):
        characterize_library(lib, gates=(GateKind.INV,), buffer_stages=0)


# -- the simulated search ------------------------------------------------

#: Unbuffered-structure offsets (ps) of the stand-in transient engine: a
#: large one makes the buffer win at the first grid point, a negative one
#: keeps it losing up to ``f_max``; other gates bisect.
_STRUCTURE_A_OFFSET_PS = {GateKind.XOR2: 1.0e4, GateKind.AOI21: -1.0e4}


@pytest.fixture
def stand_in_engine(lib, monkeypatch):
    """Closed-form delays in place of transients: the searches' bookkeeping
    (grid scan, brackets, lanes) is what these tests compare, and the
    transients themselves are ``tests/test_simulator_reference.py``'s.
    Records every simulated ``(kinds, sizes, load)`` point.
    """
    calls = []

    def delay(path, sizes, library):
        kinds = tuple(stage.cell.kind for stage in path.stages)
        calls.append((kinds, tuple(sizes), path.cterm_ff))
        offset = 0.0
        if len(kinds) == 2:
            offset = _STRUCTURE_A_OFFSET_PS.get(kinds[1], 0.0)
        return SimpleNamespace(
            path_delay_ps=path_delay_ps(path, sizes, library) + offset
        )

    def one(path, sizes, library, options=None):
        return delay(path, sizes, library)

    def batch(paths, sizes, library, options=None):
        return [delay(path, s, library) for path, s in zip(paths, sizes)]

    monkeypatch.setattr(simulator, "simulate_path", one)
    monkeypatch.setattr(simulator, "simulate_paths", batch)
    return calls


def test_simulated_lanes_equal_scalar_search(lib, stand_in_engine):
    pairs = [
        (driver, gate) for driver in (GateKind.INV, GateKind.NOR2) for gate in MIXED
    ]
    got = _flimit_simulated_lanes(lib, pairs, 4.0 * lib.cref, Edge.RISE, 60.0, 10)
    lane_points = sorted(stand_in_engine)
    stand_in_engine.clear()
    want = [ref_flimit_simulated(lib, gate, driver) for driver, gate in pairs]
    assert got == want
    # Every branch of the scan: first grid point, bisected, never.
    assert got[MIXED.index(GateKind.XOR2)] == 1.5
    assert got[MIXED.index(GateKind.AOI21)] == math.inf
    assert all(1.5 < value < 60.0 for value in got[:3])
    # Each lane simulates exactly the points its own search does.
    assert lane_points == sorted(stand_in_engine)


def test_simulated_one_lane_and_table(lib, stand_in_engine):
    for options in ({}, {"input_edge": Edge.FALL, "f_max": 20.0, "n_grid": 4},
                    {"cin_gate_ff": 2.0 * lib.cref}):
        assert flimit_simulated(lib, GateKind.NAND3, **options) == ref_flimit_simulated(
            lib, GateKind.NAND3, **options
        )
    entries = characterize_library(lib, gates=MIXED, with_simulation=True)
    assert [e.simulated for e in entries] == [
        ref_flimit_simulated(lib, gate) for gate in MIXED
    ]
