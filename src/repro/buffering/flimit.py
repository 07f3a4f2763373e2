"""The load buffer-insertion limit ``Flimit`` (section 4.1, Table 2).

For the Fig. 5 configuration -- gate ``(i-1)`` driving gate ``(i)`` driving
a terminal load ``C_L`` -- ``Flimit`` is the fan-out value ``F = C_L /
C_IN(i)`` above which interposing an optimally-sized buffer between ``(i)``
and the load (structure B) beats driving the load directly (structure A).
Gates ``(i-1)`` and ``(i)`` keep their sizes; only the buffer is sized
(local insertion).

``Flimit`` is a pure *gate efficiency* metric: the weaker the gate's
drive per unit of input capacitance (large logical weight -- NOR worst),
the earlier a buffer pays off, hence the Table 2 ordering
``inv > nand2 > nand3 > nor2 > nor3``.  The library characterisation step
of the protocol (Fig. 7) tabulates it for every driver/gate pair once,
then uses it to flag critical nodes.

The tabulation runs every pair as one lane of a lockstep search: each
bisection step on ``F`` is one golden-section search for the best
buffer over all lanes at once (:class:`~repro.timing.evaluation.PathLanes`),
and the simulated column sends each search step's transients to
:func:`~repro.spice.simulator.simulate_paths` as one batch.  Each lane
equals the scalar search of its own pair bit for bit; that scalar search
is kept as the reference in ``tests/test_flimit_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.timing.delay_model import Edge
from repro.timing.evaluation import PathLanes
from repro.timing.path import BoundedPath, make_path


@dataclass(frozen=True)
class FlimitEntry:
    """One characterised (driver, gate) pair.

    Attributes
    ----------
    computed:
        ``Flimit`` from the closed-form model (Table 2 "Calcul." column).
    simulated:
        ``Flimit`` re-derived with the transistor-level simulator
        (Table 2 "Simulation" column); ``None`` until requested.
    """

    driver: GateKind
    gate: GateKind
    computed: float
    simulated: Optional[float] = None


#: Golden-section ratio of the buffer-size search.
_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Gate ``(i)``'s input capacitance, in units of ``CREF``, when the
#: caller gives none.
_GATE_CIN_CREFS = 4.0

#: Switching edge at the driver's input.
_INPUT_EDGE = Edge.RISE

#: Largest fan-out the closed-form search tries.
_F_MAX = 400.0

#: Largest fan-out, and number of grid points, of the simulated search.
_F_MAX_SIMULATED = 60.0
_N_GRID_SIMULATED = 10

#: Buffer sizes the simulated structure B tries, as multiples of the
#: geometric-mean rule (a fixed sqrt-sized buffer systematically
#: understates the B structure and inflates the measured limit).
_SIM_BUFFER_SCALES = (0.5, 0.75, 1.0, 1.5)


def _golden_lanes(
    delay_of: Callable[[np.ndarray], np.ndarray], lo: float, hi: np.ndarray
) -> np.ndarray:
    """Per-lane 70-step golden-section minimum of ``delay_of`` on ``[lo, hi]``.

    Returns ``delay_of`` at each lane's final bracket midpoint.  Every
    lane takes the branch its own comparison picks, so it follows the
    points a scalar search would visit.
    """
    a = np.full(hi.shape, lo)
    b = hi
    step = _PHI * (b - a)
    c = b - step
    d = a + step
    fc, fd = delay_of(c), delay_of(d)
    for _ in range(70):
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        step = _PHI * (b - a)
        x = np.where(left, b - step, a + step)
        fx = delay_of(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return delay_of(0.5 * (a + b))


def _flimit_lanes(
    library: Library,
    pairs: Sequence[Tuple[GateKind, GateKind]],
    cin_gate_ff: float,
    buffer_stages: int,
    input_edge: Edge,
    f_max: float,
) -> List[float]:
    """``Flimit`` of every (driver, gate) pair, searched in lockstep.

    Each pair is one lane of :class:`~repro.timing.evaluation.PathLanes`:
    each bisection step on ``F`` runs one golden-section search for the
    best buffer over all lanes at once.  A lane's values are those of a
    scalar search of its own pair, bit for bit.
    """
    if buffer_stages < 1:
        raise ValueError("buffer_stages must be >= 1")
    if cin_gate_ff <= 0:
        raise ValueError("cin_gate_ff must be positive")
    if f_max < 0:
        raise ValueError("f_max must be non-negative")
    cin_first = library.cref * 2.0
    inv_min = library.inverter.cin_min(library.tech)
    plain = PathLanes(
        [
            make_path([driver, gate], library, cin_first_ff=cin_first,
                      input_edge=input_edge)
            for driver, gate in pairs
        ],
        library,
    )
    buffered = PathLanes(
        [
            make_path([driver, gate] + [GateKind.INV] * buffer_stages, library,
                      cin_first_ff=cin_first, input_edge=input_edge)
            for driver, gate in pairs
        ],
        library,
    )

    def advantage(f: np.ndarray) -> np.ndarray:
        """Structure A minus best structure B delay: positive when the buffer helps."""
        cload = f * cin_gate_ff
        t_a = plain.delays([cin_first, cin_gate_ff], cload)
        if buffer_stages == 1:
            t_b = _golden_lanes(
                lambda x: buffered.delays([cin_first, cin_gate_ff, x], cload),
                inv_min,
                np.maximum(cload * 2.0, inv_min * 4.0),
            )
        else:
            # Multi-stage buffer: geometric taper parameterised by the
            # first stage, searched on the taper base.  The taper keeps
            # Python-float ``**`` (libm): numpy's vectorised power may
            # round differently in the last bit.
            loads = cload.tolist()

            def taper_delay(first_cin: np.ndarray) -> np.ndarray:
                starts = first_cin.tolist()
                ratios = [
                    (load / start) ** (1.0 / buffer_stages)
                    for load, start in zip(loads, starts)
                ]
                stages = [
                    np.array([
                        max(start * ratio**j, inv_min)
                        for start, ratio in zip(starts, ratios)
                    ])
                    for j in range(buffer_stages)
                ]
                return buffered.delays([cin_first, cin_gate_ff] + stages, cload)

            t_b = _golden_lanes(
                taper_delay, inv_min, np.maximum(cload, inv_min * 4.0)
            )
        return t_a - t_b

    lo = np.full(len(pairs), 1.0)
    hi = np.full(len(pairs), float(f_max))
    helps_at_lo = advantage(lo) > 0
    never_helps = advantage(hi) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        helps = advantage(mid) > 0
        hi = np.where(helps, mid, hi)
        lo = np.where(helps, lo, mid)
    limits = np.where(never_helps, math.inf, 0.5 * (lo + hi))
    return np.where(helps_at_lo, 1.0, limits).tolist()


def flimit(
    library: Library,
    gate: GateKind,
    driver: GateKind = GateKind.INV,
    cin_gate_ff: Optional[float] = None,
    buffer_stages: int = 1,
    input_edge: Edge = _INPUT_EDGE,
    f_max: float = _F_MAX,
) -> float:
    """Compute ``Flimit`` for ``gate`` controlled by ``driver``.

    Bisection on ``F``: below the limit structure A (no buffer) is faster,
    above it structure B (optimal buffer) wins.  ``buffer_stages = 1`` is
    the paper's local metric; 2 characterises polarity-preserving pairs.
    Returns ``inf`` when the buffer never wins before ``f_max``.  This is
    one lane of the lockstep search :func:`characterize_library` runs.
    """
    if cin_gate_ff is None:
        cin_gate_ff = _GATE_CIN_CREFS * library.cref
    return _flimit_lanes(
        library, [(driver, gate)], cin_gate_ff, buffer_stages, input_edge, f_max
    )[0]


def _flimit_simulated_lanes(
    library: Library,
    pairs: Sequence[Tuple[GateKind, GateKind]],
    cin_gate_ff: float,
    input_edge: Edge,
    f_max: float,
    n_grid: int,
) -> List[float]:
    """Simulated ``Flimit`` of every pair; each search step is one batch.

    Each grid point of the lanes still scanning, then each bisection
    step's midpoints, go to :func:`~repro.spice.simulator.simulate_paths`
    as one batch.  A lane simulates exactly the points a search of its
    own pair would, and its values are that search's, bit for bit.
    """
    from repro.spice.simulator import SimOptions, simulate_paths

    cin_first = library.cref * 2.0
    inv_min = library.inverter.cin_min(library.tech)
    options = SimOptions(n_steps=1500)

    def advantages(points: Sequence[Tuple[int, float]]) -> List[float]:
        """``t_A - t_B`` at each ``(lane, F)`` point, all transients in one batch."""
        paths: List[BoundedPath] = []
        sizes: List[List[float]] = []
        for lane, f in points:
            driver, gate = pairs[lane]
            cload = f * cin_gate_ff
            paths.append(make_path([driver, gate], library, cin_first_ff=cin_first,
                                   cterm_ff=cload, input_edge=input_edge))
            sizes.append([cin_first, cin_gate_ff])
            buffered = make_path([driver, gate, GateKind.INV], library,
                                 cin_first_ff=cin_first, cterm_ff=cload,
                                 input_edge=input_edge)
            base = max(math.sqrt(cin_gate_ff * cload), inv_min)
            for scale in _SIM_BUFFER_SCALES:
                paths.append(buffered)
                sizes.append([cin_first, cin_gate_ff, max(scale * base, inv_min)])
        results = simulate_paths(paths, sizes, library, options)
        delays = [r.path_delay_ps for r in results]
        width = 1 + len(_SIM_BUFFER_SCALES)
        return [
            delays[i] - min(delays[i + 1 : i + width])
            for i in range(0, len(delays), width)
        ]

    grid = [float(f) for f in np.linspace(1.5, f_max, n_grid)]
    limits = [math.inf] * len(pairs)
    brackets: Dict[int, List[float]] = {}
    # A lane scans the grid until its first positive advantage.
    scanning = list(range(len(pairs)))
    for k, f in enumerate(grid):
        if not scanning:
            break
        still = []
        for lane, adv in zip(scanning, advantages([(lane, f) for lane in scanning])):
            if not adv > 0:
                still.append(lane)
            elif k == 0:
                limits[lane] = f
            else:
                brackets[lane] = [grid[k - 1], f]
        scanning = still
    for _ in range(12):
        mids = {lane: 0.5 * (lo + hi) for lane, (lo, hi) in brackets.items()}
        for lane, adv in zip(mids, advantages(list(mids.items()))):
            brackets[lane][1 if adv > 0 else 0] = mids[lane]
    for lane, (lo, hi) in brackets.items():
        limits[lane] = 0.5 * (lo + hi)
    return limits


def flimit_simulated(
    library: Library,
    gate: GateKind,
    driver: GateKind = GateKind.INV,
    cin_gate_ff: Optional[float] = None,
    input_edge: Edge = _INPUT_EDGE,
    f_max: float = _F_MAX_SIMULATED,
    n_grid: int = _N_GRID_SIMULATED,
) -> float:
    """``Flimit`` re-derived with the transistor-level simulator.

    The Table 2 "Simulation" column.  A coarse grid + local bisection keeps
    the transient count manageable; the buffer is sized by the square-root
    rule (geometric mean of the gate drive and the load), bracketed by a
    few scales, rather than by a full golden search per transient.
    """
    if cin_gate_ff is None:
        cin_gate_ff = _GATE_CIN_CREFS * library.cref
    return _flimit_simulated_lanes(
        library, [(driver, gate)], cin_gate_ff, input_edge, f_max, n_grid
    )[0]


#: The gate set of the paper's Table 2.
TABLE2_GATES = (
    GateKind.INV,
    GateKind.NAND2,
    GateKind.NAND3,
    GateKind.NOR2,
    GateKind.NOR3,
)


def characterize_library(
    library: Library,
    gates: Sequence[GateKind] = TABLE2_GATES,
    drivers: Sequence[GateKind] = (GateKind.INV,),
    with_simulation: bool = False,
    buffer_stages: int = 1,
) -> List[FlimitEntry]:
    """Tabulate ``Flimit`` for every (driver, gate) pair (Fig. 7, step 1).

    All pairs are searched in lockstep, one lane each; every entry equals
    the one :func:`flimit` (and :func:`flimit_simulated`) computes for
    its pair alone.
    """
    pairs = [(driver, gate) for driver in drivers for gate in gates]
    if not pairs:
        return []
    cin_gate_ff = _GATE_CIN_CREFS * library.cref
    computed = _flimit_lanes(
        library, pairs, cin_gate_ff, buffer_stages, _INPUT_EDGE, _F_MAX
    )
    simulated: Sequence[Optional[float]] = (
        _flimit_simulated_lanes(
            library, pairs, cin_gate_ff, _INPUT_EDGE, _F_MAX_SIMULATED,
            _N_GRID_SIMULATED,
        )
        if with_simulation
        else [None] * len(pairs)
    )
    return [
        FlimitEntry(driver=driver, gate=gate, computed=value, simulated=sim)
        for (driver, gate), value, sim in zip(pairs, computed, simulated)
    ]


def flimit_lookup(entries: Sequence[FlimitEntry]) -> Dict[Tuple[GateKind, GateKind], float]:
    """(driver, gate) -> computed Flimit mapping for the insertion engine."""
    return {(e.driver, e.gate): e.computed for e in entries}
