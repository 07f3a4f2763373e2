"""Constant sensitivity sizing (section 3.2, eqs. 5-6, Figs. 3-4).

The paper's constraint-distribution method: instead of equalising stage
delays (Sutherland), impose the *same sensitivity* on every free gate::

    dT / dC_IN(i) = a        for all interior i            (eq. 5)

``a = 0`` recovers the unconstrained minimum ``Tmin``; sweeping ``a``
towards large negative values walks the delay/area trade-off curve down to
the minimum-area (all-CREF) corner.  Each ``a`` is solved by the eq. 6
link equations (Gauss-Seidel with recomputed coefficients); the delay
constraint ``Tc`` is then met by bisection on ``a`` -- a handful of cheap
fixed-point solves, which is where the two-orders-of-magnitude CPU-time
advantage over iterative industrial sizers comes from (Table 1).

Two weighting modes are provided:

* ``"uniform"``  -- the paper's method, minimum total input capacitance;
* ``"area"``     -- KKT-exact minimum ``sum W`` (sensitivities scaled by
  each stage's width-per-capacitance), an ablation the benches compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.cells.library import Library
from repro.netlist.circuit import Circuit
from repro.sizing.bounds import (
    _link_equation_sweep,
    _min_sizes,
    max_delay_bound,
    min_delay_bound,
)
from repro.timing.evaluation import (
    _sized_delay,
    delay_gradient,
    path_area_um,
    path_delay_ps,
)
from repro.timing.incremental import IncrementalSta
from repro.timing.path import BoundedPath

_WEIGHT_MODES = ("uniform", "area")


@dataclass(frozen=True)
class SensitivitySolution:
    """Sizing solving ``dT/dC_IN(i) = a`` on a path."""

    a: float
    sizes: np.ndarray
    delay_ps: float
    area_um: float
    iterations: int


@dataclass(frozen=True)
class ConstraintResult:
    """Outcome of distributing a delay constraint ``Tc`` on a path.

    Attributes
    ----------
    feasible:
        Whether sizing alone can reach ``tc_ps`` (i.e. ``Tc >= Tmin``).
    achieved_delay_ps:
        Path delay of the returned sizing (<= ``tc_ps`` when feasible).
    a:
        The sensitivity coefficient realising the constraint.
    tmin_ps / tmax_ps:
        The path's delay window, computed on the way.
    solver_evaluations:
        Number of fixed-point solves spent by the bisection (cost metric
        for the Table 1 comparison).
    """

    feasible: bool
    tc_ps: float
    achieved_delay_ps: float
    sizes: np.ndarray
    area_um: float
    a: float
    tmin_ps: float
    tmax_ps: float
    solver_evaluations: int

    @property
    def slack_ps(self) -> float:
        """Constraint slack (positive when met)."""
        return self.tc_ps - self.achieved_delay_ps


def _area_weights(path: BoundedPath, library: Library) -> np.ndarray:
    """``dA/dC_IN(i)`` per stage, normalised to the inverter's weight."""
    tech = library.tech
    weights = np.array(
        [
            stage.cell.area_factor * stage.cell.n_inputs / tech.c_gate_ff_per_um
            for stage in path.stages
        ]
    )
    inv_weight = 1.0 / tech.c_gate_ff_per_um
    return weights / inv_weight


def solve_sensitivity(
    path: BoundedPath,
    library: Library,
    a: float,
    weight_mode: str = "uniform",
    start_sizes: Optional[np.ndarray] = None,
    max_iterations: int = 150,
    tol_ps: float = 1e-6,
    frozen: Optional[np.ndarray] = None,
) -> SensitivitySolution:
    """Solve the eq. 6 link equations for sensitivity ``a`` (ps/fF).

    ``a`` must be non-positive: positive sensitivities are past the delay
    minimum and never optimal.  ``frozen`` stages keep their ``start_sizes``
    value (local buffering mode).
    """
    if a > 0:
        raise ValueError(f"sensitivity a must be <= 0, got {a}")
    if weight_mode not in _WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {_WEIGHT_MODES}")
    weights = _area_weights(path, library).tolist() if weight_mode == "area" else None

    if start_sizes is None:
        xs = _min_sizes(path, library)
    else:
        xs = path.clamp_sizes(start_sizes, library).tolist()
    delay = _sized_delay(path, xs, library)
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        xs = _link_equation_sweep(
            path, xs, library, sensitivity=a, area_weights=weights, frozen=frozen
        )
        xs[0] = path.cin_first_ff
        new_delay = _sized_delay(path, xs, library)
        if abs(new_delay - delay) < tol_ps:
            delay = new_delay
            break
        delay = new_delay
    sizes = np.array(xs)
    return SensitivitySolution(
        a=a,
        sizes=sizes,
        delay_ps=delay,
        area_um=path_area_um(path, sizes, library),
        iterations=iterations,
    )


def sensitivity_sweep(
    path: BoundedPath,
    library: Library,
    a_values: np.ndarray,
    weight_mode: str = "uniform",
) -> List[SensitivitySolution]:
    """Design-space exploration: one solution per ``a`` (Fig. 3 series).

    Solutions are warm-started from the previous point for speed.
    """
    solutions: List[SensitivitySolution] = []
    start: Optional[np.ndarray] = None
    for a in a_values:
        sol = solve_sensitivity(
            path, library, float(a), weight_mode=weight_mode, start_sizes=start
        )
        solutions.append(sol)
        start = sol.sizes
    return solutions


def _most_negative_useful_a(
    path: BoundedPath, library: Library
) -> float:
    """A lower bracket for the bisection on ``a``.

    At the all-minimum sizing every free gate is as small as it can get;
    the most negative gradient component there bounds any realisable
    uniform sensitivity.
    """
    sizes = path.min_sizes(library)
    grad = delay_gradient(path, sizes, library)
    interior = grad[1:] if len(grad) > 1 else grad
    lower = float(np.min(interior)) if interior.size else -1.0
    return min(lower * 2.0, -1e-6)


def circuit_gate_sensitivities(
    circuit: Circuit,
    library: Library,
    gates: Optional[Iterable[str]] = None,
    rel_step: float = 1e-3,
    engine: Optional[IncrementalSta] = None,
) -> Dict[str, float]:
    """Critical-delay sensitivity ``dT_crit/dC_IN`` per gate (ps/fF).

    The circuit-level analogue of :func:`~repro.timing.evaluation.
    delay_gradient`: each gate is perturbed by a central difference and
    the circuit is re-timed by the warm-started
    :class:`~repro.timing.incremental.IncrementalSta` -- two cone
    re-timings per gate, not two full analyses (the Table 1 CPU-time
    story, applied to sensitivity analysis).

    A caller-supplied ``engine`` (already tracking ``circuit``) is used
    in place and left on the unperturbed sizing.  Gates outside the
    critical cone report 0.0.
    """
    if rel_step <= 0:
        raise ValueError(f"rel_step must be positive, got {rel_step}")
    if engine is None:
        engine = IncrementalSta(circuit, library)
    elif engine.circuit is not circuit:
        raise ValueError("engine must track the probed circuit")
    names = list(gates) if gates is not None else list(circuit.gates)
    base_sizes = engine.sizes()
    sensitivities: Dict[str, float] = {}
    for name in names:
        gate = circuit.gate(name)
        original = gate.cin_ff
        base = original if original is not None else base_sizes[name]
        h = max(abs(base) * rel_step, 1e-9)
        gate.cin_ff = base + h
        up = engine.update((name,)).critical_delay_ps
        gate.cin_ff = base - h
        down = engine.update((name,)).critical_delay_ps
        gate.cin_ff = original
        engine.update((name,))
        sensitivities[name] = (up - down) / (2.0 * h)
    return sensitivities


def distribute_constraint(
    path: BoundedPath,
    library: Library,
    tc_ps: float,
    weight_mode: str = "uniform",
    max_bisection: int = 60,
    tol_ps: float = 1e-3,
    frozen: Optional[np.ndarray] = None,
    frozen_sizes: Optional[np.ndarray] = None,
) -> ConstraintResult:
    """Meet a delay constraint at minimum area (the paper's core routine).

    Bisects the monotone map ``a -> T(a)`` between ``a = 0`` (``Tmin``)
    and a lower bracket where the path collapses to minimum drives
    (``Tmax``).  Returns an infeasible result carrying ``Tmin`` when
    ``tc_ps < Tmin`` -- the caller (the protocol driver) then switches to
    buffer insertion or structure modification, per Fig. 7.
    """
    if tc_ps <= 0:
        raise ValueError(f"tc_ps must be positive, got {tc_ps}")
    if (frozen is None) != (frozen_sizes is None):
        raise ValueError("frozen and frozen_sizes must be supplied together")
    if frozen is None:
        tmax, sizes_min_area = max_delay_bound(path, library)
        tmin, sizes_tmin, _, _ = min_delay_bound(path, library)
    else:
        sizes_min_area = path.min_sizes(library)
        sizes_min_area = np.where(frozen, frozen_sizes, sizes_min_area)
        sizes_min_area[0] = path.cin_first_ff
        tmax = path_delay_ps(path, sizes_min_area, library)
        tmin, sizes_tmin, _, _ = min_delay_bound(
            path, library, start_sizes=frozen_sizes, frozen=frozen
        )
    evaluations = 2

    if tc_ps < tmin:
        return ConstraintResult(
            feasible=False,
            tc_ps=tc_ps,
            achieved_delay_ps=tmin,
            sizes=sizes_tmin,
            area_um=path_area_um(path, sizes_tmin, library),
            a=0.0,
            tmin_ps=tmin,
            tmax_ps=tmax,
            solver_evaluations=evaluations,
        )
    if tc_ps >= tmax:
        # The minimum-area corner already satisfies the constraint.
        return ConstraintResult(
            feasible=True,
            tc_ps=tc_ps,
            achieved_delay_ps=tmax,
            sizes=sizes_min_area,
            area_um=path_area_um(path, sizes_min_area, library),
            a=_most_negative_useful_a(path, library),
            tmin_ps=tmin,
            tmax_ps=tmax,
            solver_evaluations=evaluations,
        )

    start_base = frozen_sizes if frozen is not None else None
    a_hi = 0.0  # delay = tmin
    a_lo = _most_negative_useful_a(path, library)
    sol_lo = solve_sensitivity(
        path, library, a_lo, weight_mode=weight_mode,
        start_sizes=start_base, frozen=frozen,
    )
    evaluations += 1
    # Widen the bracket until the low end is slower than the constraint.
    widenings = 0
    while sol_lo.delay_ps < tc_ps and widenings < 40:
        a_lo *= 4.0
        sol_lo = solve_sensitivity(
            path, library, a_lo, weight_mode=weight_mode,
            start_sizes=start_base, frozen=frozen,
        )
        evaluations += 1
        widenings += 1

    best: Optional[SensitivitySolution] = None
    start = sol_lo.sizes
    for _ in range(max_bisection):
        a_mid = 0.5 * (a_lo + a_hi)
        sol = solve_sensitivity(
            path, library, a_mid, weight_mode=weight_mode, start_sizes=start,
            frozen=frozen,
        )
        evaluations += 1
        start = sol.sizes
        if sol.delay_ps <= tc_ps:
            # Meets timing: try to relax further (more negative a).
            best = sol
            a_hi = a_mid
        else:
            a_lo = a_mid
        if abs(sol.delay_ps - tc_ps) < tol_ps:
            if sol.delay_ps <= tc_ps:
                best = sol
            break

    if best is None:
        # Fall back to the timing-optimal corner (always feasible here).
        best = solve_sensitivity(
            path, library, 0.0, weight_mode=weight_mode,
            start_sizes=start_base, frozen=frozen,
        )
        evaluations += 1
    return ConstraintResult(
        feasible=True,
        tc_ps=tc_ps,
        achieved_delay_ps=best.delay_ps,
        sizes=best.sizes,
        area_um=best.area_um,
        a=best.a,
        tmin_ps=tmin,
        tmax_ps=tmax,
        solver_evaluations=evaluations,
    )
