"""Reference optimizers built on scipy -- ground truth for the tests.

Test-only: scipy is a ``dev``/``test`` extra, not a runtime dependency
of the ``repro`` package, so this module lives with the tests that use
it (``tests/test_reference.py``).

The eq. 4 / eq. 6 engines are fast *because* they exploit the model's
structure.  To certify them, this module solves the same problems with a
general-purpose numerical optimizer (L-BFGS-B over log-sizes, exact
gradients):

* :func:`reference_minimum_delay` -- the unconstrained Tmin problem;
* :func:`reference_min_area_for_delay` -- minimum ``sum W`` subject to
  ``T <= Tc``, via an exact-penalty formulation.

They are one to two orders of magnitude slower than the closed-form
engines and exist purely as an independent check (and as the honest
answer to "how much does the specialised solver actually buy?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from repro.cells.library import Library
from repro.timing.evaluation import (
    delay_gradient,
    path_area_um,
    path_delay_ps,
)
from repro.timing.path import BoundedPath


@dataclass(frozen=True)
class ReferenceResult:
    """Outcome of a scipy reference solve."""

    delay_ps: float
    area_um: float
    sizes: np.ndarray
    n_evaluations: int
    converged: bool


def _bounds_and_start(
    path: BoundedPath, library: Library, start: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    mins = path.min_sizes(library)
    if start is None:
        start = mins * 4.0
        start[0] = path.cin_first_ff
    return mins, path.clamp_sizes(start, library)


def reference_minimum_delay(
    path: BoundedPath,
    library: Library,
    start_sizes: Optional[np.ndarray] = None,
    max_size_mult: float = 1e4,
) -> ReferenceResult:
    """Tmin by L-BFGS-B over log-sizes with exact gradients."""
    n = len(path)
    mins, start = _bounds_and_start(path, library, start_sizes)
    evaluations = 0

    if n == 1:
        delay = path_delay_ps(path, mins, library)
        return ReferenceResult(delay, path_area_um(path, mins, library),
                               mins, 1, True)

    # Optimize interior stages in log space (the problem is convex in the
    # sizes and smooth in the logs; bounds keep us in the model's domain).
    def unpack(theta: np.ndarray) -> np.ndarray:
        sizes = np.empty(n)
        sizes[0] = path.cin_first_ff
        sizes[1:] = np.exp(theta)
        return sizes

    def objective(theta: np.ndarray):
        nonlocal evaluations
        evaluations += 1
        sizes = unpack(theta)
        value = path_delay_ps(path, sizes, library)
        grad = delay_gradient(path, sizes, library)[1:] * sizes[1:]
        return value, grad

    theta0 = np.log(start[1:])
    bounds = [
        (np.log(mins[i]), np.log(mins[i] * max_size_mult)) for i in range(1, n)
    ]
    result = optimize.minimize(
        objective, theta0, jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-12},
    )
    sizes = unpack(result.x)
    return ReferenceResult(
        delay_ps=path_delay_ps(path, sizes, library),
        area_um=path_area_um(path, sizes, library),
        sizes=sizes,
        n_evaluations=evaluations,
        converged=bool(result.success),
    )


def reference_min_area_for_delay(
    path: BoundedPath,
    library: Library,
    tc_ps: float,
    penalty_per_ps: float = 1e4,
    start_sizes: Optional[np.ndarray] = None,
    max_size_mult: float = 1e4,
) -> ReferenceResult:
    """Minimum ``sum W`` subject to ``T <= Tc`` (exact penalty + L-BFGS-B).

    The constraint is folded in as ``area + penalty * max(0, T - Tc)^2``;
    with a stiff penalty the optimum sits on the constraint boundary, like
    the constant-sensitivity solution it certifies.
    """
    if tc_ps <= 0:
        raise ValueError("tc_ps must be positive")
    n = len(path)
    mins, start = _bounds_and_start(path, library, start_sizes)
    tech = library.tech
    area_weight = np.array(
        [
            stage.cell.area_factor * stage.cell.n_inputs / tech.c_gate_ff_per_um
            for stage in path.stages
        ]
    )
    evaluations = 0

    def unpack(theta: np.ndarray) -> np.ndarray:
        sizes = np.empty(n)
        sizes[0] = path.cin_first_ff
        sizes[1:] = np.exp(theta)
        return sizes

    def objective(theta: np.ndarray):
        nonlocal evaluations
        evaluations += 1
        sizes = unpack(theta)
        delay = path_delay_ps(path, sizes, library)
        area = float(np.dot(area_weight, sizes))
        violation = max(0.0, delay - tc_ps)
        value = area + penalty_per_ps * violation**2
        grad_area = area_weight[1:]
        grad = grad_area.copy()
        if violation > 0:
            grad_delay = delay_gradient(path, sizes, library)[1:]
            grad = grad + 2.0 * penalty_per_ps * violation * grad_delay
        return value, grad * sizes[1:]

    theta0 = np.log(start[1:]) if n > 1 else np.zeros(0)
    if n == 1:
        delay = path_delay_ps(path, mins, library)
        return ReferenceResult(delay, path_area_um(path, mins, library),
                               mins, 1, delay <= tc_ps)
    bounds = [
        (np.log(mins[i]), np.log(mins[i] * max_size_mult)) for i in range(1, n)
    ]
    result = optimize.minimize(
        objective, theta0, jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": 800, "ftol": 1e-15, "gtol": 1e-12},
    )
    sizes = unpack(result.x)
    delay = path_delay_ps(path, sizes, library)
    return ReferenceResult(
        delay_ps=delay,
        area_um=path_area_um(path, sizes, library),
        sizes=sizes,
        n_evaluations=evaluations,
        converged=bool(result.success) and delay <= tc_ps * (1 + 1e-4),
    )
