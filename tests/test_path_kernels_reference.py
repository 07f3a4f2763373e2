"""Bit-identity of the float-list path kernels against the numpy-scalar loops.

The analytic eq. 1/4/6 kernels (:mod:`repro.timing.evaluation`) and the
fixed-point loops built on them (:mod:`repro.sizing.bounds`,
:mod:`repro.sizing.sensitivity`) run on plain Python floats.  They used
to index ``np.ndarray`` sizing vectors one element at a time; those
loops are kept below, verbatim in their operation order, as the
reference implementations.  Every comparison is ``==`` -- not approx:
IEEE-754 doubles give the same result for the same operations in the
same order, whether numpy scalars or Python floats carry them
(``x ** 2`` included, which both evaluate through ``pow``).

Inputs: the critical path of every CORE circuit, randomized sizings,
and a non-zero path input transition.
"""

from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro.iscas.loader import load_benchmark
from repro.sizing.bounds import (
    BoundsHistoryPoint,
    _DEFAULT_MAX_ITERATIONS,
    _DEFAULT_TOL_PS,
    _link_equation_sweep,
    min_delay_bound,
)
from repro.sizing.sensitivity import (
    _area_weights,
    distribute_constraint,
    solve_sensitivity,
)
from repro.timing.critical_paths import critical_path
from repro.timing.evaluation import (
    _constants,
    delay_gradient,
    effective_a_coeffs,
    evaluate_path,
    path_area_um,
    path_delay_ps,
)
from repro.timing.path import BoundedPath

from test_mc import CORE_CIRCUITS

# -- reference implementations: the numpy-scalar loops, verbatim -------


def ref_check_sizes(path: BoundedPath, sizes: Sequence[float]) -> np.ndarray:
    arr = np.asarray(sizes, dtype=float).copy()
    if arr.shape != (len(path),):
        raise ValueError(f"expected {len(path)} sizes, got shape {arr.shape}")
    if np.any(arr <= 0):
        raise ValueError("all sizes must be positive")
    arr[0] = path.cin_first_ff
    return arr


def ref_evaluate_path(path, sizes, library):
    arr = ref_check_sizes(path, sizes)
    k = _constants(path, library.tech)
    n = len(path)
    delays = []
    touts = []
    loads_total = []
    tin = path.tin_first_ps
    for i in range(n):
        c = arr[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        cl = k.p[i] * c + k.cside[i] + downstream
        tout = k.s_tau[i] * cl / c
        cm = k.m[i] * c
        coupling = 1.0 + 2.0 * cm / (cm + cl)
        delays.append(0.5 * k.vt[i] * tin + 0.5 * coupling * tout)
        touts.append(tout)
        loads_total.append(cl)
        tin = tout
    return float(sum(delays)), tuple(delays), tuple(touts), tuple(loads_total)


def ref_path_delay_ps(path, sizes, library):
    arr = ref_check_sizes(path, sizes)
    k = _constants(path, library.tech)
    n = len(path)
    total = 0.0
    tin = path.tin_first_ps
    for i in range(n):
        c = arr[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        cl = k.p[i] * c + k.cside[i] + downstream
        tout = k.s_tau[i] * cl / c
        cm = k.m[i] * c
        total += 0.5 * k.vt[i] * tin + 0.5 * (1.0 + 2.0 * cm / (cm + cl)) * tout
        tin = tout
    return total


def ref_effective_a_coeffs(path, sizes, library):
    arr = np.asarray(sizes, dtype=float)
    k = _constants(path, library.tech)
    n = len(path)
    coeffs = np.empty(n)
    for i in range(n):
        c = arr[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        cl = k.p[i] * c + k.cside[i] + downstream
        cm = k.m[i] * c
        weight = 0.5 * (1.0 + 2.0 * cm / (cm + cl))
        if i + 1 < n:
            weight += 0.5 * k.vt[i + 1]
        coeffs[i] = weight * k.s_tau[i]
    return coeffs


def ref_delay_gradient(path, sizes, library):
    arr = ref_check_sizes(path, sizes)
    k = _constants(path, library.tech)
    n = len(path)
    cl = np.empty(n)
    tout = np.empty(n)
    cm = np.empty(n)
    kf = np.empty(n)
    for i in range(n):
        c = arr[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        cl[i] = k.p[i] * c + k.cside[i] + downstream
        tout[i] = k.s_tau[i] * cl[i] / c
        cm[i] = k.m[i] * c
        kf[i] = 1.0 + 2.0 * cm[i] / (cm[i] + cl[i])
    w = 0.5 * kf.copy()
    w[: n - 1] += 0.5 * np.asarray(k.vt[1:])
    grad = np.zeros(n)
    for j in range(1, n):
        c = arr[j]
        denominator = (cm[j] + cl[j]) ** 2
        ext_j = cl[j] - k.p[j] * c
        dtout_j = -k.s_tau[j] * ext_j / c**2
        dk_j = (2.0 * cl[j] * k.m[j] - 2.0 * cm[j] * k.p[j]) / denominator
        value = w[j] * dtout_j + 0.5 * tout[j] * dk_j
        i = j - 1
        dtout_i = k.s_tau[i] / arr[i]
        dk_i = -2.0 * cm[i] / (cm[i] + cl[i]) ** 2
        value += w[i] * dtout_i + 0.5 * tout[i] * dk_i
        grad[j] = value
    return grad


def ref_link_equation_sweep(
    path, sizes, library, sensitivity=0.0, area_weights=None, frozen=None
):
    n = len(path)
    out = sizes.copy()
    coeffs = ref_effective_a_coeffs(path, out, library)
    for i in range(1, n):
        if frozen is not None and frozen[i]:
            continue
        ext_i = path.stages[i].cside_ff + (out[i + 1] if i + 1 < n else path.cterm_ff)
        w_i = 1.0 if area_weights is None else area_weights[i]
        denominator = coeffs[i - 1] / out[i - 1] - sensitivity * w_i
        if denominator <= 0:
            out[i] = path.stages[i].cell.cin_min(library.tech)
            continue
        target_sq = coeffs[i] * ext_i / denominator
        out[i] = max(np.sqrt(target_sq), path.stages[i].cell.cin_min(library.tech))
    return out


def ref_projected_gradient_polish(
    path, sizes, library, max_steps=60, tol_ps=1e-4, frozen=None
):
    current = path.clamp_sizes(sizes, library)
    t_current = ref_path_delay_ps(path, current, library)
    step = 1.0
    for _ in range(max_steps):
        grad = ref_delay_gradient(path, current, library)
        if frozen is not None:
            grad = np.where(frozen, 0.0, grad)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-9:
            break
        improved = False
        while step > 1e-6:
            candidate = path.clamp_sizes(current - step * grad, library)
            t_candidate = ref_path_delay_ps(path, candidate, library)
            if t_candidate < t_current - 1e-12:
                current, t_current = candidate, t_candidate
                improved = True
                step *= 1.3
                break
            step *= 0.5
        if not improved or abs(norm) * step < tol_ps:
            break
    return current


def ref_min_delay_bound(
    path,
    library,
    cref_ff=None,
    max_iterations=_DEFAULT_MAX_ITERATIONS,
    tol_ps=_DEFAULT_TOL_PS,
    polish=True,
    start_sizes=None,
    frozen=None,
):
    if cref_ff is None:
        cref_ff = library.cref
    n = len(path)
    cref_lib = library.cref
    if start_sizes is not None:
        sizes = path.clamp_sizes(start_sizes, library)
    else:
        sizes = path.min_sizes(library)
        coeffs = ref_effective_a_coeffs(path, sizes, library)
        for i in range(n - 1, 0, -1):
            ext_i = path.stages[i].cside_ff + (
                sizes[i + 1] if i + 1 < n else path.cterm_ff
            )
            target_sq = (coeffs[i] / coeffs[i - 1]) * cref_ff * ext_i
            sizes[i] = max(
                np.sqrt(target_sq), path.stages[i].cell.cin_min(library.tech)
            )
        sizes[0] = path.cin_first_ff
    history: List[BoundsHistoryPoint] = []
    delay = ref_path_delay_ps(path, sizes, library)
    history.append(BoundsHistoryPoint(0, float(sizes.sum() / cref_lib), delay))
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        sizes = ref_link_equation_sweep(path, sizes, library, 0.0, frozen=frozen)
        sizes[0] = path.cin_first_ff
        new_delay = ref_path_delay_ps(path, sizes, library)
        history.append(
            BoundsHistoryPoint(iteration, float(sizes.sum() / cref_lib), new_delay)
        )
        if abs(new_delay - delay) < tol_ps:
            delay = new_delay
            break
        delay = new_delay
    if polish and n > 1:
        sizes = ref_projected_gradient_polish(path, sizes, library, frozen=frozen)
        delay = ref_path_delay_ps(path, sizes, library)
        history.append(
            BoundsHistoryPoint(iterations + 1, float(sizes.sum() / cref_lib), delay)
        )
    return delay, sizes, history, iterations


def ref_solve_sensitivity(
    path,
    library,
    a,
    weight_mode="uniform",
    start_sizes=None,
    max_iterations=150,
    tol_ps=1e-6,
    frozen=None,
):
    weights = _area_weights(path, library) if weight_mode == "area" else None
    if start_sizes is None:
        sizes = path.min_sizes(library)
    else:
        sizes = path.clamp_sizes(start_sizes, library)
    delay = ref_path_delay_ps(path, sizes, library)
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        sizes = ref_link_equation_sweep(
            path, sizes, library, sensitivity=a, area_weights=weights, frozen=frozen
        )
        sizes[0] = path.cin_first_ff
        new_delay = ref_path_delay_ps(path, sizes, library)
        if abs(new_delay - delay) < tol_ps:
            delay = new_delay
            break
        delay = new_delay
    return sizes, delay, path_area_um(path, sizes, library), iterations


def ref_most_negative_useful_a(path, library):
    grad = ref_delay_gradient(path, path.min_sizes(library), library)
    interior = grad[1:] if len(grad) > 1 else grad
    lower = float(np.min(interior)) if interior.size else -1.0
    return min(lower * 2.0, -1e-6)


def ref_distribute_constraint(
    path,
    library,
    tc_ps,
    weight_mode="uniform",
    max_bisection=60,
    tol_ps=1e-3,
    frozen=None,
    frozen_sizes=None,
):
    """The bisection on ``a``; returns the ``ConstraintResult`` fields as a dict."""
    if frozen is None:
        sizes_min_area = path.min_sizes(library)
        tmax = ref_path_delay_ps(path, sizes_min_area, library)
        tmin, sizes_tmin, _, _ = ref_min_delay_bound(path, library)
    else:
        sizes_min_area = np.where(frozen, frozen_sizes, path.min_sizes(library))
        sizes_min_area[0] = path.cin_first_ff
        tmax = ref_path_delay_ps(path, sizes_min_area, library)
        tmin, sizes_tmin, _, _ = ref_min_delay_bound(
            path, library, start_sizes=frozen_sizes, frozen=frozen
        )
    evaluations = 2

    def result(feasible, delay, sizes, a, area=None):
        if area is None:
            area = path_area_um(path, sizes, library)
        return dict(
            feasible=feasible, achieved_delay_ps=delay, sizes=sizes, area_um=area,
            a=a, tmin_ps=tmin, tmax_ps=tmax, solver_evaluations=evaluations,
        )

    if tc_ps < tmin:
        return result(False, tmin, sizes_tmin, 0.0)
    if tc_ps >= tmax:
        return result(
            True, tmax, sizes_min_area, ref_most_negative_useful_a(path, library)
        )

    def solve(a, start):
        return ref_solve_sensitivity(
            path, library, a, weight_mode=weight_mode, start_sizes=start,
            frozen=frozen,
        )

    start_base = frozen_sizes if frozen is not None else None
    a_hi = 0.0
    a_lo = ref_most_negative_useful_a(path, library)
    sol_lo = solve(a_lo, start_base)
    evaluations += 1
    widenings = 0
    while sol_lo[1] < tc_ps and widenings < 40:
        a_lo *= 4.0
        sol_lo = solve(a_lo, start_base)
        evaluations += 1
        widenings += 1
    best: Optional[tuple] = None
    start = sol_lo[0]
    for _ in range(max_bisection):
        a_mid = 0.5 * (a_lo + a_hi)
        sol = solve(a_mid, start) + (a_mid,)
        evaluations += 1
        start = sol[0]
        if sol[1] <= tc_ps:
            best = sol
            a_hi = a_mid
        else:
            a_lo = a_mid
        if abs(sol[1] - tc_ps) < tol_ps:
            if sol[1] <= tc_ps:
                best = sol
            break
    if best is None:
        best = solve(0.0, start_base) + (0.0,)
        evaluations += 1
    return result(True, best[1], best[0], best[4], area=best[2])


# -- inputs -------------------------------------------------------------


@pytest.fixture(scope="module")
def core_paths(lib):
    """name -> critical path of every CORE circuit at minimum sizing."""
    return {name: critical_path(load_benchmark(name), lib).path for name in CORE_CIRCUITS}


#: Random sizings per path variant in the kernel comparisons.
RANDOM_SIZINGS = 40


def _random_sizes(path, lib, rng):
    """A random sizing between 1x and 8x each stage's minimum drive."""
    floors = path.min_sizes(lib)
    return path.clamp_sizes(floors * rng.uniform(1.0, 8.0, len(path)), lib)


def _variants(path):
    """The path as extracted, and with a 35 ps input transition."""
    return (path, replace(path, tin_first_ps=35.0))


def _same_array(new, ref):
    new = np.asarray(new)
    assert new.shape == ref.shape
    assert new.tolist() == ref.tolist()


# -- eq. 1 evaluation, coefficients and gradient ------------------------


@pytest.mark.parametrize("name", CORE_CIRCUITS)
def test_evaluation_kernels_bit_identical(name, core_paths, lib):
    rng = np.random.default_rng(sum(map(ord, name)))
    for path in _variants(core_paths[name]):
        # Many sizings: a changed expression form (``x ** 2`` -> ``x * x``)
        # differs in the last bit for only about 1 input in 1000.
        sizings = [path.min_sizes(lib)] + [
            _random_sizes(path, lib, rng) for _ in range(RANDOM_SIZINGS)
        ]
        # A tampered first drive must still be pinned identically.
        tampered = sizings[-1].copy()
        tampered[0] *= 3.0
        for sizes in sizings + [tampered]:
            assert path_delay_ps(path, sizes, lib) == ref_path_delay_ps(path, sizes, lib)
            # Lists are accepted the same way as arrays.
            assert path_delay_ps(path, list(sizes), lib) == ref_path_delay_ps(
                path, sizes, lib
            )
            timing = evaluate_path(path, sizes, lib)
            total, delays, touts, loads = ref_evaluate_path(path, sizes, lib)
            assert timing.total_delay_ps == total
            assert timing.total_delay_ps == path_delay_ps(path, sizes, lib)
            assert timing.stage_delays_ps == delays
            assert timing.stage_tout_ps == touts
            assert timing.stage_loads_ff == loads
            _same_array(
                effective_a_coeffs(path, sizes, lib),
                ref_effective_a_coeffs(path, sizes, lib),
            )
            _same_array(
                delay_gradient(path, sizes, lib), ref_delay_gradient(path, sizes, lib)
            )


# -- eq. 4 / eq. 6 link sweep -------------------------------------------


@pytest.mark.parametrize("name", CORE_CIRCUITS)
def test_link_equation_sweep_bit_identical(name, core_paths, lib):
    rng = np.random.default_rng(7 + len(name))
    for path in _variants(core_paths[name]):
        weights = _area_weights(path, lib)
        frozen = rng.uniform(size=len(path)) < 0.3
        for sizes in (path.min_sizes(lib), _random_sizes(path, lib, rng)):
            for a in (0.0, -0.05, -3.0, -1e3):
                cases = [
                    dict(),
                    dict(area_weights=weights),
                    dict(frozen=frozen),
                    dict(area_weights=weights, frozen=frozen),
                ]
                for kwargs in cases:
                    ref = ref_link_equation_sweep(path, sizes, lib, a, **kwargs)
                    new = _link_equation_sweep(path, sizes.tolist(), lib, a, **kwargs)
                    _same_array(new, ref)


# -- full solvers ---------------------------------------------------------


@pytest.mark.parametrize("name", CORE_CIRCUITS)
def test_min_delay_bound_bit_identical(name, core_paths, lib):
    for path in _variants(core_paths[name]):
        tmin, sizes, history, iterations = min_delay_bound(path, lib)
        r_tmin, r_sizes, r_history, r_iterations = ref_min_delay_bound(path, lib)
        assert tmin == r_tmin
        _same_array(sizes, r_sizes)
        assert history == r_history
        assert iterations == r_iterations


@pytest.mark.parametrize("name", CORE_CIRCUITS)
def test_frozen_min_delay_bound_bit_identical(name, core_paths, lib):
    """The local buffering mode: a random start with some stages frozen."""
    rng = np.random.default_rng(3 * len(name))
    path = core_paths[name]
    start = _random_sizes(path, lib, rng)
    frozen = rng.uniform(size=len(path)) < 0.5
    got = min_delay_bound(path, lib, start_sizes=start, frozen=frozen)
    ref = ref_min_delay_bound(path, lib, start_sizes=start, frozen=frozen)
    assert got[0] == ref[0]
    _same_array(got[1], ref[1])
    assert got[2:] == ref[2:]


@pytest.mark.parametrize("name", CORE_CIRCUITS)
def test_solve_sensitivity_bit_identical(name, core_paths, lib):
    rng = np.random.default_rng(11 * len(name))
    for path in _variants(core_paths[name]):
        start = _random_sizes(path, lib, rng)
        for a, mode, start_sizes in (
            (0.0, "uniform", None),
            (-0.2, "uniform", None),
            (-0.2, "area", start),
            (-5.0, "uniform", start),
        ):
            sol = solve_sensitivity(path, lib, a, weight_mode=mode, start_sizes=start_sizes)
            sizes, delay, area, iterations = ref_solve_sensitivity(
                path, lib, a, weight_mode=mode, start_sizes=start_sizes
            )
            _same_array(sol.sizes, sizes)
            assert (sol.delay_ps, sol.area_um, sol.iterations) == (delay, area, iterations)


def _assert_same_result(got, ref):
    _same_array(got.sizes, ref.pop("sizes"))
    assert {name: getattr(got, name) for name in ref} == ref


@pytest.mark.parametrize("name", CORE_CIRCUITS)
def test_distribute_constraint_bit_identical(name, core_paths, lib):
    for path in _variants(core_paths[name]):
        tmin = ref_min_delay_bound(path, lib)[0]
        tmax = ref_path_delay_ps(path, path.min_sizes(lib), lib)
        # Infeasible, interior (both weight modes) and above Tmax.
        for tc, mode in (
            (0.9 * tmin, "uniform"),
            (1.3 * tmin, "uniform"),
            (1.3 * tmin, "area"),
            (1.1 * tmax, "uniform"),
        ):
            _assert_same_result(
                distribute_constraint(path, lib, tc, weight_mode=mode),
                ref_distribute_constraint(path, lib, tc, weight_mode=mode),
            )


@pytest.mark.parametrize("name", ("c432", "c1908", "c7552"))
def test_frozen_distribute_constraint_bit_identical(name, core_paths, lib):
    rng = np.random.default_rng(5)
    path = core_paths[name]
    frozen_sizes = _random_sizes(path, lib, rng)
    frozen = rng.uniform(size=len(path)) < 0.5
    tmin = ref_min_delay_bound(path, lib, start_sizes=frozen_sizes, frozen=frozen)[0]
    got = distribute_constraint(
        path, lib, 1.2 * tmin, frozen=frozen, frozen_sizes=frozen_sizes
    )
    ref = ref_distribute_constraint(
        path, lib, 1.2 * tmin, frozen=frozen, frozen_sizes=frozen_sizes
    )
    _assert_same_result(got, ref)
