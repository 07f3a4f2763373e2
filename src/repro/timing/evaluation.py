"""Path delay evaluation, analytic coefficients and gradients.

This module turns a :class:`~repro.timing.path.BoundedPath` plus a sizing
vector into the quantities every optimizer consumes:

* the total path delay and per-stage breakdown (:func:`evaluate_path`);
* the *effective* eq. 4 coefficients ``A_i`` (:func:`effective_a_coeffs`),
  i.e. the weight of the ``load / C_IN`` term of each stage once the
  slope contribution to the *next* stage and the coupling factor are
  folded in;
* the exact gradient ``dT/dC_IN`` (:func:`delay_gradient`) -- closed-form,
  O(n), including the Miller-factor derivatives the eq. 4 surrogate
  drops; a central-difference fallback
  (:func:`delay_gradient_numeric`) cross-checks it in the tests;
* the area metric ``sum W`` (:func:`path_area_um`).

Because the optimizers evaluate paths tens of thousands of times, the
per-stage model constants (symmetry factors, thresholds, coupling and
parasitic coefficients, minimum drives -- all functions of the
*structure*, not the sizing) are computed once per (path, technology)
pair and cached on the path.

The analytic kernels run on plain Python floats: a sizing vector is
checked and converted once (``tolist()``), and each stage loop performs
the same operations in the same order as the numpy-scalar loops it
replaced, so results are bit-identical to them
(``tests/test_path_kernels_reference.py`` keeps those loops as the
reference and compares with ``==``).  :func:`evaluate_path` accumulates
the same running total as :func:`path_delay_ps`, so the two agree
exactly.  The private ``_sized_*`` and ``_a_coeffs`` entry points take
an already-pinned float list; the eq. 4/6 fixed-point loops of
:mod:`repro.sizing` call them so a solve never round-trips through
numpy.  Non-analytic backends keep their generic per-stage chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.cells.library import Library
from repro.process.technology import Technology
from repro.timing.backend import AnalyticBackend, DelayBackend
from repro.timing.delay_model import Edge, output_edge_for
from repro.timing.path import BoundedPath


@dataclass(frozen=True)
class PathTiming:
    """Detailed timing of a sized path.

    Attributes
    ----------
    total_delay_ps:
        Sum of stage delays -- the path delay the paper constrains.
    stage_delays_ps / stage_tout_ps:
        Per-stage eq. 1 delays and eq. 2 output transitions.
    stage_loads_ff:
        Total load (parasitic + side + next C_IN or terminal) per stage.
    edges:
        Switching-input polarity per stage.
    """

    total_delay_ps: float
    stage_delays_ps: Tuple[float, ...]
    stage_tout_ps: Tuple[float, ...]
    stage_loads_ff: Tuple[float, ...]
    edges: Tuple[Edge, ...]


@dataclass(frozen=True)
class _PathConstants:
    """Structure-only model constants of one (path, technology) pair.

    ``s`` -- per-stage eq. 2 symmetry factor times tau;
    ``vt`` -- per-stage reduced threshold of the switching input edge;
    ``m`` -- coupling capacitance per unit of input capacitance;
    ``p`` -- parasitic (junction) capacitance per unit of input cap;
    ``cside`` -- fixed off-path load per stage;
    ``edges`` -- input edge per stage;
    ``floors`` -- minimum available drive per stage (the eq. 4/6 floor).
    """

    s_tau: Tuple[float, ...]
    vt: Tuple[float, ...]
    m: Tuple[float, ...]
    p: Tuple[float, ...]
    cside: Tuple[float, ...]
    edges: Tuple[Edge, ...]
    floors: Tuple[float, ...]


def _constants(path: BoundedPath, tech: Technology) -> _PathConstants:
    """Model constants of ``(path, tech)``, cached on the path instance.

    The previous ``lru_cache`` keyed on the full ``BoundedPath`` value,
    deep-hashing every stage's cell dataclass on *every* delay
    evaluation -- measurably the hottest non-numeric cost of the eq. 4/6
    inner loops.  A single per-instance slot (paths are immutable, and
    the sizing machinery evaluates one path object millions of times
    against one technology) replaces the hash with an identity check;
    the stored technology reference keeps the key object alive, so the
    identity can never be recycled while the entry exists.
    """
    entry = path.__dict__.get("_constants_entry")
    if entry is not None and entry[0] is tech:
        return entry[1]
    constants = _build_constants(path, tech)
    object.__setattr__(path, "_constants_entry", (tech, constants))
    return constants


def _build_constants(path: BoundedPath, tech: Technology) -> _PathConstants:
    s_tau = []
    vt = []
    m = []
    p = []
    cside = []
    edges = []
    edge = path.input_edge
    for stage in path.stages:
        cell = stage.cell
        out_edge = output_edge_for(cell, edge)
        s = cell.s_hl(tech) if out_edge is Edge.FALL else cell.s_lh(tech)
        s_tau.append(s * tech.tau_ps)
        vt.append(tech.vtn_reduced if edge is Edge.RISE else tech.vtp_reduced)
        m.append(cell.coupling_cap(1.0, input_rising=edge is Edge.RISE))
        p.append(cell.p_intrinsic)
        cside.append(stage.cside_ff)
        edges.append(edge)
        edge = out_edge
    return _PathConstants(
        s_tau=tuple(s_tau),
        vt=tuple(vt),
        m=tuple(m),
        p=tuple(p),
        cside=tuple(cside),
        edges=tuple(edges),
        floors=tuple(stage.cell.cin_min(tech) for stage in path.stages),
    )


def _check_sizes(path: BoundedPath, sizes: Sequence[float]) -> List[float]:
    """``sizes`` as a float list: shape and sign checked, ``[0]`` pinned."""
    arr = np.asarray(sizes, dtype=float)
    if arr.shape != (len(path),):
        raise ValueError(f"expected {len(path)} sizes, got shape {arr.shape}")
    xs = arr.tolist()
    if min(xs) <= 0:
        raise ValueError("all sizes must be positive")
    xs[0] = path.cin_first_ff
    return xs


def stage_external_loads(path: BoundedPath, sizes: np.ndarray) -> np.ndarray:
    """External (non-parasitic) load of each stage for a sizing vector."""
    n = len(path)
    loads = np.empty(n)
    for i in range(n):
        downstream = sizes[i + 1] if i + 1 < n else path.cterm_ff
        loads[i] = path.stages[i].cside_ff + downstream
    return loads


def evaluate_path(path: BoundedPath, sizes: Sequence[float], library: Library) -> PathTiming:
    """Evaluate the eq. 1 delay of ``path`` under ``sizes``.

    ``sizes[0]`` is forced to the path's fixed first drive; interior sizes
    are used as given (callers clamp to CREF beforehand when needed).

    Non-analytic backends take the generic chain (one scalar
    :meth:`~repro.timing.backend.DelayBackend.gate_timing` call per
    stage); the analytic loop below is float for float the same
    arithmetic as :func:`path_delay_ps`, and its total is the same
    running sum.
    """
    xs = _check_sizes(path, sizes)
    backend = library.delay_backend
    if not isinstance(backend, AnalyticBackend):
        return _backend_evaluate_path(path, np.array(xs), library, backend)
    k = _constants(path, library.tech)

    delays = []
    touts = []
    loads_total = []
    total = 0.0
    tin = path.tin_first_ps
    for c, downstream, p, cside, s_tau, m, vt in zip(
        xs, xs[1:] + [path.cterm_ff], k.p, k.cside, k.s_tau, k.m, k.vt
    ):
        cl = p * c + cside + downstream
        tout = s_tau * cl / c
        cm = m * c
        coupling = 1.0 + 2.0 * cm / (cm + cl)
        delay = 0.5 * vt * tin + 0.5 * coupling * tout
        total += delay
        delays.append(delay)
        touts.append(tout)
        loads_total.append(cl)
        tin = tout
    return PathTiming(
        total_delay_ps=total,
        stage_delays_ps=tuple(delays),
        stage_tout_ps=tuple(touts),
        stage_loads_ff=tuple(loads_total),
        edges=k.edges,
    )


def path_delay_ps(path: BoundedPath, sizes: Sequence[float], library: Library) -> float:
    """Total path delay (ps) -- the optimizers' hot loop."""
    return _sized_delay(path, _check_sizes(path, sizes), library)


def _sized_delay(path: BoundedPath, xs: List[float], library: Library) -> float:
    """:func:`path_delay_ps` of a float list whose ``[0]`` is already pinned.

    The eq. 4/6 fixed-point loops keep their sizing as a list and call
    this directly; it keeps the public function's sign check.
    """
    if min(xs) <= 0:
        raise ValueError("all sizes must be positive")
    backend = library.delay_backend
    if not isinstance(backend, AnalyticBackend):
        return _backend_path_delay(path, np.array(xs), library, backend)
    k = _constants(path, library.tech)
    return _chain_delay(
        xs, path.cterm_ff, path.tin_first_ps, k.p, k.cside, k.s_tau, k.m, k.vt
    )


def _chain_delay(xs, cterm, tin, p, cside, s_tau, m, vt):
    """Eq. 1 total of a stage chain: the one loop behind every analytic delay.

    Called with floats by :func:`_sized_delay` and with one numpy array
    per stage (a value per lane, or one float shared by every lane) by
    :class:`PathLanes`.  The loop uses only ``+ - * /``, which numpy
    rounds element by element exactly as Python rounds floats, so each
    lane equals the scalar call bit for bit.
    """
    total = 0.0
    for c, downstream, p_i, cside_i, s_tau_i, m_i, vt_i in zip(
        xs, xs[1:] + [cterm], p, cside, s_tau, m, vt
    ):
        cl = p_i * c + cside_i + downstream
        tout = s_tau_i * cl / c
        cm = m_i * c
        total += 0.5 * vt_i * tin + 0.5 * (1.0 + 2.0 * cm / (cm + cl)) * tout
        tin = tout
    return total


class PathLanes:
    """Equal-length paths timed together, one numpy lane per path.

    :meth:`delays` returns, lane for lane, :func:`path_delay_ps` of
    ``paths[l].with_terminal_load(cterm_ff[l])`` at the sizes
    ``[s[l] for s in sizes]``, bit for bit.  Analytic lanes run
    :func:`_chain_delay` on arrays; other backends time their lanes one
    at a time through :func:`path_delay_ps`.  The Flimit characterisation
    (:mod:`repro.buffering.flimit`) searches all of its gate pairs as
    lanes of one bisection.
    """

    def __init__(self, paths: Sequence[BoundedPath], library: Library) -> None:
        self.paths = tuple(paths)
        self.library = library
        if len({len(path) for path in self.paths}) != 1:
            raise ValueError("lanes need one or more paths of equal length")
        self._analytic = isinstance(library.delay_backend, AnalyticBackend)
        self._loads: List[float] = []
        self._terminal: List[BoundedPath] = []
        if self._analytic:
            ks = [_constants(path, library.tech) for path in self.paths]
            self._columns = tuple(
                tuple(
                    _lane_column(stage)
                    for stage in zip(*(getattr(k, name) for k in ks))
                )
                for name in ("p", "cside", "s_tau", "m", "vt")
            )
            self._cin_first = _lane_column([path.cin_first_ff for path in self.paths])
            self._tin = _lane_column([path.tin_first_ps for path in self.paths])

    def delays(
        self, sizes: Sequence[Union[float, np.ndarray]], cterm_ff: np.ndarray
    ) -> np.ndarray:
        """Each lane's total path delay (ps), shape ``(lanes,)``.

        ``sizes[i]`` is stage ``i``'s input capacitance: one value per
        lane, or one float for every lane.  Stage 0 is pinned to each
        path's ``cin_first_ff``, as in :func:`path_delay_ps`.  Sizes must
        be positive.
        """
        if self._analytic:
            xs = [self._cin_first] + list(sizes[1:])
            return _chain_delay(xs, cterm_ff, self._tin, *self._columns)
        loads = cterm_ff.tolist()
        if loads != self._loads:
            # A search evaluates many sizings under one set of loads.
            self._loads = loads
            self._terminal = [
                path.with_terminal_load(load) for path, load in zip(self.paths, loads)
            ]
        columns = [
            s.tolist() if isinstance(s, np.ndarray) else [s] * len(loads) for s in sizes
        ]
        return np.array([
            path_delay_ps(path, [column[lane] for column in columns], self.library)
            for lane, path in enumerate(self._terminal)
        ])


def _lane_column(values: Sequence[float]) -> Union[float, np.ndarray]:
    """Per-lane constants as an array, or one float when every lane has the same bits.

    A float operand broadcasts to the same element-wise arithmetic at a
    fraction of an array operation's cost.
    """
    if len({float(v).hex() for v in values}) == 1:
        return float(values[0])
    return np.array(values, dtype=float)


def _backend_evaluate_path(
    path: BoundedPath, arr: np.ndarray, library: Library, backend: DelayBackend
) -> PathTiming:
    """Generic backend chain behind :func:`evaluate_path`.

    Walks the path stage by stage through the backend's scalar kernel,
    threading the output transition and polarity of each stage into the
    next -- exactly the arc chaining :func:`~repro.timing.sta.analyze`
    performs on a linear circuit, so path and circuit views of the same
    chain agree for every backend.
    """
    tech = library.tech
    n = len(path)
    delays: List[float] = []
    touts: List[float] = []
    loads_total: List[float] = []
    edges: List[Edge] = []
    # A running total, as in :func:`_backend_path_delay`: builtin ``sum``
    # of floats is compensated from Python 3.12 and would differ.
    total = 0.0
    tin = path.tin_first_ps
    edge = path.input_edge
    for i in range(n):
        stage = path.stages[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        ext = stage.cside_ff + downstream
        timing = backend.gate_timing(
            stage.cell, tech, float(arr[i]), float(ext), tin, edge
        )
        total += timing.delay_ps
        delays.append(timing.delay_ps)
        touts.append(timing.tout_ps)
        loads_total.append(stage.cell.parasitic_cap(float(arr[i])) + float(ext))
        edges.append(edge)
        tin = timing.tout_ps
        edge = timing.output_edge
    return PathTiming(
        total_delay_ps=float(total),
        stage_delays_ps=tuple(delays),
        stage_tout_ps=tuple(touts),
        stage_loads_ff=tuple(loads_total),
        edges=tuple(edges),
    )


def _backend_path_delay(
    path: BoundedPath, arr: np.ndarray, library: Library, backend: DelayBackend
) -> float:
    """Total-delay-only variant of :func:`_backend_evaluate_path`."""
    tech = library.tech
    n = len(path)
    total = 0.0
    tin = path.tin_first_ps
    edge = path.input_edge
    for i in range(n):
        stage = path.stages[i]
        downstream = arr[i + 1] if i + 1 < n else path.cterm_ff
        timing = backend.gate_timing(
            stage.cell,
            tech,
            float(arr[i]),
            float(stage.cside_ff + downstream),
            tin,
            edge,
        )
        total += timing.delay_ps
        tin = timing.tout_ps
        edge = timing.output_edge
    return total


def path_area_um(path: BoundedPath, sizes: Sequence[float], library: Library) -> float:
    """Area metric ``sum W`` (um) of the sized path (paper's Figs. 4/8)."""
    arr = np.asarray(sizes, dtype=float)
    if arr.shape != (len(path),):
        raise ValueError(f"expected {len(path)} sizes, got shape {arr.shape}")
    return float(
        sum(
            stage.cell.total_width_um(c, library.tech)
            for stage, c in zip(path.stages, arr)
        )
    )


def effective_a_coeffs(
    path: BoundedPath, sizes: np.ndarray, library: Library
) -> np.ndarray:
    """Effective eq. 4 coefficients ``A_i`` at the current sizing point.

    Writing the path delay as ``T = sum_i A_i * C_L_total(i) / C_IN(i)``
    (plus the fixed input-slope term), the coefficient of stage ``i``
    collects its own coupling factor and the slope contribution of its
    output transition to stage ``i+1``::

        A_i = (K_i / 2 + v_T(i+1) / 2) * S_i * tau

    The ``A_i`` depend (weakly) on the sizing through ``K_i``; the eq. 4 /
    eq. 6 solvers therefore recompute them every sweep (Gauss-Seidel).

    Analytic-model-only: the coefficients *are* eq. 1-3 quantities, so
    there is nothing to evaluate for a table backend.  Callers gate on
    ``library.delay_backend.capabilities.closed_form_bounds`` and fall
    back to the numeric link sweep of :mod:`repro.sizing.bounds`.
    """
    xs = np.asarray(sizes, dtype=float).tolist()
    return np.array(_a_coeffs(path, xs, library))


def _a_coeffs(path: BoundedPath, xs: List[float], library: Library) -> List[float]:
    """:func:`effective_a_coeffs` of a float list, as a list."""
    k = _constants(path, library.tech)
    p, cside, m, vt, s_tau = k.p, k.cside, k.m, k.vt, k.s_tau
    n = len(path)
    coeffs = []
    for i in range(n):
        c = xs[i]
        downstream = xs[i + 1] if i + 1 < n else path.cterm_ff
        cl = p[i] * c + cside[i] + downstream
        cm = m[i] * c
        weight = 0.5 * (1.0 + 2.0 * cm / (cm + cl))
        if i + 1 < n:
            weight += 0.5 * vt[i + 1]
        coeffs.append(weight * s_tau[i])
    return coeffs


def delay_gradient(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
) -> np.ndarray:
    """Exact closed-form gradient ``dT/dC_IN(i)`` in ps/fF, O(n).

    Includes every dependency of eq. 1 on the sizes: the load and drive
    terms of the transition times, the downstream slope contribution and
    the Miller coupling factor's own derivatives.  Component 0 is 0: the
    first drive is a fixed boundary condition, not a free variable.

    The closed form differentiates eq. 1-3, so non-analytic backends
    dispatch to the central-difference fallback (which itself routes
    every evaluation through the backend's scalar kernel).
    """
    return np.array(_sized_gradient(path, _check_sizes(path, sizes), library))


def _sized_gradient(
    path: BoundedPath, xs: List[float], library: Library
) -> List[float]:
    """:func:`delay_gradient` of a pinned float list, as a list."""
    if min(xs) <= 0:
        raise ValueError("all sizes must be positive")
    if not isinstance(library.delay_backend, AnalyticBackend):
        return delay_gradient_numeric(path, xs, library).tolist()
    k = _constants(path, library.tech)
    p, cside, m, vt, s_tau = k.p, k.cside, k.m, k.vt, k.s_tau
    n = len(path)

    # Forward quantities.
    cl = []
    tout = []
    cm = []
    w = []  # weight of tout_i in T: its own K_i/2 plus the next stage's slope
    for i in range(n):
        c = xs[i]
        downstream = xs[i + 1] if i + 1 < n else path.cterm_ff
        cl_i = p[i] * c + cside[i] + downstream
        cm_i = m[i] * c
        cl.append(cl_i)
        tout.append(s_tau[i] * cl_i / c)
        cm.append(cm_i)
        w.append(0.5 * (1.0 + 2.0 * cm_i / (cm_i + cl_i)))
    for i in range(n - 1):
        w[i] += 0.5 * vt[i + 1]

    grad = [0.0] * n
    for j in range(1, n):
        c = xs[j]
        denominator = (cm[j] + cl[j]) ** 2
        # d tout_j / d c_j: only the external part of the load divides c.
        ext_j = cl[j] - p[j] * c
        dtout_j = -s_tau[j] * ext_j / c**2
        # d K_j / d c_j through cm (m_j) and cl (p_j).
        dk_j = (2.0 * cl[j] * m[j] - 2.0 * cm[j] * p[j]) / denominator
        value = w[j] * dtout_j + 0.5 * tout[j] * dk_j

        # Upstream stage j-1 sees c_j in its load.
        i = j - 1
        dtout_i = s_tau[i] / xs[i]
        dk_i = -2.0 * cm[i] / (cm[i] + cl[i]) ** 2
        value += w[i] * dtout_i + 0.5 * tout[i] * dk_i
        grad[j] = value
    return grad


def delay_gradient_numeric(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
    rel_step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient; the analytic form's cross-check."""
    arr = _check_sizes(path, sizes)
    grad = np.zeros(len(arr))
    for i in range(1, len(arr)):
        h = max(arr[i] * rel_step, 1e-9)
        up = arr.copy()
        up[i] += h
        down = arr.copy()
        down[i] -= h
        t_up = path_delay_ps(path, up, library)
        t_down = path_delay_ps(path, down, library)
        grad[i] = (t_up - t_down) / (2.0 * h)
    return grad


def stage_fanout_ratios(path: BoundedPath, sizes: Sequence[float]) -> np.ndarray:
    """Fan-out ratio ``F = C_L / C_IN`` per stage (buffering metric input)."""
    arr = np.asarray(sizes, dtype=float)
    ext = stage_external_loads(path, arr)
    return ext / arr
