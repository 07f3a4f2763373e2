"""Buffer insertion on bounded paths (section 4.1, Table 3, Figs. 6/8).

Given the characterised ``Flimit`` table, insertion proceeds as the paper
prescribes:

1. compute the path's minimum-delay sizing;
2. flag *critical nodes* -- stages whose fan-out ratio ``F = C_L / C_IN``
   exceeds the ``Flimit`` of their (driver, gate) pair;
3. insert buffers there, acting as *load dilution* for the flagged gate;
4. either keep the original gate sizes and size only the buffers
   (**local** insertion) or re-run the full sizing machinery on the
   modified path (**global** insertion -- "buffer insertion & global
   sizing" of the Fig. 7 hard-constraint branch).

Buffers default to a single inverter -- the structure-B configuration the
``Flimit`` table characterises; the delay/area comparisons are then
consistent with the limits that triggered the insertion.  Pass
``buffer_stages=2`` for polarity-preserving pairs (the netlist-level
write-back uses them; the path-level experiments follow the paper's
polarity-free convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells.gate_types import GateKind
from repro.cells.library import Library
from repro.buffering.flimit import characterize_library, flimit_lookup
from repro.netlist.circuit import Circuit
from repro.sizing.bounds import min_delay_bound
from repro.sizing.sensitivity import ConstraintResult, distribute_constraint
from repro.timing.evaluation import (
    path_area_um,
    stage_external_loads,
)
from repro.timing.path import BoundedPath, PathStage
from repro.timing.sta import StaResult, external_loads, gate_sizes


@dataclass(frozen=True)
class BufferingResult:
    """Outcome of a buffer-insertion pass.

    Attributes
    ----------
    path:
        The (possibly) modified path; unchanged when no node was critical.
    sizes:
        Sizing vector on the returned path.
    delay_ps / area_um:
        Performance of the returned implementation.
    inserted_at:
        Stage indices (in the *original* path) after which buffers were
        inserted.
    baseline_delay_ps:
        Minimum delay of the unmodified path (the Table 3 "sizing" row).
    """

    path: BoundedPath
    sizes: np.ndarray
    delay_ps: float
    area_um: float
    inserted_at: Tuple[int, ...]
    baseline_delay_ps: float

    @property
    def gain(self) -> float:
        """Fractional Tmin improvement over pure sizing (Table 3 "gain")."""
        if self.baseline_delay_ps <= 0:
            return 0.0
        return 1.0 - self.delay_ps / self.baseline_delay_ps


#: Characterisation cache keyed by :meth:`Library.fingerprint`, a value
#: covering everything the table depends on: equal libraries share one
#: table, and no entry can be served to a different library.
_FLIMIT_CACHE: Dict[Tuple, Dict[Tuple[GateKind, GateKind], float]] = {}


def default_flimits(
    library: Library, use_cache: bool = True
) -> Dict[Tuple[GateKind, GateKind], float]:
    """Characterise the library once and return the lookup table.

    Characterisation searches every (inverter, gate) pair as one lane of
    a single lockstep bisection over golden-section searches (see
    :func:`~repro.buffering.flimit.characterize_library`); a table
    backend times its lanes one at a time and takes far longer than the
    analytic model.  The result is cached per library fingerprint:
    every later call with an equal (immutable) library returns the table
    without recomputing.  ``use_cache=False`` forces a fresh
    characterisation.
    """
    if use_cache:
        limits = _FLIMIT_CACHE.get(library.fingerprint())
        if limits is not None:
            return limits
    all_kinds = tuple(cell.kind for cell in library)
    entries = characterize_library(library, gates=all_kinds, drivers=(GateKind.INV,))
    limits = flimit_lookup(entries)
    if use_cache:
        _FLIMIT_CACHE[library.fingerprint()] = limits
    return limits


def flimit_cache_contains(library: Library) -> bool:
    """Whether :func:`default_flimits` would be served from the cache.

    The one supported way for callers (e.g. the Session facade's
    characterisation counter) to ask about cache residency without
    reaching into the private table.
    """
    return library.fingerprint() in _FLIMIT_CACHE


def overloaded_stages(
    path: BoundedPath,
    sizes: np.ndarray,
    limits: Dict[Tuple[GateKind, GateKind], float],
    margin: float = 1.0,
) -> List[int]:
    """Stage indices whose fan-out ratio exceeds ``margin * Flimit``.

    The limit of stage ``i`` is looked up under its actual driver kind
    (stage ``i-1``; an inverter-like driver is assumed at the path input).
    Missing pairs fall back to the inverter-driven entry.
    """
    ext = stage_external_loads(path, sizes)
    ratios = ext / sizes
    flagged: List[int] = []
    for i, stage in enumerate(path.stages):
        driver = path.stages[i - 1].cell.kind if i > 0 else GateKind.INV
        limit = limits.get((driver, stage.cell.kind))
        if limit is None:
            limit = limits.get((GateKind.INV, stage.cell.kind), math.inf)
        if ratios[i] > margin * limit:
            flagged.append(i)
    return flagged


def overloaded_gates(
    circuit: Circuit,
    library: Library,
    limits: Dict[Tuple[GateKind, GateKind], float],
    sta: Optional[StaResult] = None,
    margin: float = 1.0,
) -> List[str]:
    """Netlist-level analogue of :func:`overloaded_stages`.

    Flags every gate whose fan-out ratio ``F = C_L / C_IN`` at the
    current sizing exceeds ``margin * Flimit``.  Loads come from ``sta``
    when given (e.g. an :class:`~repro.timing.incremental.IncrementalSta`
    view -- no re-analysis) and from a fresh load assembly otherwise.
    A netlist gate has one driver per input, so the inverter-driven
    limit is used -- the conservative table row the characterisation
    orders first.
    """
    sizes = gate_sizes(circuit, library)
    loads = sta.loads_ff if sta is not None else external_loads(circuit, library)
    flagged: List[str] = []
    for name, gate in circuit.gates.items():
        limit = limits.get((GateKind.INV, gate.kind), math.inf)
        if loads[name] > margin * limit * sizes[name]:
            flagged.append(name)
    return flagged


def insert_buffers_at(
    path: BoundedPath,
    indices: Sequence[int],
    library: Library,
    buffer_stages: int = 2,
) -> Tuple[BoundedPath, List[int]]:
    """Insert ``buffer_stages`` inverters after each flagged stage.

    The flagged stage's side load migrates to the last buffer stage --
    the buffer drives everything downstream (the paper's in-path load
    dilution).  Returns the new path and the positions (in the new path)
    of every inserted stage.
    """
    if buffer_stages < 1:
        raise ValueError("buffer_stages must be >= 1")
    inv = library.cell(GateKind.INV)
    new_path = path
    inserted_positions: List[int] = []
    offset = 0
    for index in sorted(indices):
        at = index + offset
        original = new_path.stages[at]
        # Strip the side load off the driving stage...
        new_path = new_path.with_stage_replaced(
            at, PathStage(cell=original.cell, cside_ff=0.0, name=original.name)
        )
        for j in range(buffer_stages):
            is_last = j == buffer_stages - 1
            stage = PathStage(
                cell=inv,
                cside_ff=original.cside_ff if is_last else 0.0,
                name=f"{original.name}_buf{j}",
            )
            new_path = new_path.with_stage_inserted(at + 1 + j, stage)
            inserted_positions.append(at + 1 + j)
        offset += buffer_stages
    return new_path, inserted_positions


def _is_inserted_buffer(stage: PathStage) -> bool:
    return "_buf" in stage.name


def _resize_with_buffers_frozen_original(
    new_path: BoundedPath,
    library: Library,
    original_sizes: Dict[str, float],
) -> Tuple[float, np.ndarray]:
    """Local mode: size only the inserted buffers, original gates frozen."""
    n = len(new_path)
    frozen = np.zeros(n, dtype=bool)
    start = np.empty(n)
    inv_min = library.inverter.cin_min(library.tech)
    for i, stage in enumerate(new_path.stages):
        if _is_inserted_buffer(stage):
            start[i] = 4.0 * inv_min
        else:
            frozen[i] = True
            start[i] = original_sizes[stage.name]
    delay, sizes, _, _ = min_delay_bound(
        new_path, library, start_sizes=start, frozen=frozen
    )
    return delay, sizes


def min_delay_with_buffers(
    path: BoundedPath,
    library: Library,
    limits: Optional[Dict[Tuple[GateKind, GateKind], float]] = None,
    buffer_stages: int = 1,
    mode: str = "global",
    max_rounds: int = 4,
    margin: float = 1.0,
) -> BufferingResult:
    """Minimum path delay achievable with buffer insertion (Table 3).

    Each round flags the overloaded stages at the current minimum-delay
    sizing, *tries each candidate individually* and keeps the single
    insertion that improves the path delay most -- inserting at every
    flagged node at once routinely over-buffers (extra stages on nodes
    whose overload the sizing engine would rather absorb).  Rounds repeat
    until no candidate helps.

    ``mode = "global"`` re-optimises every size after each insertion (the
    greedy improvement loop above).  ``mode = "local"`` is the paper's
    section-4.1 *local insertion*: flag once at the minimum-delay sizing,
    insert at every flagged node, keep the original gate sizes and size
    only the inserted buffers -- a deterministic, cheaper variant whose
    result may tie the baseline (it is the Fig. 8 "Local Buff" method,
    not a minimiser).
    """
    if mode not in ("global", "local"):
        raise ValueError("mode must be 'global' or 'local'")
    if buffer_stages < 1:
        raise ValueError("buffer_stages must be >= 1")
    if limits is None:
        limits = default_flimits(library)

    base_tmin, base_sizes, _, _ = min_delay_bound(path, library)
    original_sizes = {
        stage.name: float(base_sizes[i]) for i, stage in enumerate(path.stages)
    }
    best = BufferingResult(
        path=path,
        sizes=base_sizes,
        delay_ps=base_tmin,
        area_um=path_area_um(path, base_sizes, library),
        inserted_at=(),
        baseline_delay_ps=base_tmin,
    )

    if mode == "local":
        flagged = overloaded_stages(path, base_sizes, limits, margin)
        if not flagged:
            return best
        new_path, _ = insert_buffers_at(path, flagged, library, buffer_stages)
        delay, sizes = _resize_with_buffers_frozen_original(
            new_path, library, original_sizes
        )
        return BufferingResult(
            path=new_path,
            sizes=sizes,
            delay_ps=delay,
            area_um=path_area_um(new_path, sizes, library),
            inserted_at=tuple(flagged),
            baseline_delay_ps=base_tmin,
        )

    current_path, current_sizes = path, base_sizes
    chosen_names: List[str] = []
    for _ in range(max_rounds):
        flagged = [
            i
            for i in overloaded_stages(current_path, current_sizes, limits, margin)
            if not _is_inserted_buffer(current_path.stages[i])
        ]
        if not flagged:
            break
        round_best: Optional[Tuple[float, BoundedPath, np.ndarray, str]] = None
        for index in flagged:
            candidate_path, _ = insert_buffers_at(
                current_path, [index], library, buffer_stages
            )
            delay, sizes, _, _ = min_delay_bound(candidate_path, library)
            if round_best is None or delay < round_best[0]:
                round_best = (
                    delay,
                    candidate_path,
                    sizes,
                    current_path.stages[index].name,
                )
        if round_best is None or round_best[0] >= best.delay_ps - 1e-9:
            break
        delay, current_path, current_sizes, name = round_best
        chosen_names.append(name)
        original_positions = tuple(
            sorted(
                i
                for i, stage in enumerate(path.stages)
                if stage.name in chosen_names
            )
        )
        best = BufferingResult(
            path=current_path,
            sizes=current_sizes,
            delay_ps=delay,
            area_um=path_area_um(current_path, current_sizes, library),
            inserted_at=original_positions,
            baseline_delay_ps=base_tmin,
        )
    return best


def _redistribute(
    path: BoundedPath,
    library: Library,
    tc_ps: float,
    mode: str,
    original_names: set,
    reference_sizes: Optional[Dict[str, float]],
    weight_mode: str,
) -> ConstraintResult:
    """Distribute ``Tc`` on a buffered path in global or local mode.

    Global mode re-optimises every size jointly.  Local mode is the
    paper's cheaper variant: the inserted buffers get the classic
    geometric-mean (square-root rule) size between their driver and their
    load -- a purely *local* decision -- and stay frozen while the
    original gates redistribute the constraint around them.
    """
    if mode == "global" or reference_sizes is None:
        return distribute_constraint(path, library, tc_ps, weight_mode=weight_mode)
    n = len(path)
    frozen = np.zeros(n, dtype=bool)
    start = np.empty(n)
    inv_min = library.inverter.cin_min(library.tech)
    for i, stage in enumerate(path.stages):
        if stage.name in original_names:
            start[i] = reference_sizes[stage.name]
        else:
            frozen[i] = True
            driver = start[i - 1] if i > 0 else path.cin_first_ff
            if i + 1 < n:
                next_stage = path.stages[i + 1]
                downstream = reference_sizes.get(next_stage.name, 4.0 * inv_min)
            else:
                downstream = path.cterm_ff
            load = stage.cside_ff + downstream
            start[i] = max(np.sqrt(max(driver * load, 0.0)), inv_min)
    return distribute_constraint(
        path,
        library,
        tc_ps,
        weight_mode=weight_mode,
        frozen=frozen,
        frozen_sizes=start,
    )


def distribute_with_buffers(
    path: BoundedPath,
    library: Library,
    tc_ps: float,
    limits: Optional[Dict[Tuple[GateKind, GateKind], float]] = None,
    buffer_stages: int = 1,
    mode: str = "global",
    weight_mode: str = "uniform",
    max_rounds: int = 3,
) -> Tuple[ConstraintResult, BoundedPath, Tuple[int, ...]]:
    """Meet ``Tc`` on a path with buffer insertion allowed (Figs. 6/8).

    The protocol's use of ``Flimit``: solve the constraint by sizing
    first, then flag the stages whose fan-out ratio *at that constrained
    sizing* exceeds their limit -- in the medium domain gates run small,
    so ratios are high and load dilution buys area; at ``Tc < Tmin``
    sizing is infeasible and insertion extends the reachable range.
    Each round tries the flagged nodes individually and keeps the best
    area improvement (or the first feasibility rescue).

    Returns ``(constraint result, buffered path, inserted positions)``.
    """
    if mode not in ("global", "local"):
        raise ValueError("mode must be 'global' or 'local'")
    if limits is None:
        limits = default_flimits(library)

    best_result = distribute_constraint(path, library, tc_ps, weight_mode=weight_mode)
    best_path = path
    original_names = {stage.name for stage in path.stages}
    reference_sizes = {
        stage.name: float(best_result.sizes[i])
        for i, stage in enumerate(path.stages)
    }

    if mode == "local":
        # The deterministic Fig. 8 "Local Buff" method: insert at every
        # node flagged at the constrained sizing, square-root-size the
        # buffers, redistribute the original gates around them.  No
        # improvement gating -- it is a method, not a minimiser.
        flagged = overloaded_stages(path, best_result.sizes, limits)
        if not flagged:
            return best_result, path, ()
        new_path, _ = insert_buffers_at(path, flagged, library, buffer_stages)
        result = _redistribute(
            new_path, library, tc_ps, "local", original_names,
            reference_sizes, weight_mode,
        )
        inserted = tuple(
            i
            for i, stage in enumerate(new_path.stages)
            if stage.name not in original_names
        )
        return result, new_path, inserted

    for _ in range(max_rounds):
        flagged = [
            i
            for i in overloaded_stages(best_path, best_result.sizes, limits)
            if not _is_inserted_buffer(best_path.stages[i])
        ]
        if not flagged:
            break
        round_best: Optional[Tuple[ConstraintResult, BoundedPath]] = None
        for index in flagged:
            candidate_path, _ = insert_buffers_at(
                best_path, [index], library, buffer_stages
            )
            candidate = _redistribute(
                candidate_path,
                library,
                tc_ps,
                mode,
                original_names,
                reference_sizes,
                weight_mode,
            )
            if round_best is None or _better(candidate, round_best[0]):
                round_best = (candidate, candidate_path)
        if round_best is None or not _better(round_best[0], best_result):
            break
        best_result, best_path = round_best

    inserted = tuple(
        i
        for i, stage in enumerate(best_path.stages)
        if stage.name not in original_names
    )
    return best_result, best_path, inserted


def _better(candidate: ConstraintResult, incumbent: ConstraintResult) -> bool:
    """Feasibility first, then area; then raw delay for infeasible pairs."""
    if candidate.feasible != incumbent.feasible:
        return candidate.feasible
    if candidate.feasible:
        return candidate.area_um < incumbent.area_um - 1e-9
    return candidate.achieved_delay_ps < incumbent.achieved_delay_ps - 1e-9
