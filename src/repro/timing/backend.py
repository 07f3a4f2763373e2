"""Pluggable delay-model backends: the seam under every evaluator.

The repo's three bit-exact evaluators -- the scalar
:func:`~repro.timing.sta.analyze`, the warm
:class:`~repro.timing.incremental.IncrementalSta` and the Monte-Carlo
batch kernel (:func:`repro.mc.kernel.batch_analyze`) -- historically
hard-wired the paper's analytic eq. 1-3 model.  A
:class:`DelayBackend` lifts that model behind an interface with two
surfaces:

* **scalar** -- :meth:`DelayBackend.gate_timing`, the single-arc kernel
  every dict-walking engine calls (STA propagation, path extraction,
  generic path evaluation);
* **batch** -- :meth:`DelayBackend.compile_model`, a per-compilation
  :class:`BatchDelayModel` that folds per-gate constants into
  :class:`~repro.mc.compile.CompiledCircuit` arrays and propagates whole
  levels over ``(gates, corners)`` arrays.

Capabilities (:class:`BackendCapabilities`) tell the optimizer stack
what a backend can promise: ``closed_form_bounds`` gates the eq. 4/6
closed forms in :mod:`repro.sizing.bounds` (table backends fall back to
a numeric warm-started bisection), ``exact_corners`` records whether
Monte-Carlo corners are evaluated exactly (analytic) or by a global
speed-scale approximation (tables).

Bit-exactness contract
----------------------
Within one backend, all three evaluators agree bit for bit: every
implementation must evaluate the same arithmetic in the same operation
order on its scalar and batch surfaces.  *Across* backends no
bit-level relationship is promised -- an NLDM table characterised from
the analytic model agrees only to interpolation accuracy.  The
:class:`AnalyticBackend` delegates straight to
:func:`~repro.timing.delay_model.gate_delay` and to the pre-existing
batch kernel, so refactoring the consumers through this seam changed
no float anywhere (pinned by the equivalence ladder in
``tests/test_mc.py`` / ``tests/test_backend_parity.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.cells.cell import Cell
from repro.process.technology import Technology
from repro.timing.delay_model import Edge, GateTiming, gate_delay

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type names
    from repro.mc.compile import CompiledCircuit
    from repro.mc.corners import CornerSamples


@dataclass(frozen=True)
class BackendCapabilities:
    """What one delay backend can promise to the optimizer stack.

    Attributes
    ----------
    name:
        Stable identifier (``"analytic"``, ``"nldm"``); the CLI/Job
        backend spec and the cache-key token lead with it.
    closed_form_bounds:
        Whether the eq. 4/6 closed-form link equations are exact for
        this backend.  When ``False``, :mod:`repro.sizing.bounds`
        replaces each Gauss-Seidel link update with a numeric
        bisection on the windowed delay derivative.
    exact_corners:
        Whether Monte-Carlo corner batches are evaluated under the
        exact per-corner model.  Table backends approximate a corner
        as a global ``tau``-ratio time scale instead.
    """

    name: str
    closed_form_bounds: bool
    exact_corners: bool


class BatchDelayModel(ABC):
    """Per-compilation batch surface of one backend.

    Created once per :class:`~repro.mc.compile.CompiledCircuit` by
    :meth:`DelayBackend.compile_model`; the constructor folds the
    structure-only per-gate constants (from ``compiled.cells``) into
    arrays, :meth:`bind` refreshes the sizing-dependent ones, and
    :meth:`propagate` runs the level loop of
    :func:`~repro.mc.kernel.batch_analyze` in place.
    """

    @abstractmethod
    def bind(self, compiled: "CompiledCircuit") -> None:
        """Refresh sizing-dependent per-gate arrays after a re-bind."""

    @abstractmethod
    def propagate(
        self,
        compiled: "CompiledCircuit",
        corners: "CornerSamples",
        time_rise: np.ndarray,
        time_fall: np.ndarray,
        tran_rise: np.ndarray,
        tran_fall: np.ndarray,
    ) -> None:
        """Fill the gate rows of the ``(n_nets, n_samples)`` arrays.

        Input rows are pre-seeded by the caller; the model must leave
        them untouched (or rescale them consistently with its corner
        model) and write every gate row.
        """


class DelayBackend(ABC):
    """A pluggable gate-delay model.

    Implementations must keep their scalar and batch surfaces
    bit-identical to each other (see the module docstring); the
    analytic reference lives here, the NLDM table backend in
    :mod:`repro.liberty.nldm`.
    """

    capabilities: BackendCapabilities

    @abstractmethod
    def cache_token(self) -> Tuple:
        """Hashable identity folded into every timing cache key.

        Two backends whose tokens differ must never alias a cached
        timing artefact; table backends fold a content digest in.
        """

    @abstractmethod
    def gate_timing(
        self,
        cell: Cell,
        tech: Technology,
        cin_ff: float,
        cload_ext_ff: float,
        tin_ps: float,
        input_edge: Edge,
    ) -> GateTiming:
        """Delay/transition of one gate arc (the scalar kernel)."""

    @abstractmethod
    def compile_model(self, compiled: "CompiledCircuit") -> BatchDelayModel:
        """Build the batch surface for one compiled structure."""


class AnalyticBackend(DelayBackend):
    """The paper's closed-form eq. 1-3 model behind the backend seam.

    Both surfaces delegate to the pre-existing kernels --
    :func:`~repro.timing.delay_model.gate_delay` and the mc level loop
    -- so the analytic stack through the seam is bit-identical to the
    pre-seam code, float for float.
    """

    capabilities = BackendCapabilities(
        name="analytic", closed_form_bounds=True, exact_corners=True
    )

    def cache_token(self) -> Tuple:
        """The analytic model is fully determined by (tech, cells)."""
        return ("analytic",)

    def gate_timing(
        self,
        cell: Cell,
        tech: Technology,
        cin_ff: float,
        cload_ext_ff: float,
        tin_ps: float,
        input_edge: Edge,
    ) -> GateTiming:
        """Eq. 1 timing via :func:`~repro.timing.delay_model.gate_delay`."""
        return gate_delay(cell, tech, cin_ff, cload_ext_ff, tin_ps, input_edge)

    def compile_model(self, compiled: "CompiledCircuit") -> BatchDelayModel:
        """The mc kernel's analytic level loop (lazy import: no cycle)."""
        from repro.mc.kernel import AnalyticBatchModel

        return AnalyticBatchModel(compiled)


#: The shared analytic backend instance: libraries built without an
#: explicit backend resolve to this singleton, so identity checks and
#: cache tokens stay stable across all default libraries.
ANALYTIC_BACKEND = AnalyticBackend()


def backend_fo4(
    cell: Cell, tech: Technology, cin_ff: float, backend: DelayBackend
) -> float:
    """FO4-style figure of merit through an arbitrary backend.

    The backend-generic twin of
    :func:`~repro.timing.delay_model.fanout_four_delay` (same two-call
    self-consistent structure, so the analytic backend reproduces it
    exactly); the ``pops lib`` report uses it to put analytic and NLDM
    figures side by side.
    """
    first = backend.gate_timing(cell, tech, cin_ff, 4.0 * cin_ff, 0.0, Edge.RISE)
    second = backend.gate_timing(
        cell, tech, cin_ff, 4.0 * cin_ff, first.tout_ps, Edge.RISE
    )
    return second.delay_ps
