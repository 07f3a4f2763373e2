"""Per-run optimizer telemetry attached to circuit optimization results.

The circuit-scope optimizer (:func:`repro.protocol.optimizer
.optimize_circuit`) always collects an :class:`OptimizerTelemetry` --
the bookkeeping is a handful of integers per pass, far below timing
noise -- answering the two questions the ad-hoc counters never could:
*where did the delay go, pass by pass* and *why did the run roll back*.

The telemetry rides on ``CircuitOptimizationResult.telemetry`` in
memory and is serialized into the :class:`~repro.api.records.RunRecord`
envelope under the optional top-level ``"telemetry"`` block (next to
``"timing"``, and like it omitted from the byte-stable
``to_dict(with_timing=False)`` form, so every determinism/parity
contract is untouched).  Old readers ignore the unknown key; old
records simply have no telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class PassTelemetry:
    """What one optimizer pass proposed, applied and achieved.

    Attributes
    ----------
    index:
        Zero-based pass number.
    critical_delay_ps:
        Circuit critical delay *after* this pass.
    paths_extracted:
        Candidate critical paths extracted this pass.
    proposed:
        Path optimizations attempted (== paths extracted).
    applied_sizing:
        Paths whose optimized sizes were written back.
    applied_structural:
        Paths that additionally triggered a structural transform.
    skipped:
        Paths skipped (already seen this pass, or no outcome).
    elapsed_s:
        Wall-clock spent in this pass.
    """

    index: int
    critical_delay_ps: float
    paths_extracted: int = 0
    proposed: int = 0
    applied_sizing: int = 0
    applied_structural: int = 0
    skipped: int = 0
    elapsed_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-native representation."""
        return {
            "index": self.index,
            "critical_delay_ps": float(self.critical_delay_ps),
            "paths_extracted": self.paths_extracted,
            "proposed": self.proposed,
            "applied_sizing": self.applied_sizing,
            "applied_structural": self.applied_structural,
            "skipped": self.skipped,
            "elapsed_s": float(self.elapsed_s),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PassTelemetry":
        """Rebuild from :meth:`as_dict` output."""
        return cls(
            index=int(data["index"]),
            critical_delay_ps=float(data["critical_delay_ps"]),
            paths_extracted=int(data.get("paths_extracted", 0)),
            proposed=int(data.get("proposed", 0)),
            applied_sizing=int(data.get("applied_sizing", 0)),
            applied_structural=int(data.get("applied_structural", 0)),
            skipped=int(data.get("skipped", 0)),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


@dataclass
class OptimizerTelemetry:
    """The full pass-by-pass story of one circuit optimization run.

    Attributes
    ----------
    tc_ps:
        The cycle-time target the run optimized toward.
    initial_delay_ps:
        Critical delay before the first pass.
    final_delay_ps:
        Critical delay of the returned (best) state.
    passes:
        One :class:`PassTelemetry` per executed pass.
    rollback:
        How the endgame restored the best state: ``"none"`` (last pass
        was the best), ``"sizing"`` (sizes rewound onto an unchanged
        structure) or ``"structural"`` (full circuit snapshot restored).
    rolled_back_passes:
        Passes discarded by that rollback (0 when ``rollback="none"``).
    rescue:
        Rescue-buffer endgame outcome: ``{"attempted": bool,
        "gates": [...], "delay_before_ps": float, "delay_after_ps":
        float}`` (the lists/floats only when attempted).
    """

    tc_ps: float
    initial_delay_ps: float
    final_delay_ps: float = 0.0
    passes: List[PassTelemetry] = field(default_factory=list)
    rollback: str = "none"
    rolled_back_passes: int = 0
    rescue: Dict[str, Any] = field(default_factory=lambda: {"attempted": False})

    @property
    def delay_trajectory_ps(self) -> List[float]:
        """Critical delay after each pass, first pass first."""
        return [p.critical_delay_ps for p in self.passes]

    @property
    def accepted(self) -> int:
        """Total path moves applied across all passes (sizing or structural)."""
        return sum(p.applied_sizing + p.applied_structural for p in self.passes)

    @property
    def rejected(self) -> int:
        """Total path moves proposed but not applied."""
        return sum(
            p.proposed - p.applied_sizing - p.applied_structural
            for p in self.passes
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-native representation (the ``RunRecord`` telemetry block)."""
        return {
            "tc_ps": float(self.tc_ps),
            "initial_delay_ps": float(self.initial_delay_ps),
            "final_delay_ps": float(self.final_delay_ps),
            "delay_trajectory_ps": [float(d) for d in self.delay_trajectory_ps],
            "accepted": self.accepted,
            "rejected": self.rejected,
            "passes": [p.as_dict() for p in self.passes],
            "rollback": self.rollback,
            "rolled_back_passes": self.rolled_back_passes,
            "rescue": dict(self.rescue),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OptimizerTelemetry":
        """Rebuild from :meth:`as_dict` output (derived fields recomputed)."""
        return cls(
            tc_ps=float(data["tc_ps"]),
            initial_delay_ps=float(data["initial_delay_ps"]),
            final_delay_ps=float(data.get("final_delay_ps", 0.0)),
            passes=[PassTelemetry.from_dict(p) for p in data.get("passes", [])],
            rollback=str(data.get("rollback", "none")),
            rolled_back_passes=int(data.get("rolled_back_passes", 0)),
            rescue=dict(data.get("rescue") or {"attempted": False}),
        )
