"""The :class:`Job` specification: one optimization request, fully declared.

A job names *what* to optimize (a registered benchmark or an inline
:class:`~repro.netlist.circuit.Circuit`), *how hard* (an absolute ``tc_ps``
constraint or a ``tc_ratio`` multiple of the path's ``Tmin``) and *which
protocol knobs* to use.  Jobs are frozen and validated on construction, so a
malformed campaign fails before any characterisation work starts, and a job
can be serialized, hashed into cache keys, shipped to a worker process and
echoed verbatim inside the :class:`~repro.api.records.RunRecord` it produced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.netlist.circuit import Circuit

#: Protocol scopes a job may request.
SCOPES = ("path", "circuit")

#: Sizing weight modes understood by the constraint distributor.
WEIGHT_MODES = ("uniform", "area")

#: Delay-model backends a job may pin (see :mod:`repro.timing.backend`).
BACKENDS = ("analytic", "nldm")


class JobError(ValueError):
    """An invalid :class:`Job` specification."""


@dataclass(frozen=True)
class Job:
    """A declarative optimization request.

    Attributes
    ----------
    benchmark / circuit:
        Exactly one must be given: a registered benchmark name (see
        ``repro.iscas.benchmark_names``) or an inline netlist.
    bench_dir:
        Optional directory of real ``.bench`` files overriding the
        synthetic stand-ins (benchmark jobs only).
    tc_ps / tc_ratio:
        The delay constraint, absolute (ps) or as a multiple of the
        critical path's ``Tmin``.  At most one; optimization requires one
        (``bounds`` / ``power`` jobs need neither).
    scope:
        ``"path"`` runs the Fig. 7 protocol on the critical path;
        ``"circuit"`` runs the circuit-level driver over the ``k_paths``
        most critical paths with netlist write-back.
    k_paths / max_passes:
        Circuit-scope driver parameters.
    weight_mode:
        ``"uniform"`` (the paper's eq. 6) or ``"area"`` (KKT-exact
        minimum-``sum W`` weights).
    allow_restructuring:
        Whether the protocol may fall back to De Morgan rewriting for
        infeasible constraints (path scope).
    frequency_mhz / activity_vectors:
        Power-job parameters (clock and Monte-Carlo vector count).
    mc_samples / mc_seed:
        Monte-Carlo corner-analysis parameters (``Session.mc``): number
        of sampled process corners and the rng seed.  The optional
        ``tc_ps`` / ``tc_ratio`` constraint doubles as the yield target.
    backend / liberty:
        Delay-model identity: which backend the run must use
        (:data:`BACKENDS`; ``None`` means "whatever the session runs")
        and, for ``"nldm"``, the ``.lib`` file the tables came from.
        The session validates these against its own backend and stamps
        them into the job echo of every non-analytic record, so a
        serialized :class:`~repro.api.records.RunRecord` names the model
        that produced it.  Serialization is backward compatible: unset
        fields are omitted from :meth:`to_dict`, so analytic-default
        jobs keep their historical byte form.
    timeout_s:
        Optional per-job deadline in seconds, enforced by the serve
        executor (a submit-level ``timeout_s`` overrides it).  ``None``
        (the default) means no deadline; unset it is omitted from
        :meth:`to_dict`, keeping historical byte forms and store keys.
    label:
        Free-form tag echoed into the run record (campaign bookkeeping).
    """

    #: Inline circuits compare (and hash) by object identity -- two jobs
    #: wrapping different Circuit instances are distinct even when the
    #: netlists are structurally equal.
    benchmark: Optional[str] = None
    circuit: Optional[Circuit] = None
    bench_dir: Optional[str] = None
    tc_ps: Optional[float] = None
    tc_ratio: Optional[float] = None
    scope: str = "path"
    k_paths: int = 4
    max_passes: int = 6
    weight_mode: str = "uniform"
    allow_restructuring: bool = True
    frequency_mhz: float = 100.0
    activity_vectors: int = 128
    mc_samples: int = 1000
    mc_seed: int = 42
    backend: Optional[str] = None
    liberty: Optional[str] = None
    timeout_s: Optional[float] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.benchmark is None) == (self.circuit is None):
            raise JobError("exactly one of 'benchmark' or 'circuit' is required")
        if self.benchmark is not None and not isinstance(self.benchmark, str):
            raise JobError(f"benchmark must be a string, got {self.benchmark!r}")
        if self.circuit is not None and not isinstance(self.circuit, Circuit):
            raise JobError(f"circuit must be a Circuit, got {type(self.circuit)}")
        if self.circuit is not None and self.bench_dir is not None:
            raise JobError("bench_dir applies only to benchmark jobs")
        if self.tc_ps is not None and self.tc_ratio is not None:
            raise JobError("give at most one of 'tc_ps' and 'tc_ratio'")
        if self.tc_ps is not None and self.tc_ps <= 0:
            raise JobError(f"tc_ps must be positive, got {self.tc_ps}")
        if self.tc_ratio is not None and self.tc_ratio <= 0:
            raise JobError(f"tc_ratio must be positive, got {self.tc_ratio}")
        if self.scope not in SCOPES:
            raise JobError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        if self.k_paths < 1:
            raise JobError(f"k_paths must be >= 1, got {self.k_paths}")
        if self.max_passes < 1:
            raise JobError(f"max_passes must be >= 1, got {self.max_passes}")
        if self.weight_mode not in WEIGHT_MODES:
            raise JobError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        if self.frequency_mhz <= 0:
            raise JobError(f"frequency_mhz must be positive, got {self.frequency_mhz}")
        if self.activity_vectors < 2:
            raise JobError(
                f"activity_vectors must be >= 2, got {self.activity_vectors}"
            )
        if self.mc_samples < 2:
            raise JobError(f"mc_samples must be >= 2, got {self.mc_samples}")
        if not isinstance(self.mc_seed, int) or isinstance(self.mc_seed, bool):
            raise JobError(f"mc_seed must be an integer, got {self.mc_seed!r}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise JobError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.liberty is not None and not isinstance(self.liberty, str):
            raise JobError(f"liberty must be a path string, got {self.liberty!r}")
        if self.liberty is not None and self.backend != "nldm":
            raise JobError("liberty applies only to backend='nldm' jobs")
        if self.timeout_s is not None:
            if (
                isinstance(self.timeout_s, bool)
                or not isinstance(self.timeout_s, (int, float))
                or self.timeout_s <= 0
            ):
                raise JobError(
                    f"timeout_s must be a positive number, got {self.timeout_s!r}"
                )

    # -- derived -------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable identity (label, benchmark name or circuit name)."""
        if self.label:
            return self.label
        if self.benchmark is not None:
            return self.benchmark
        return self.circuit.name  # type: ignore[union-attr]

    @property
    def has_constraint(self) -> bool:
        """Whether the job pins a delay constraint."""
        return self.tc_ps is not None or self.tc_ratio is not None

    def with_constraint(
        self, tc_ps: Optional[float] = None, tc_ratio: Optional[float] = None
    ) -> "Job":
        """A copy with the delay constraint replaced (sweep ergonomics)."""
        if (tc_ps is None) == (tc_ratio is None):
            raise JobError("give exactly one of 'tc_ps' and 'tc_ratio'")
        return replace(self, tc_ps=tc_ps, tc_ratio=tc_ratio)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inline circuits are expanded)."""
        from repro.api.serialization import circuit_to_dict

        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.circuit is not None:
            data["circuit"] = circuit_to_dict(self.circuit)
        # Backend identity and deadline are emitted only when pinned:
        # default jobs keep the historical byte form (store keys,
        # goldens).
        for name in ("backend", "liberty", "timeout_s"):
            if data[name] is None:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        """Rebuild a job from :meth:`to_dict` output."""
        from repro.api.serialization import circuit_from_dict

        payload = dict(data)
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise JobError(f"unknown job fields: {sorted(unknown)}")
        if payload.get("circuit") is not None:
            payload["circuit"] = circuit_from_dict(payload["circuit"])
        return cls(**payload)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative scenario grid: the campaign-level job kind.

    A sweep names a set of benchmarks, a set of constraint points
    (absolute picoseconds or multiples of each benchmark's critical-path
    ``Tmin``) and the protocol-knob axes to cross them with.  Expanding
    the spec yields one :class:`Job` per grid point with a deterministic,
    unique ``label`` -- the identity the campaign store keys resumption
    on and run records echo back.

    Attributes
    ----------
    benchmarks:
        Registered benchmark names, swept in the given order.
    tc_ps_points / tc_ratio_points:
        Exactly one must be non-empty: the constraint axis, absolute or
        ``Tmin``-relative.  Points are run sorted ascending within each
        benchmark, and one benchmark's points share its warm state.
    scope / k_paths / max_passes / weight_modes / restructuring:
        Protocol knobs; ``weight_modes`` and ``restructuring`` are axes
        (every combination is a grid point), the rest are shared.
    bench_dir:
        Optional directory of real ``.bench`` netlists.
    label:
        Optional campaign tag, prefixed onto every point label.
    """

    benchmarks: Tuple[str, ...] = ()
    tc_ps_points: Tuple[float, ...] = ()
    tc_ratio_points: Tuple[float, ...] = ()
    scope: str = "circuit"
    k_paths: int = 4
    max_passes: int = 6
    weight_modes: Tuple[str, ...] = ("uniform",)
    restructuring: Tuple[bool, ...] = (True,)
    bench_dir: Optional[str] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        # Tolerate lists from JSON / CLI call sites.
        for name in (
            "benchmarks",
            "tc_ps_points",
            "tc_ratio_points",
            "weight_modes",
            "restructuring",
        ):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not self.benchmarks:
            raise JobError("sweep needs at least one benchmark")
        if not all(isinstance(b, str) and b for b in self.benchmarks):
            raise JobError(f"benchmarks must be names, got {self.benchmarks!r}")
        if len(set(self.benchmarks)) != len(self.benchmarks):
            raise JobError("duplicate benchmark in sweep")
        if bool(self.tc_ps_points) == bool(self.tc_ratio_points):
            raise JobError(
                "give exactly one of 'tc_ps_points' and 'tc_ratio_points'"
            )
        points = self.tc_ps_points or self.tc_ratio_points
        if any(p <= 0 for p in points):
            raise JobError(f"constraint points must be positive, got {points}")
        if len(set(points)) != len(points):
            raise JobError("duplicate constraint point in sweep")
        # Point labels render the constraint with %g; two points that
        # collapse to the same rendering would share a label -- and the
        # label is the resume/record identity, so a collision would
        # silently serve one point's result for both.
        rendered = {f"{p:g}" for p in points}
        if len(rendered) != len(points):
            raise JobError(
                "constraint points collide at label precision (%g formats "
                f"{sorted(points)} to {sorted(rendered)}); space them further apart"
            )
        if self.scope not in SCOPES:
            raise JobError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        if self.k_paths < 1:
            raise JobError(f"k_paths must be >= 1, got {self.k_paths}")
        if self.max_passes < 1:
            raise JobError(f"max_passes must be >= 1, got {self.max_passes}")
        if not self.weight_modes:
            raise JobError("sweep needs at least one weight mode")
        for mode in self.weight_modes:
            if mode not in WEIGHT_MODES:
                raise JobError(
                    f"weight_mode must be one of {WEIGHT_MODES}, got {mode!r}"
                )
        if len(set(self.weight_modes)) != len(self.weight_modes):
            raise JobError("duplicate weight mode in sweep")
        if not self.restructuring:
            raise JobError("sweep needs at least one restructuring setting")
        if len(set(self.restructuring)) != len(self.restructuring):
            raise JobError("duplicate restructuring setting in sweep")

    # -- derived -------------------------------------------------------

    @property
    def relative(self) -> bool:
        """Whether the constraint axis is ``Tmin``-relative."""
        return bool(self.tc_ratio_points)

    @property
    def points(self) -> Tuple[float, ...]:
        """The constraint axis, sorted ascending (warm-start order)."""
        return tuple(sorted(self.tc_ps_points or self.tc_ratio_points))

    @property
    def point_count(self) -> int:
        """Number of grid points the sweep expands to."""
        return (
            len(self.benchmarks)
            * len(self.points)
            * len(self.weight_modes)
            * len(self.restructuring)
        )

    def point_label(
        self, benchmark: str, tc: float, weight_mode: str, restructure: bool
    ) -> str:
        """The deterministic identity of one grid point."""
        axis = "r" if self.relative else "ps"
        parts = [
            benchmark,
            f"{axis}{tc:g}",
            weight_mode,
            "dm" if restructure else "nodm",
        ]
        prefix = f"{self.label}:" if self.label else ""
        return prefix + "/".join(parts)

    def jobs(self) -> List[Job]:
        """Expand the grid to concrete jobs, warm-start order.

        Points of one benchmark are contiguous and sorted by constraint
        within each (weight mode, restructuring) combination, so a
        runner that walks the list in order can carry one benchmark's
        warm state from point to point.
        """
        out: List[Job] = []
        for benchmark in self.benchmarks:
            for weight_mode in self.weight_modes:
                for restructure in self.restructuring:
                    for tc in self.points:
                        out.append(
                            Job(
                                benchmark=benchmark,
                                bench_dir=self.bench_dir,
                                tc_ps=tc if not self.relative else None,
                                tc_ratio=tc if self.relative else None,
                                scope=self.scope,
                                k_paths=self.k_paths,
                                max_passes=self.max_passes,
                                weight_mode=weight_mode,
                                allow_restructuring=restructure,
                                label=self.point_label(
                                    benchmark, tc, weight_mode, restructure
                                ),
                            )
                        )
        return out

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (tuples become lists)."""
        return {
            "benchmarks": list(self.benchmarks),
            "tc_ps_points": list(self.tc_ps_points),
            "tc_ratio_points": list(self.tc_ratio_points),
            "scope": self.scope,
            "k_paths": self.k_paths,
            "max_passes": self.max_passes,
            "weight_modes": list(self.weight_modes),
            "restructuring": list(self.restructuring),
            "bench_dir": self.bench_dir,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        payload = dict(data)
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise JobError(f"unknown sweep fields: {sorted(unknown)}")
        return cls(**payload)
