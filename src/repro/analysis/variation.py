"""Process-variation analysis: Monte-Carlo corners on the delay model.

The paper motivates deterministic bounds partly by the *uncertainty*
iterative flows must absorb ("the uncertainty in routing capacitance
estimation imposes ... very large safety margins resulting in oversized
designs", section 2).  This module quantifies that story on our model:

* sample process corners -- multiplicative perturbations of ``tau``,
  ``R``, the thresholds and the capacitance densities -- around the
  nominal technology;
* re-evaluate a *fixed sizing* under each corner;
* report the delay distribution and the guard-band a constraint needs.

Sizing decisions themselves stay nominal (re-optimising per corner is the
classic robust-design extension; the returned distribution tells you how
much margin that would have to buy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cells.library import Library
from repro.process.technology import Technology
from repro.timing.evaluation import path_delay_ps
from repro.timing.path import BoundedPath


@dataclass(frozen=True)
class VariationSpec:
    """Relative (1-sigma) spreads of the process parameters.

    Defaults follow typical die-to-die 0.25 um numbers: a few percent on
    speed (``tau``), the P/N balance, thresholds and capacitances.
    """

    tau_sigma: float = 0.05
    r_sigma: float = 0.04
    vt_sigma: float = 0.04
    c_gate_sigma: float = 0.03
    c_junction_sigma: float = 0.05

    def __post_init__(self) -> None:
        for name in ("tau_sigma", "r_sigma", "vt_sigma", "c_gate_sigma",
                     "c_junction_sigma"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5), got {value}")


@dataclass(frozen=True)
class DelayDistribution:
    """Monte-Carlo delay statistics of one sized path.

    All times in ps.
    """

    nominal_ps: float
    mean_ps: float
    std_ps: float
    p01_ps: float
    p50_ps: float
    p99_ps: float
    samples_ps: np.ndarray

    @property
    def guard_band(self) -> float:
        """Multiplicative margin for 99% yield: ``p99 / nominal``."""
        if self.nominal_ps <= 0:
            return 1.0
        return self.p99_ps / self.nominal_ps

    def yield_at(self, tc_ps: float) -> float:
        """Fraction of corners meeting a delay constraint."""
        if tc_ps <= 0:
            raise ValueError("tc_ps must be positive")
        return float(np.mean(self.samples_ps <= tc_ps))


def perturbed_technology(
    tech: Technology, spec: VariationSpec, rng: np.random.Generator
) -> Technology:
    """One sampled corner of ``tech`` (truncated-normal multipliers)."""

    def mult(sigma: float) -> float:
        return float(np.clip(rng.normal(1.0, sigma), 0.5, 1.5)) if sigma else 1.0

    vt_mult = mult(spec.vt_sigma)
    return tech.scaled(
        tau_ps=tech.tau_ps * mult(spec.tau_sigma),
        r_ratio=tech.r_ratio * mult(spec.r_sigma),
        vtn=min(tech.vtn * vt_mult, 0.9 * tech.vdd),
        vtp=min(tech.vtp * vt_mult, 0.9 * tech.vdd),
        c_gate_ff_per_um=tech.c_gate_ff_per_um * mult(spec.c_gate_sigma),
        c_junction_ff_per_um=tech.c_junction_ff_per_um
        * mult(spec.c_junction_sigma),
    )


def delay_distribution(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
    spec: Optional[VariationSpec] = None,
    n_samples: int = 500,
    seed: int = 42,
) -> DelayDistribution:
    """Monte-Carlo delay distribution of a fixed sizing across corners.

    The corners are evaluated by the vectorized batch kernel
    (:func:`repro.mc.kernel.batch_path_delays`): one array draw replaces
    the per-sample library rebuild of the original loop.  The sampled
    corners reproduce that loop's rng stream draw for draw
    (:func:`repro.mc.corners.sample_corners`), and the kernel preserves
    its operation order, so for the default cell set the samples match
    the retired scalar implementation (kept as the reference in
    ``tests/test_variation.py``) bit for
    bit on every platform where ``Generator.normal`` is one ziggurat
    draw -- the tests pin a 1e-12 relative tolerance as the portable
    contract.

    For a *custom* cell set the batch kernel is a deliberate behaviour
    fix: the old loop's ``default_library`` rebuild silently swapped
    default cells under the path at every corner, whereas the kernel
    evaluates the path's actual ``stage.cell`` constants (only the
    technology varies, matching the nominal evaluation's cells).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if spec is None:
        spec = VariationSpec()
    # Imported lazily: repro.mc's corner sampler imports VariationSpec
    # from this module at load time.
    from repro.mc.corners import sample_corners
    from repro.mc.kernel import batch_path_delays

    nominal = path_delay_ps(path, sizes, library)
    corners = sample_corners(library.tech, spec, n_samples, seed)
    samples = batch_path_delays(path, sizes, library, corners)

    return DelayDistribution(
        nominal_ps=nominal,
        mean_ps=float(samples.mean()),
        std_ps=float(samples.std()),
        p01_ps=float(np.percentile(samples, 1)),
        p50_ps=float(np.percentile(samples, 50)),
        p99_ps=float(np.percentile(samples, 99)),
        samples_ps=samples,
    )


def required_guard_band(
    path: BoundedPath,
    sizes: Sequence[float],
    library: Library,
    target_yield: float = 0.99,
    spec: Optional[VariationSpec] = None,
    n_samples: int = 500,
    seed: int = 42,
) -> float:
    """The Tc multiplier needed so ``target_yield`` of corners pass.

    This is the "safety margin" of the paper's introduction, made
    quantitative: a flow that cannot see the delay distribution has to
    multiply its constraint by this factor.
    """
    if not 0.0 < target_yield < 1.0:
        raise ValueError("target_yield must lie in (0, 1)")
    dist = delay_distribution(path, sizes, library, spec=spec,
                              n_samples=n_samples, seed=seed)
    needed = float(np.percentile(dist.samples_ps, 100.0 * target_yield))
    return needed / dist.nominal_ps
