"""POPS reproduction: low-power oriented CMOS circuit optimization protocol.

Reproduction of A. Verle, X. Michel, N. Azemard, P. Maurine, D. Auvergne,
"Low Power Oriented CMOS Circuit Optimization Protocol", DATE 2005.

The canonical programmatic surface is the :mod:`repro.api` facade,
re-exported here::

    from repro import Job, Session

    session = Session()
    record = session.optimize(Job(benchmark="c432", tc_ratio=1.5))

Domain layers (see README for a tour):

* :mod:`repro.api`            -- Session / Job / RunRecord facade
* :mod:`repro.process`        -- technology descriptors, device models
* :mod:`repro.cells`          -- characterised standard-cell library
* :mod:`repro.netlist`        -- circuit DAGs, ISCAS ``.bench`` I/O
* :mod:`repro.iscas`          -- benchmark circuits / path registry
* :mod:`repro.timing`         -- eq. 1-3 delay model, bounded paths, STA
* :mod:`repro.sizing`         -- Tmin/Tmax bounds, constant sensitivity
* :mod:`repro.buffering`      -- Flimit metric, buffer insertion
* :mod:`repro.restructuring`  -- De Morgan logic transformation
* :mod:`repro.protocol`       -- the Fig. 7 optimization protocol
* :mod:`repro.explore`        -- Tc-sweep campaigns, Pareto frontiers
* :mod:`repro.mc`             -- vectorized Monte-Carlo corner engine
* :mod:`repro.baselines`      -- AMPS-like industrial-tool surrogate
* :mod:`repro.spice`          -- transistor-level reference simulator
* :mod:`repro.analysis`       -- area / power / activity analysis
* :mod:`repro.obs`            -- tracing, metrics, run telemetry
* :mod:`repro.serve`          -- multi-tenant optimization daemon
"""

import logging as _logging

from repro.api import Job, JobError, RunRecord, Session, SweepSpec
from repro.cells.library import Library, default_library
from repro.iscas.loader import benchmark_names, load_benchmark
from repro.netlist.circuit import Circuit

__version__ = "1.1.0"

# Library convention: never emit log records unless the application
# configures logging.  Opt in with e.g. ``pops serve --log-level info``.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

__all__ = [
    "__version__",
    "Job",
    "JobError",
    "SweepSpec",
    "RunRecord",
    "Session",
    "Library",
    "default_library",
    "Circuit",
    "benchmark_names",
    "load_benchmark",
]
