"""Liberty/NLDM support: parse ``.lib`` files into delay backends.

The package provides the table side of the pluggable delay-backend
seam (:mod:`repro.timing.backend`):

* :mod:`repro.liberty.parser` -- a minimal Liberty group parser;
* :mod:`repro.liberty.tables` -- stacked NLDM tables + the shared
  bilinear interpolation kernels;
* :mod:`repro.liberty.nldm` -- the :class:`NldmBackend` implementing
  scalar and batch surfaces from the tables;
* :mod:`repro.liberty.export` -- characterise an analytic library into
  ``.lib`` text (the sample-library generator).

:func:`library_from_lib` is the one-call entry point the CLI and the
:class:`~repro.api.session.Session` use: parse a ``.lib``, build the
backend, and assemble a :class:`~repro.cells.library.Library` whose
sizing floors come from the characterised pin capacitances.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cells.gate_types import GateKind
from repro.cells.library import Library, default_library
from repro.liberty.export import export_library, write_library
from repro.liberty.nldm import NldmBackend
from repro.liberty.parser import (
    LibertyError,
    LibertyGroup,
    parse_liberty,
    parse_liberty_file,
)
from repro.liberty.tables import NldmTables
from repro.process.technology import Technology

__all__ = [
    "LibertyError",
    "LibertyGroup",
    "NldmBackend",
    "NldmTables",
    "export_library",
    "library_from_lib",
    "parse_liberty",
    "parse_liberty_file",
    "write_library",
]


def library_from_lib(path: str, tech: Optional[Technology] = None) -> Library:
    """Load a ``.lib`` file into a :class:`~repro.cells.library.Library`.

    Cells named after a :class:`~repro.cells.gate_types.GateKind`
    (``inv``, ``nand2``, ...) become the library's cell set; other
    cells are skipped.  Each cell keeps the default analytic geometry
    parameters (the area/width metrics stay closed-form) but takes its
    **sizing floor** from the characterised input pin capacitance
    (``cin_min_ff = cin_ref``) and its **timing** from the NLDM tables
    via an :class:`~repro.liberty.nldm.NldmBackend`.

    Parameters
    ----------
    path:
        Path to the ``.lib`` file.
    tech:
        Technology the area/power conversions run under; defaults to
        the 0.25 um process.  Timing does not depend on it except for
        the Monte-Carlo tau-ratio corner scale.
    """
    group = parse_liberty_file(path)
    tables = NldmTables.from_library_group(group)
    backend = NldmBackend(tables)
    defaults = default_library(tech)
    cells = {}
    for kind, idx in tables.kind_index.items():
        base = defaults.cells.get(kind)
        if base is None:  # pragma: no cover - defaults cover every kind
            continue
        cells[kind] = replace(base, cin_min_ff=float(tables.cin_ref[idx]))
    if GateKind.INV not in cells:
        raise LibertyError(f"{path}: the library must characterise an 'inv' cell")
    return Library(tech=defaults.tech, cells=cells, backend=backend)
