"""Shared fixtures for the paper-reproduction bench harness.

Every bench prints the rows/series of its table or figure in the paper's
layout (run with ``-s`` to see them inline; pytest captures them otherwise)
and times its POPS kernel with pytest-benchmark.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Tuple

import pytest

from repro.buffering.insertion import default_flimits
from repro.cells.library import default_library
from repro.iscas.loader import load_benchmark
from repro.timing.critical_paths import critical_path


@pytest.fixture(scope="session")
def lib():
    return default_library()


@pytest.fixture(scope="session")
def limits(lib):
    """Library Flimit characterisation (protocol step 1), done once."""
    return default_flimits(lib)


#: The circuit subset used by the heavier benches (full paper set minus
#: c6288, whose 116-gate path makes the AMPS baseline dominate wall time;
#: the Tmin benches include it).
CORE_CIRCUITS = (
    "adder16",
    "c432",
    "c499",
    "c880",
    "c1355",
    "c1908",
    "c3540",
    "c5315",
    "c7552",
)


@pytest.fixture(scope="session")
def paths(lib):
    """name -> extracted critical path, for the paper's benchmark set."""
    out = {}
    for name in CORE_CIRCUITS + ("c6288", "fpd"):
        out[name] = critical_path(load_benchmark(name), lib)
    return out


#: Tables are also appended here so a captured run (no ``-s``) still
#: leaves the regenerated paper tables on disk.
TABLES_PATH = os.path.join(os.path.dirname(__file__), "..", "bench_tables.txt")


@pytest.fixture(scope="session", autouse=True)
def _fresh_tables_file():
    with open(TABLES_PATH, "w", encoding="utf-8") as handle:
        handle.write("# Regenerated paper tables (latest bench run)\n")
    yield


def emit(title: str, body: str) -> None:
    """Print a bench's paper-style output block (and persist it)."""
    bar = "=" * max(len(title), 20)
    block = f"\n{bar}\n{title}\n{bar}\n{body}\n"
    print(block)
    with open(TABLES_PATH, "a", encoding="utf-8") as handle:
        handle.write(block)


def paired_overhead(
    wrapped: Callable[[], object],
    core: Callable[[], object],
    rounds: int,
    calls: int,
    epsilon_s: float,
) -> Tuple[float, float, float]:
    """Overhead of ``wrapped`` over ``core`` from paired, alternated rounds.

    Each round times ``calls`` calls of each arm back to back, and the
    arm that goes first alternates.  The overhead is the median over
    rounds of ``wrapped / (core + epsilon_s)``, minus one: pairing within
    a round cancels the host's speed changes, which comparing each arm's
    best round does not.  On a shared 2-vCPU host the best-round ratio
    of a 0.5% overhead ranged from -28% to +34% over twelve runs, and
    this estimator from -1.7% to +1.4%.  Returns ``(overhead,
    best_wrapped_s, best_core_s)``.
    """
    times = {wrapped: [], core: []}
    for index in range(rounds):
        for arm in (wrapped, core) if index % 2 == 0 else (core, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                arm()
            times[arm].append(time.perf_counter() - start)
    ratios = [w / (c + epsilon_s) for w, c in zip(times[wrapped], times[core])]
    return statistics.median(ratios) - 1.0, min(times[wrapped]), min(times[core])
