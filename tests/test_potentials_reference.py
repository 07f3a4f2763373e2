"""K-path potentials from stored arc timings vs the per-arc reference.

:func:`~repro.timing.critical_paths.k_critical_paths` guides its search
with reverse potentials read from the arc timings the STA annotation
already holds (:attr:`~repro.timing.sta.StaResult.arcs`).  The loop they
replaced re-timed every fan-in arc through the delay backend under the
STA slews; it is kept below as the reference.  The two must agree with
``==`` -- on the potentials and on the extracted paths -- on every CORE
circuit under both delay backends, for an ``analyze()`` annotation and
for an incremental engine after randomized edit sequences.
"""

import os

import pytest

from repro.cells.library import default_library
from repro.iscas.loader import load_benchmark
from repro.liberty import library_from_lib
from repro.timing import critical_paths
from repro.timing.critical_paths import k_critical_paths
from repro.timing.delay_model import Edge
from repro.timing.sta import analyze, gate_sizes

from test_incremental import EDIT_CIRCUITS, random_edit_sequence
from test_mc import CORE_CIRCUITS

SAMPLE_LIB = os.path.join(
    os.path.dirname(__file__), "..", "examples", "sample_nldm.lib"
)

#: Paths extracted per comparison (the circuit driver's default K).
K = 4


def reference_potentials(circuit, library, sta):
    """The per-arc loop: every fan-in arc re-timed under the STA slews."""
    sizes = gate_sizes(circuit, library)
    loads = sta.loads_ff
    slews = {
        net: {edge: ev.transition_ps for edge, ev in per_net.items()}
        for net, per_net in sta.arrivals.items()
    }
    fanout = circuit.fanout_map()
    output_set = set(circuit.outputs)
    backend = library.delay_backend
    potential = {}
    all_nets = list(circuit.inputs) + circuit.topological_order()
    for net in reversed(all_nets):
        for edge in (Edge.RISE, Edge.FALL):
            best = 0.0 if net in output_set else float("-inf")
            slew = slews.get(net, {}).get(edge, 0.0)
            for succ in fanout.get(net, ()):
                cell = library.cell(circuit.gates[succ].kind)
                timing = backend.gate_timing(
                    cell, library.tech, sizes[succ], loads[succ], slew, edge
                )
                downstream = potential.get((succ, timing.output_edge))
                if downstream is None:
                    continue
                best = max(best, timing.delay_ps + downstream)
            if best > float("-inf"):
                potential[(net, edge)] = best
    return potential


def reference_paths(circuit, library, sta, monkeypatch):
    """``k_critical_paths`` searching under the reference potentials."""
    with monkeypatch.context() as patch:
        patch.setattr(
            critical_paths,
            "_reverse_potentials",
            lambda outputs, sta_: reference_potentials(circuit, library, sta_),
        )
        return k_critical_paths(circuit, library, k=K, sta=sta)


def assert_potentials_match(circuit, library, sta, monkeypatch, context=""):
    got = critical_paths._reverse_potentials(circuit.outputs, sta)
    assert got == reference_potentials(circuit, library, sta), context
    paths = k_critical_paths(circuit, library, k=K, sta=sta)
    assert paths == reference_paths(circuit, library, sta, monkeypatch), context
    assert paths


@pytest.fixture(scope="module", params=("analytic", "nldm"))
def backend_lib(request):
    if request.param == "analytic":
        return default_library()
    return library_from_lib(SAMPLE_LIB)


@pytest.mark.parametrize("name", CORE_CIRCUITS)
def test_analyze_annotation(name, backend_lib, monkeypatch):
    circuit = load_benchmark(name)
    sta = analyze(circuit, backend_lib)
    assert_potentials_match(circuit, backend_lib, sta, monkeypatch, name)


@pytest.mark.parametrize("name", EDIT_CIRCUITS)
@pytest.mark.parametrize("seed", [0, 1])
def test_engine_after_random_edits(name, seed, backend_lib, monkeypatch):
    for step, circuit, engine in random_edit_sequence(name, backend_lib, seed):
        if step % 5 == 4:
            assert_potentials_match(
                circuit, backend_lib, engine.result(), monkeypatch,
                f"{name} seed={seed} step={step}",
            )
