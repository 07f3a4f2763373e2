"""The benchmark's workloads: job lists, the serve traffic mix, output checks.

Every check uses an evaluator independent of the code path that produced
the record: a from-scratch ``timing.sta.analyze`` for circuits, the eq. 1
path evaluator for path results, and a JSON round trip for served
records (a served repeat must also equal the first answer to its spec).
"""

from __future__ import annotations

import json
import math
import random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Constraint ratios of the served path jobs: hard (restructuring), medium, weak.
PATH_RATIOS = (0.85, 1.1, 1.5)

#: Paper Table 1, POPS constraint distribution per path (ms).
PAPER_TABLE1_POPS_MS = {
    "adder16": 159, "fpd": 19, "c432": 29, "c499": 30, "c880": 29,
    "c1355": 49, "c1908": 49, "c3540": 69, "c5315": 90, "c7552": 69,
}

#: Netlists each in-process workload loads during set-up.
BENCHMARKS = {
    "circuit-c7552": ("c7552",),
}

#: Layers each workload must reach (a zero count fails the traced run)
#: and layers it must bypass (a non-zero count fails it).
STRESS = {
    "circuit-c7552": (
        "timing.extract", "timing.sta", "sizing.tmin", "sizing.bounds",
        "sizing.distribute", "protocol.path", "protocol.circuit",
        "api.serialize", "explore.store",
    ),
    "serve-mix": (
        "sizing.tmin", "sizing.bounds", "sizing.distribute", "buffering.insert",
        "restructuring.demorgan", "protocol.path", "protocol.circuit",
        "analysis.power", "mc", "api.serialize",
    ),
}
BYPASS = {
    "circuit-c7552": ("buffering.insert", "restructuring.demorgan", "analysis.power", "mc"),
    "serve-mix": ("explore.store",),
}


def circuit_c7552_spec() -> Any:
    """The ROADMAP headline, circuit-scope optimize of c7552 at 1.3 x Tmin,
    as a one-point sweep so that its record is journaled to a campaign."""
    from repro.api.job import SweepSpec

    return SweepSpec(benchmarks=("c7552",), tc_ratio_points=(1.3,), scope="circuit")


# -- serve-mix --------------------------------------------------------------

#: Set-up job that makes the daemon characterise its Flimit table.
#: fpd appears nowhere in the mix, so warm-up fills no cache a request reads.
WARMUP = ("optimize", {"benchmark": "fpd", "scope": "path", "tc_ratio": 3.0})

#: Exact repeats added to the distinct catalogue in every serve pass.
SERVE_REPEATS = 6
#: Requests per chunk: a pass sends its list in chunks, each finished
#: before the next starts, so that every chunk is a timed segment.
SERVE_CHUNK = 5


def request_kind(request: Tuple[str, Dict[str, Any]]) -> Tuple[str, Any, str, Any]:
    """The class a serve request is interleaved by: all but its mc seed.

    Requests of one class cost the same (Monte-Carlo runs that differ in
    their sample seed, or a request and its repeats), so the seed, which
    only permutes requests within a class, leaves the load each pass puts
    on the daemon unchanged; it changes the Monte-Carlo samples.
    """
    spec = request[1]
    return request[0], spec.get("scope"), spec["benchmark"], spec.get("tc_ratio")


def serve_catalogue(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The distinct requests of one serve pass, as ``(kind, job dict)``.

    Path-scope optimizations on three circuits at three ratios (all four
    Fig. 7 methods), one circuit-scope optimization, Monte-Carlo runs
    (their sample seeds drawn from ``seed``), delay bounds and power
    reports: about five seconds of work.
    """
    mc_seeds = random.Random(f"serve-mix-mc:{seed}").sample(range(1, 10_000), 3)
    path = [
        ("optimize", {"benchmark": name, "scope": "path", "tc_ratio": ratio})
        for name in ("adder16", "c432", "c880")
        for ratio in PATH_RATIOS
    ]
    circuit = [("optimize", {"benchmark": "c432", "scope": "circuit", "tc_ratio": 2.0})]
    mc = [
        ("mc", {"benchmark": name, "mc_samples": 500, "mc_seed": mc_seed})
        for name, mc_seed in zip(("c880", "c880", "c7552"), mc_seeds)
    ]
    bounds = [("bounds", {"benchmark": name}) for name in ("adder16", "c880", "c5315", "c7552")]
    power = [("power", {"benchmark": name}) for name in ("adder16", "c880")]
    return path + circuit + mc + bounds + power


# -- output checks ----------------------------------------------------------


def check_record(record: Any, library: Any) -> Optional[str]:
    """Re-derive a record's headline number independently; ``None`` if it holds."""
    from repro.api.records import KIND_MC, KIND_OPTIMIZE_CIRCUIT, KIND_OPTIMIZE_PATH
    from repro.iscas.loader import load_benchmark
    from repro.timing.evaluation import evaluate_path
    from repro.timing.sta import analyze

    payload = record.payload
    if record.kind == KIND_OPTIMIZE_CIRCUIT:
        delay = analyze(payload.circuit, library).critical_delay_ps
        if delay != payload.critical_delay_ps:
            return f"STA gives {delay!r} ps, record says {payload.critical_delay_ps!r}"
    elif record.kind == KIND_OPTIMIZE_PATH:
        delay = evaluate_path(payload.path, payload.sizes, library).total_delay_ps
        if delay != payload.delay_ps:
            return f"path evaluates to {delay!r} ps, record says {payload.delay_ps!r}"
        if payload.feasible != (payload.delay_ps <= payload.tc_ps):
            return f"feasible={payload.feasible} but delay {payload.delay_ps} vs Tc {payload.tc_ps}"
    elif record.kind == KIND_MC:
        nominal = analyze(load_benchmark(record.job.benchmark), library).critical_delay_ps
        if nominal != payload.nominal_ps:
            return f"STA gives {nominal!r} ps, mc nominal is {payload.nominal_ps!r}"
    return None


def check_round_trip(data: Dict[str, Any], library: Any) -> Optional[str]:
    """A served record must rebuild to itself, timing fields aside."""
    from repro.api.records import RunRecord

    expected = {k: v for k, v in data.items() if k not in ("timing", "telemetry")}
    rebuilt = RunRecord.from_dict(data, library=library).to_dict(with_timing=False)
    if json.loads(json.dumps(rebuilt)) != expected:
        return "record does not survive from_dict/to_dict"
    return None


def quality(records: Iterable[Any]) -> Dict[str, float]:
    """Area and constraint outcome summed over optimize records."""
    from repro.api.records import KIND_OPTIMIZE_CIRCUIT, KIND_OPTIMIZE_PATH

    areas, excesses = [], []
    met = 0
    for record in records:
        if record.kind == KIND_OPTIMIZE_CIRCUIT:
            delay = record.payload.critical_delay_ps
            tc = record.extra["tc_ps"]
            areas.append(record.extra["area_um"])
        elif record.kind == KIND_OPTIMIZE_PATH:
            delay = record.payload.delay_ps
            tc = record.payload.tc_ps
            areas.append(record.payload.area_um)
        else:
            continue
        met += delay <= tc
        excesses.append(max(0.0, delay - tc))
    # fsum is exact, so the totals do not depend on the (seeded) request order.
    return {
        "area_um": math.fsum(areas),
        "tc_excess_ps": math.fsum(excesses),
        "tc_met_frac": met / len(areas) if areas else 0.0,
        "optimize_jobs": len(areas),
    }


def cache_totals(sessions: Sequence[Any]) -> Dict[str, List[int]]:
    """``cache -> [hits, misses]`` summed over sessions' ``cache_stats()``."""
    totals: Dict[str, List[int]] = {}
    for session in sessions:
        for name, stats in session.cache_stats()["caches"].items():
            entry = totals.setdefault(name, [0, 0])
            entry[0] += stats["hits"]
            entry[1] += stats["misses"]
    return totals
