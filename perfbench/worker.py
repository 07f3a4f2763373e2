"""Timed rounds of an in-process workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload circuit-c7552 --seconds 45 \
        --workdir .perfbench_runs/x [--spans trace.jsonl]

The worker sets up (import, library, Flimit table, netlists) and prints
``READY`` so the parent can time set-up from process start; with
``--seconds 0`` it stops there.  Otherwise it runs rounds of the
workload's job list -- each on fresh sessions, so a round reads only the
process-global caches set-up filled -- while the next round is predicted
to end within half a round of ``--seconds``, checks every output and
prints one JSON line with each round's wall time and its segments (see
:func:`segments`).  With ``--spans`` the layer wrappers are installed
before set-up, exactly one round runs, and the spans are exported as
JSONL that ``pops trace`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Any, Dict, List

import workloads
from measure import ROOT_SPAN


def segments(records: List[Any], wall_s: float) -> List[float]:
    """A round's wall time cut into segments of about a second.

    Each optimizer pass (the program's own always-on pass telemetry), the
    rest of each job, and the rest of the round.  The segments sum to
    ``wall_s``, so a later change that moves work between them moves no
    total.
    """
    out: List[float] = []
    for record in records:
        passes = [p["elapsed_s"] for p in (record.telemetry or {}).get("passes", ())]
        out += passes + [record.elapsed_s - sum(passes)]
    return out + [wall_s - sum(record.elapsed_s for record in records)]


def run_circuit_c7552(ctx: Dict[str, Any]) -> Dict[str, Any]:
    """One sweep of the c7552 point on a fresh Session sharing the library."""
    from repro.api.session import Session
    from repro.explore.runner import run_sweep

    session = Session(library=ctx["library"])
    errors: List[str] = []
    records: List[Any] = []
    started = time.perf_counter()
    try:
        with ctx["root"]():
            result = run_sweep(
                session,
                workloads.circuit_c7552_spec(),
                store=os.path.join(ctx["workdir"], f"campaign-{os.getpid()}-{ctx['round']}"),
                with_power=False,
            )
        records = result.records
    except Exception as exc:  # a failed job counts against error_rate
        errors = [f"c7552 sweep: {exc!r}"]
    wall_s = time.perf_counter() - started
    return {
        "wall_s": wall_s,
        "segments": segments(records, wall_s),
        "records": records,
        "errors": errors,
        "sessions": [session],
        "attempted": 1,
        "path_scope_jobs": 0,
    }


RUNNERS = {
    "circuit-c7552": run_circuit_c7552,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = installation = None
    if args.spans:
        import layers
        from repro.obs.trace import Tracer

        tracer = Tracer()
        installation = layers.install(tracer)

    from repro.api.session import Session
    from repro.cells.library import default_library
    from repro.iscas.loader import load_benchmark

    library = default_library()
    setup_session = Session(library=library)
    setup_session.flimits()
    for name in workloads.BENCHMARKS[args.workload]:
        load_benchmark(name)
    print("READY", flush=True)
    if args.seconds == 0:
        print(json.dumps({}), flush=True)
        return 0

    checks = installation.pause if installation else contextlib.nullcontext
    root = (lambda: tracer.span(ROOT_SPAN)) if tracer else contextlib.nullcontext
    walls: List[float] = []
    cuts: List[List[float]] = []
    errors: List[str] = []
    qualities: List[Dict[str, Any]] = []
    cache: Dict[str, List[int]] = {}
    characterizations = setup_session.stats.characterizations
    attempted = path_scope_jobs = 0
    # Start another round only if it should end within half a round of the
    # budget.  A traced worker runs one round, so its counts are per round.
    while not walls or (
        tracer is None and sum(walls) * (1 + 0.5 / len(walls)) <= args.seconds
    ):
        ctx = {
            "library": library,
            "workdir": args.workdir,
            "round": len(walls),
            "root": root,
        }
        outcome = RUNNERS[args.workload](ctx)
        walls.append(outcome["wall_s"])
        cuts.append(outcome["segments"])
        errors += outcome["errors"]
        attempted += outcome["attempted"]
        path_scope_jobs += outcome["path_scope_jobs"]
        with checks():
            for record in outcome["records"]:
                problem = workloads.check_record(record, library)
                if problem is not None:
                    errors.append(f"{record.job.name}: {problem}")
        qualities.append(workloads.quality(outcome["records"]))
        if qualities[-1] != qualities[0]:
            errors.append(f"round {len(walls) - 1} quality {qualities[-1]} differs from round 0")
        # Keep counts, not sessions: a finished round must not hold memory.
        for name, (hits, misses) in workloads.cache_totals(outcome["sessions"]).items():
            totals = cache.setdefault(name, [0, 0])
            totals[0] += hits
            totals[1] += misses
        characterizations += sum(s.stats.characterizations for s in outcome["sessions"])
        del outcome
    if tracer is not None:
        installation.counters_event()
        tracer.export_jsonl(args.spans)

    print(json.dumps({
        "rounds": walls,
        "segments": cuts,
        # One request per round, timed by the round's segments.
        "latencies": None,
        "attempted": attempted,
        "errors": errors,
        "quality": qualities[0],
        "characterizations": characterizations,
        "cache": cache,
        "path_scope_jobs": path_scope_jobs,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
