"""``pops`` command-line interface: thin wrappers over the Session facade.

Subcommands mirror the protocol steps:

* ``pops characterize``             -- library Flimit table (Table 2 style)
* ``pops bounds <benchmark>``       -- Tmin/Tmax of the critical path
* ``pops optimize <benchmark>``     -- run the Fig. 7 protocol at a Tc
* ``pops report <benchmark>``       -- STA timing report
* ``pops power <benchmark>``        -- area / activity / power report
* ``pops sweep <benchmark...>``     -- Tc-sweep campaign + Pareto frontier
* ``pops mc <benchmark...>``        -- Monte-Carlo corner analysis / yield
* ``pops trace <file>``             -- render a trace JSONL / run telemetry
* ``pops benchmarks``               -- list the registered circuits
* ``pops lib <file.lib>``           -- inspect/validate an NLDM Liberty file

``optimize``, ``sweep`` and ``mc`` accept ``--trace <file.jsonl>`` to
record hierarchical spans (see :mod:`repro.obs`) for ``pops trace``.

Analysis subcommands accept ``--backend {analytic,nldm}`` plus
``--liberty <file.lib>`` to run the whole stack off characterised NLDM
tables instead of the closed-form eq. 1-3 model (see
:mod:`repro.timing.backend`); ``--liberty`` alone implies
``--backend nldm``.

The serving surface (see :mod:`repro.serve`):

* ``pops serve``                    -- run the multi-tenant daemon
* ``pops submit <kind> <benchmark>``-- run a job through the daemon
* ``pops status``                   -- daemon stats (queue, caches, store)
* ``pops shutdown``                 -- stop the daemon (drained by default)

Every analysis subcommand accepts ``--json`` to emit the run record as a
lossless JSON envelope (see :mod:`repro.api.records`) instead of the
human-readable text -- the machine surface campaigns script against.
Failures are machine-parseable too: with ``--json`` an error prints a
single ``{"error": {"type", "message"}}`` object on stdout, the human
line goes to stderr, and the exit code is nonzero (2 for designed
spec/usage errors, 1 for everything else).  Set ``POPS_DEBUG=1`` to get
the traceback instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import __version__
from repro.api import Job, Session, SweepSpec
from repro.protocol.report import format_table


def _parse_points(text: str) -> List[float]:
    """Parse a constraint axis: ``"1.1,1.3,1.7"`` or ``"1.1:2.0:10"``.

    The colon form is an inclusive linear range ``start:stop:count``.
    """
    text = text.strip()
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise argparse.ArgumentTypeError(
                f"range must be start:stop:count, got {text!r}"
            )
        start, stop = float(fields[0]), float(fields[1])
        count = int(fields[2])
        if count < 1:
            raise argparse.ArgumentTypeError("range count must be >= 1")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    try:
        points = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad constraint list {text!r}") from None
    if not points:
        raise argparse.ArgumentTypeError("constraint list is empty")
    return points


def _session(args: argparse.Namespace) -> Session:
    backend = getattr(args, "backend", None)
    liberty = getattr(args, "liberty", None)
    if liberty is not None and backend is None:
        backend = "nldm"
    tracer = None
    if getattr(args, "trace", None):
        from repro.obs import Tracer

        tracer = Tracer()
    return Session(
        bench_dir=getattr(args, "bench_dir", None),
        backend=backend,
        liberty=liberty,
        tracer=tracer,
    )


def _export_trace(args: argparse.Namespace, session: Session) -> None:
    """Write the session's spans to ``--trace`` (no-op without the flag)."""
    path = getattr(args, "trace", None)
    if path and session.tracer.enabled:
        count = session.tracer.export_jsonl(path)
        print(f"trace       : {count} span(s) -> {path}", file=sys.stderr)


def _job(kind: str, args: argparse.Namespace, benchmark: str) -> Job:
    """The ``Job`` that ``pops <kind>`` and ``pops submit <kind>`` run."""
    if kind == "optimize":
        return Job(
            benchmark=benchmark,
            tc_ps=args.tc_ps,
            tc_ratio=args.tc_ratio if args.tc_ps is None else None,
            scope=args.scope,
            k_paths=args.k_paths,
            weight_mode=args.weight_mode,
            allow_restructuring=not args.no_restructuring,
        )
    if kind == "power":
        return Job(
            benchmark=benchmark,
            frequency_mhz=args.frequency,
            activity_vectors=args.vectors,
        )
    if kind == "mc":
        return Job(
            benchmark=benchmark,
            tc_ps=args.yield_at,
            mc_samples=args.samples,
            mc_seed=args.seed,
        )
    return Job(benchmark=benchmark)  # bounds


def _emit(args: argparse.Namespace, record) -> bool:
    """Print the JSON envelope when requested; returns True if handled."""
    if getattr(args, "json", False):
        print(record.to_json(indent=2))
        return True
    return False


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    from repro.iscas.loader import benchmark_names, load_benchmark

    rows = []
    for name in benchmark_names():
        stats = load_benchmark(name).stats()
        rows.append((name, stats["total_gates"], stats["inputs"], stats["depth"]))
    if getattr(args, "json", False):
        print(
            json.dumps(
                [
                    {"name": n, "gates": g, "inputs": i, "depth": d}
                    for n, g, i, d in rows
                ],
                indent=2,
            )
        )
        return 0
    print(format_table(("circuit", "gates", "inputs", "depth"), rows))
    return 0


def _cmd_lib(args: argparse.Namespace) -> int:
    """Load/validate a Liberty ``.lib`` and report its table geometry."""
    from repro.cells.gate_types import num_inputs
    from repro.liberty import library_from_lib
    from repro.timing.backend import backend_fo4
    from repro.timing.delay_model import fanout_four_delay

    library = library_from_lib(args.lib)
    backend = library.delay_backend
    tables = backend.tables
    tech = library.tech
    cells = []
    for kind in tables.kinds():
        cell = library.cells[kind]
        cin_ref = float(tables.cin_ref[tables.kind_index[kind]])
        fo4_nldm = backend_fo4(cell, tech, cin_ref, backend)
        fo4_analytic = fanout_four_delay(cell, tech, cin_ref)
        cells.append(
            {
                "cell": kind.value,
                "arcs": num_inputs(kind),
                "cin_ref_ff": cin_ref,
                "fo4_nldm_ps": fo4_nldm,
                "fo4_analytic_ps": fo4_analytic,
                "fo4_delta_pct": 100.0 * (fo4_nldm - fo4_analytic) / fo4_analytic,
            }
        )
    if getattr(args, "json", False):
        print(
            json.dumps(
                {
                    "lib": args.lib,
                    "digest": tables.digest,
                    "n_cells": tables.n_cells,
                    "slew_axis_ps": list(tables.slew_axis),
                    "load_axis_ff": list(tables.load_axis),
                    "cells": cells,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"library      : {args.lib}")
    print(f"digest       : {tables.digest}")
    print(f"cells        : {tables.n_cells}")
    print(
        f"slew axis    : {len(tables.slew_axis)} points, "
        f"{tables.slew_axis[0]:g}..{tables.slew_axis[-1]:g} ps"
    )
    print(
        f"load axis    : {len(tables.load_axis)} points, "
        f"{tables.load_axis[0]:g}..{tables.load_axis[-1]:g} fF"
    )
    rows = [
        (
            entry["cell"],
            entry["arcs"],
            f"{entry['cin_ref_ff']:.3f}",
            f"{entry['fo4_nldm_ps']:.2f}",
            f"{entry['fo4_analytic_ps']:.2f}",
            f"{entry['fo4_delta_pct']:+.2f}%",
        )
        for entry in cells
    ]
    print()
    print(
        format_table(
            ("cell", "arcs", "cin_ref (fF)", "FO4 nldm (ps)",
             "FO4 analytic (ps)", "delta"),
            rows,
            title="NLDM cells (FO4 figures per backend)",
        )
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    record = _session(args).characterize(with_simulation=args.simulate)
    if _emit(args, record):
        return 0
    rows = []
    for entry in record.payload:
        rows.append(
            (
                entry.driver.value,
                entry.gate.value,
                entry.computed,
                entry.simulated if entry.simulated is not None else "-",
            )
        )
    print(
        format_table(
            ("driver", "gate", "Flimit (calc)", "Flimit (sim)"),
            rows,
            title="Library characterization (paper Table 2)",
        )
    )
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    record = _session(args).bounds(_job("bounds", args, args.benchmark))
    if _emit(args, record):
        return 0
    bounds = record.payload["bounds"]
    print(f"benchmark        : {args.benchmark}")
    print(f"critical path    : {record.extra['path_gates']} gates")
    print(f"Tmax (min area)  : {bounds.tmax_ps:.1f} ps")
    print(f"Tmin             : {bounds.tmin_ps:.1f} ps")
    print(f"area at Tmax     : {bounds.area_tmax_um:.1f} um")
    print(f"area at Tmin     : {bounds.area_tmin_um:.1f} um")
    print(f"eq.4 iterations  : {bounds.iterations}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    job = _job("optimize", args, args.benchmark)
    session = _session(args)
    record = session.optimize(job)
    _export_trace(args, session)
    if _emit(args, record):
        return 0
    outcome = record.payload
    tc = record.extra["tc_ps"]
    tmin = record.extra["tmin_ps"]
    print(f"benchmark   : {args.benchmark}")
    print(f"Tmin        : {tmin:.1f} ps")
    print(f"Tc          : {tc:.1f} ps ({tc / tmin:.2f} x Tmin)")
    if args.scope == "path":
        print(f"domain      : {outcome.domain.domain}")
        print(f"method      : {outcome.method}")
        print(f"delay       : {outcome.delay_ps:.1f} ps (slack {outcome.slack_ps:.1f})")
        print(f"area (sumW) : {outcome.area_um:.1f} um")
        print(f"feasible    : {outcome.feasible}")
    else:
        print(f"passes      : {outcome.passes}")
        print(f"paths run   : {len(outcome.path_results)}")
        print(f"delay       : {outcome.critical_delay_ps:.1f} ps")
        print(f"area (sumW) : {record.extra['area_um']:.1f} um")
        print(f"feasible    : {outcome.feasible}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.iscas.loader import load_benchmark
    from repro.timing.report import timing_report

    session = _session(args)
    circuit = load_benchmark(args.benchmark, bench_dir=args.bench_dir)
    sta = session.sta(circuit)
    tc = args.tc_ps if args.tc_ps is not None else 1.1 * sta.critical_delay_ps
    report = timing_report(
        circuit, session.library, tc, k_paths=args.paths, sta=sta
    )
    if getattr(args, "json", False):
        print(
            json.dumps(
                {
                    "circuit": report.circuit_name,
                    "tc_ps": report.tc_ps,
                    "critical_delay_ps": report.critical_delay_ps,
                    "worst_slack_ps": report.worst_slack_ps,
                    "violated": report.violated,
                    "max_transition_ps": report.max_transition_ps,
                    "endpoints": [
                        {
                            "net": e.net,
                            "edge": e.edge.value,
                            "arrival_ps": e.arrival_ps,
                            "slack_ps": e.slack_ps,
                        }
                        for e in report.endpoints
                    ],
                    "worst_paths": [
                        {"gates": list(gates), "delay_ps": delay}
                        for gates, delay in report.worst_paths
                    ],
                },
                indent=2,
            )
        )
        return 0
    print(report.render())
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    job = _job("power", args, args.benchmark)
    record = _session(args).power(job)
    if _emit(args, record):
        return 0
    report = record.payload
    print(f"benchmark        : {args.benchmark}")
    print(f"area (sum W)     : {record.extra['area_um']:.1f} um")
    print(f"mean activity    : {record.extra['mean_activity']:.3f} toggles/vector")
    print(f"dynamic power    : {report.dynamic_uw:.2f} uW @ {args.frequency} MHz")
    print(f"short-circuit    : {report.short_circuit_uw:.2f} uW")
    print(f"total            : {report.total_uw:.2f} uW")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.explore import run_sweep

    restructuring = {
        "on": (True,),
        "off": (False,),
        "both": (True, False),
    }[args.restructure]
    spec = SweepSpec(
        benchmarks=tuple(args.benchmarks),
        tc_ps_points=tuple(args.tc_ps or ()),
        tc_ratio_points=tuple(args.tc_ratios or ()) if not args.tc_ps else (),
        scope=args.scope,
        k_paths=args.k_paths,
        max_passes=args.max_passes,
        weight_modes=tuple(args.weight_modes.split(",")),
        restructuring=restructuring,
        bench_dir=args.bench_dir,
        label=args.label,
    )
    if args.resume and args.store is None:
        print("error: --resume requires --store", file=sys.stderr)
        return 2

    def progress(done: int, total: int, label: str) -> None:
        print(f"[{done}/{total}] {label}", file=sys.stderr)

    session = _session(args)
    result = run_sweep(
        session,
        spec,
        store=args.store,
        resume=args.resume,
        workers=args.workers,
        chunk_size=args.chunk_size,
        with_power=not args.no_power,
        with_yield=args.with_yield,
        progress=progress if not args.quiet else None,
    )
    _export_trace(args, session)
    if getattr(args, "json", False):
        print(result.record().to_json(indent=2))
        return 0
    print(result.summary.format())
    frontier = result.summary.frontier_labels()
    print(
        f"\npoints      : {len(result.records)} "
        f"({result.computed} computed, {result.resumed} resumed)"
    )
    print(f"pareto      : {len(frontier)} point(s) on the frontier")
    print(f"elapsed     : {result.elapsed_s:.2f} s")
    if args.store is not None:
        print(f"campaign    : {args.store}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    from repro.api.store import ResultStore, spec_key

    session = _session(args)
    jobs = [_job("mc", args, name) for name in args.benchmarks]
    records = [session.mc(job) for job in jobs]
    _export_trace(args, session)

    paths = []
    if args.store is not None:
        store = ResultStore(args.store, session.metrics)
        paths = [
            store.put(spec_key("mc", record.job.to_dict()), record.to_dict())
            for record in records
        ]

    if getattr(args, "json", False):
        if len(records) == 1:
            print(records[0].to_json(indent=2))
        else:
            print(
                json.dumps(
                    [record.to_dict() for record in records],
                    indent=2,
                    sort_keys=True,
                )
            )
        return 0

    rows = []
    for record in records:
        result = record.payload
        rows.append(
            (
                record.job.benchmark,
                result.n_samples,
                f"{result.nominal_ps:.1f}",
                f"{result.mean_ps:.1f}",
                f"{result.std_ps:.1f}",
                f"{result.p99_ps:.1f}",
                f"{result.guard_band:.3f}",
                "-"
                if result.yield_fraction is None
                else f"{result.yield_fraction:.3f}",
            )
        )
    print(
        format_table(
            (
                "circuit",
                "corners",
                "nominal (ps)",
                "mean (ps)",
                "std (ps)",
                "p99 (ps)",
                "guard band",
                "yield",
            ),
            rows,
            title="Monte-Carlo corner analysis (fixed sizing)",
        )
    )
    if len(records) == 1:
        result = records[0].payload
        worst = sorted(
            result.endpoints, key=lambda e: e.nominal_ps, reverse=True
        )[: args.endpoints]
        endpoint_rows = [
            (
                e.net,
                f"{e.nominal_ps:.1f}",
                f"{e.p99_ps:.1f}",
                "-" if e.yield_frac is None else f"{e.yield_frac:.3f}",
            )
            for e in worst
        ]
        print()
        print(
            format_table(
                ("endpoint", "nominal (ps)", "p99 (ps)", "yield"),
                endpoint_rows,
                title=f"Worst endpoints ({result.name})",
            )
        )
    for path in paths:
        print(f"record      : {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a trace JSONL or a run record's telemetry block."""
    from repro.obs import (
        load_trace_jsonl,
        render_record_telemetry,
        render_spans,
    )

    try:
        with open(args.file, encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "kind" in data and "payload" in data:
        print(render_record_telemetry(data))
        return 0
    spans = load_trace_jsonl(args.file)
    print(render_spans(spans, max_rows=args.max_rows))
    return 0


def _serve_client(args: argparse.Namespace):
    """A :class:`repro.serve.ServeClient` for the daemon args address."""
    from repro.resilience import RetryPolicy
    from repro.serve import ServeClient

    retries = getattr(args, "retries", None)
    retry = RetryPolicy(attempts=retries) if retries else None
    if getattr(args, "port", None):
        return ServeClient(
            host=args.host, port=args.port, timeout_s=args.timeout,
            retry=retry,
        )
    return ServeClient(
        socket_path=args.socket, timeout_s=args.timeout, retry=retry
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant optimization daemon until shutdown."""
    import asyncio
    import logging
    import signal

    from repro.resilience import RetryPolicy
    from repro.serve import PopsServer, ServeConfig

    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            stream=sys.stderr,
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        )

    config = ServeConfig(
        socket_path=None if args.port else args.socket,
        host=args.host if args.port else None,
        port=args.port or 0,
        threads=args.threads,
        heavy_threads=args.heavy_threads,
        procs=args.procs,
        store_dir=args.store,
        cache_limit=args.cache_limit,
        bench_dir=args.bench_dir,
        timeout_s=args.job_timeout,
        retry=RetryPolicy(attempts=max(1, args.retries)),
        breaker_failures=args.breaker_failures,
        breaker_cooldown_s=args.breaker_cooldown,
    )

    async def daemon() -> None:
        server = PopsServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: loop.create_task(server.shutdown(drain=True)),
                )
            except (NotImplementedError, RuntimeError):
                pass  # platforms/loops without signal handler support
        ready = {"event": "ready", "pid": os.getpid(), **server.address}
        print(json.dumps(ready, sort_keys=True), flush=True)
        await server.wait_closed()
        print(
            json.dumps(
                {"event": "closed", "serve": server.stats.as_dict()},
                sort_keys=True,
            ),
            flush=True,
        )

    asyncio.run(daemon())
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Run one job through the daemon; stream progress to stderr."""
    job = _job(args.kind, args, args.benchmark)

    def on_event(event) -> None:
        if not args.quiet:
            print(json.dumps(event, sort_keys=True), file=sys.stderr)

    done = _serve_client(args).submit(
        args.kind,
        job,
        priority=args.priority,
        no_cache=args.no_cache,
        on_event=on_event,
        timeout_s=args.deadline,
    )
    record = done["record"]
    if getattr(args, "json", False):
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    print(f"kind     : {record['kind']}")
    print(f"benchmark: {args.benchmark}")
    print(f"cached   : {bool(done.get('cached', False))}")
    if "elapsed_s" in done:
        print(f"elapsed  : {done['elapsed_s']:.3f} s")
    for name in sorted(record.get("extra", {})):
        value = record["extra"][name]
        text = f"{value:.3f}" if isinstance(value, float) else str(value)
        print(f"{name:<9}: {text}")
    return 0


def _cmd_serve_status(args: argparse.Namespace) -> int:
    """Print the daemon's observability snapshot."""
    status = _serve_client(args).status()
    if getattr(args, "json", False):
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    serve = status["serve"]
    print(f"pops     : {status['pops']} (protocol v{status['version']})")
    print(f"pid      : {status['pid']}  uptime {status['uptime_s']:.1f} s")
    print(f"draining : {status['draining']}")
    print(
        f"queue    : depth {status['queue']['depth']}, "
        f"inflight {status['queue']['inflight']}"
    )
    print(
        "serve    : "
        + ", ".join(f"{k}={serve[k]}" for k in sorted(serve))
    )
    resilience = status["resilience"]
    breaker = resilience["breaker"]
    counters = resilience["counters"]
    parts = [f"breaker={breaker['state']}"]
    if resilience["timeout_s"] is not None:
        parts.append(f"deadline={resilience['timeout_s']:g}s")
    parts.append(f"retry_attempts={resilience['retry']['attempts']}")
    parts.extend(
        f"{name.split('.', 1)[1]}={counters[name]}" for name in sorted(counters)
    )
    print("resilience: " + ", ".join(parts))
    caches = status["session"]["caches"]
    rows = [
        (
            name,
            caches[name]["size"],
            caches[name]["maxsize"] or "-",
            caches[name]["hits"],
            caches[name]["misses"],
            "-"
            if caches[name].get("hit_rate") is None
            else f"{caches[name]['hit_rate']:.2f}",
            caches[name]["evictions"],
        )
        for name in sorted(caches)
    ]
    print()
    print(
        format_table(
            ("cache", "size", "max", "hits", "misses", "hit rate", "evictions"),
            rows,
            title="Session caches",
        )
    )
    if "store" in status:
        store = status["store"]
        print(
            f"\nstore    : {store['records']} record(s), "
            f"{store['hits']} hit(s), {store['writes']} write(s)"
        )
    return 0


def _cmd_serve_shutdown(args: argparse.Namespace) -> int:
    """Ask the daemon to stop (drained unless --now)."""
    ack = _serve_client(args).shutdown(drain=not args.now)
    if getattr(args, "json", False):
        print(json.dumps(ack, indent=2, sort_keys=True))
        return 0
    mode = "immediate" if args.now else "drained"
    print(f"shutdown : {mode} ({ack.get('queued', 0)} job(s) outstanding)")
    return 0


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    """Delay-model backend flags shared by the analysis subcommands."""
    parser.add_argument(
        "--backend",
        choices=("analytic", "nldm"),
        default=None,
        help="delay model: closed-form eq. 1-3 (default) or NLDM tables",
    )
    parser.add_argument(
        "--liberty",
        default=None,
        metavar="FILE.lib",
        help="Liberty file for the NLDM backend (implies --backend nldm)",
    )


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    """Daemon addressing flags shared by every client subcommand."""
    parser.add_argument(
        "--socket",
        default="/tmp/pops-serve.sock",
        help="daemon unix socket path (default /tmp/pops-serve.sock)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="daemon TCP host (with --port)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="daemon TCP port (switches addressing from --socket)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="client socket timeout in seconds",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``pops`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="pops",
        description="POPS low-power CMOS circuit optimization protocol (DATE'05)",
    )
    parser.add_argument(
        "--version", action="version", version=f"pops {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("benchmarks", help="list registered benchmark circuits")
    p_bench.add_argument("--json", action="store_true", help="machine-readable output")

    p_char = sub.add_parser("characterize", help="library Flimit table")
    p_char.add_argument(
        "--simulate",
        action="store_true",
        help="also derive Flimit from the transistor-level simulator (slow)",
    )
    p_char.add_argument("--json", action="store_true", help="emit the run record")

    p_lib = sub.add_parser(
        "lib", help="inspect/validate an NLDM Liberty (.lib) file"
    )
    p_lib.add_argument("lib", help="path to the .lib file")
    p_lib.add_argument("--json", action="store_true", help="machine-readable report")

    p_bounds = sub.add_parser("bounds", help="critical path delay bounds")
    p_bounds.add_argument("benchmark", help="benchmark name (see 'benchmarks')")
    p_bounds.add_argument("--bench-dir", default=None, help="real .bench directory")
    _add_backend_args(p_bounds)
    p_bounds.add_argument("--json", action="store_true", help="emit the run record")

    p_opt = sub.add_parser("optimize", help="run the optimization protocol")
    p_opt.add_argument("benchmark")
    p_opt.add_argument("--bench-dir", default=None, help="real .bench directory")
    _add_backend_args(p_opt)
    group = p_opt.add_mutually_exclusive_group()
    group.add_argument("--tc-ps", type=float, default=None, help="constraint in ps")
    group.add_argument(
        "--tc-ratio",
        type=float,
        default=1.5,
        help="constraint as a multiple of Tmin (default 1.5)",
    )
    p_opt.add_argument(
        "--scope",
        choices=("path", "circuit"),
        default="path",
        help="optimize the critical path or the whole netlist",
    )
    p_opt.add_argument(
        "--k-paths", type=int, default=4, help="paths per circuit-scope pass"
    )
    p_opt.add_argument(
        "--weight-mode",
        choices=("uniform", "area"),
        default="uniform",
        help="eq. 6 sensitivity weights",
    )
    p_opt.add_argument(
        "--no-restructuring",
        action="store_true",
        help="forbid the De Morgan fallback for infeasible constraints",
    )
    p_opt.add_argument(
        "--trace",
        default=None,
        metavar="FILE.jsonl",
        help="record hierarchical spans to a trace JSONL file",
    )
    p_opt.add_argument("--json", action="store_true", help="emit the run record")

    p_sweep = sub.add_parser(
        "sweep", help="Tc-sweep campaign with Pareto frontier extraction"
    )
    p_sweep.add_argument(
        "benchmarks", nargs="+", help="benchmark names (see 'benchmarks')"
    )
    p_sweep.add_argument("--bench-dir", default=None, help="real .bench directory")
    _add_backend_args(p_sweep)
    sweep_axis = p_sweep.add_mutually_exclusive_group()
    sweep_axis.add_argument(
        "--tc-ratios",
        type=_parse_points,
        default=[1.1, 1.4, 1.7, 2.0],
        help="Tc axis as multiples of Tmin: '1.1,1.5' or '1.1:2.0:10' "
        "(default 1.1,1.4,1.7,2.0)",
    )
    sweep_axis.add_argument(
        "--tc-ps",
        type=_parse_points,
        default=None,
        help="absolute Tc axis in ps, same list/range syntax",
    )
    p_sweep.add_argument(
        "--scope",
        choices=("circuit", "path"),
        default="circuit",
        help="protocol scope per grid point (default circuit)",
    )
    p_sweep.add_argument(
        "--k-paths", type=int, default=4, help="paths per circuit-scope pass"
    )
    p_sweep.add_argument(
        "--max-passes", type=int, default=6, help="circuit-scope pass limit"
    )
    p_sweep.add_argument(
        "--weight-modes",
        default="uniform",
        help="comma list of sizing weight modes to cross (uniform,area)",
    )
    p_sweep.add_argument(
        "--restructure",
        choices=("on", "off", "both"),
        default="on",
        help="De Morgan fallback axis (default on)",
    )
    p_sweep.add_argument(
        "--label", default=None, help="campaign tag prefixed onto point labels"
    )
    p_sweep.add_argument(
        "--store", default=None,
        help="campaign directory (manifest plus content-addressed records)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip points already stored in --store",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=None, help="process-pool fan-out"
    )
    p_sweep.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="split a benchmark's points into warm chunks of this size",
    )
    p_sweep.add_argument(
        "--no-power",
        action="store_true",
        help="skip the power objective in the summary",
    )
    p_sweep.add_argument(
        "--with-yield",
        action="store_true",
        help="attach Monte-Carlo yields (fourth Pareto objective)",
    )
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress"
    )
    p_sweep.add_argument(
        "--trace",
        default=None,
        metavar="FILE.jsonl",
        help="record hierarchical spans to a trace JSONL file",
    )
    p_sweep.add_argument("--json", action="store_true", help="emit the sweep record")

    p_mc = sub.add_parser(
        "mc", help="Monte-Carlo corner analysis (delay distribution, yield)"
    )
    p_mc.add_argument(
        "benchmarks", nargs="+", help="benchmark names (see 'benchmarks')"
    )
    p_mc.add_argument("--bench-dir", default=None, help="real .bench directory")
    _add_backend_args(p_mc)
    p_mc.add_argument(
        "--samples", type=int, default=1000, help="process corners to sample"
    )
    p_mc.add_argument("--seed", type=int, default=42, help="corner rng seed")
    p_mc.add_argument(
        "--yield-at",
        type=float,
        default=None,
        help="delay constraint (ps) to report yield against",
    )
    p_mc.add_argument(
        "--endpoints",
        type=int,
        default=5,
        help="worst endpoints to detail (single-benchmark runs)",
    )
    p_mc.add_argument(
        "--store",
        default=None,
        help="content-addressed record store directory (one record per job)",
    )
    p_mc.add_argument(
        "--trace",
        default=None,
        metavar="FILE.jsonl",
        help="record hierarchical spans to a trace JSONL file",
    )
    p_mc.add_argument("--json", action="store_true", help="emit the run record(s)")

    p_trace = sub.add_parser(
        "trace", help="render a trace JSONL or a run record's telemetry"
    )
    p_trace.add_argument(
        "file", help="a --trace JSONL file or a run-record JSON envelope"
    )
    p_trace.add_argument(
        "--max-rows",
        type=int,
        default=200,
        help="span-tree rows to print before eliding (default 200)",
    )

    p_report = sub.add_parser("report", help="STA timing report")
    p_report.add_argument("benchmark")
    p_report.add_argument("--bench-dir", default=None)
    _add_backend_args(p_report)
    p_report.add_argument("--tc-ps", type=float, default=None)
    p_report.add_argument("--paths", type=int, default=3)
    p_report.add_argument("--json", action="store_true",
                          help="machine-readable report")

    p_power = sub.add_parser("power", help="area / activity / power report")
    p_power.add_argument("benchmark")
    p_power.add_argument("--bench-dir", default=None)
    _add_backend_args(p_power)
    p_power.add_argument("--frequency", type=float, default=100.0,
                         help="clock frequency in MHz")
    p_power.add_argument("--vectors", type=int, default=128,
                         help="random vectors for activity estimation")
    p_power.add_argument("--json", action="store_true", help="emit the run record")

    p_serve = sub.add_parser(
        "serve", help="run the multi-tenant optimization daemon"
    )
    p_serve.add_argument(
        "--socket",
        default="/tmp/pops-serve.sock",
        help="unix socket to listen on (default /tmp/pops-serve.sock)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP host (with --port)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen on TCP instead of the unix socket (0 = ephemeral)",
    )
    p_serve.add_argument(
        "--threads", type=int, default=4, help="light worker threads"
    )
    p_serve.add_argument(
        "--heavy-threads", type=int, default=2,
        help="heavy (optimize/sweep) worker threads",
    )
    p_serve.add_argument(
        "--procs", type=int, default=0,
        help="process-pool size for optimize/sweep (0 = in-thread)",
    )
    p_serve.add_argument(
        "--store", default=None,
        help="content-addressed result store directory",
    )
    p_serve.add_argument(
        "--cache-limit", type=int, default=1024,
        help="per-cache LRU entry bound for the shared session",
    )
    p_serve.add_argument("--bench-dir", default=None, help="real .bench directory")
    p_serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job deadline (jobs/submits may override; "
        "unset = no deadline)",
    )
    p_serve.add_argument(
        "--retries", type=int, default=3,
        help="pool-supervision attempts per job after a worker crash "
        "(default 3)",
    )
    p_serve.add_argument(
        "--breaker-failures", type=int, default=3,
        help="consecutive pool failures before the circuit breaker trips "
        "to in-thread execution (default 3)",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe (default 30)",
    )
    p_serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="enable structured daemon logging to stderr at this level",
    )

    p_submit = sub.add_parser(
        "submit", help="run one job through the serve daemon"
    )
    p_submit.add_argument(
        "kind", choices=("bounds", "optimize", "power", "mc"),
        help="what to run",
    )
    p_submit.add_argument("benchmark", help="benchmark name (see 'benchmarks')")
    _add_client_args(p_submit)
    p_submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (lower runs sooner, default 0)",
    )
    p_submit.add_argument(
        "--no-cache", action="store_true",
        help="bypass the daemon's result store",
    )
    p_submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="server-side job deadline (--timeout is the client socket "
        "timeout)",
    )
    p_submit.add_argument(
        "--retries", type=int, default=3,
        help="client reconnect-and-resubmit attempts on a dropped "
        "stream (default 3)",
    )
    submit_tc = p_submit.add_mutually_exclusive_group()
    submit_tc.add_argument("--tc-ps", type=float, default=None,
                           help="constraint in ps (optimize)")
    submit_tc.add_argument(
        "--tc-ratio", type=float, default=1.5,
        help="constraint as a multiple of Tmin (optimize, default 1.5)",
    )
    p_submit.add_argument(
        "--scope", choices=("path", "circuit"), default="path",
        help="optimize scope",
    )
    p_submit.add_argument(
        "--k-paths", type=int, default=4, help="paths per circuit-scope pass"
    )
    p_submit.add_argument(
        "--weight-mode", choices=("uniform", "area"), default="uniform",
        help="eq. 6 sensitivity weights (optimize)",
    )
    p_submit.add_argument(
        "--no-restructuring", action="store_true",
        help="forbid the De Morgan fallback (optimize)",
    )
    p_submit.add_argument(
        "--frequency", type=float, default=100.0,
        help="clock frequency in MHz (power)",
    )
    p_submit.add_argument(
        "--vectors", type=int, default=128,
        help="random vectors for activity estimation (power)",
    )
    p_submit.add_argument(
        "--samples", type=int, default=1000, help="MC corners (mc)"
    )
    p_submit.add_argument("--seed", type=int, default=42, help="MC rng seed (mc)")
    p_submit.add_argument(
        "--yield-at", type=float, default=None,
        help="delay constraint (ps) to report yield against (mc)",
    )
    p_submit.add_argument(
        "--quiet", action="store_true",
        help="suppress the NDJSON event stream on stderr",
    )
    p_submit.add_argument("--json", action="store_true", help="emit the run record")

    p_status = sub.add_parser("status", help="serve daemon observability snapshot")
    _add_client_args(p_status)
    p_status.add_argument("--json", action="store_true",
                          help="machine-readable status")

    p_shutdown = sub.add_parser("shutdown", help="stop the serve daemon")
    _add_client_args(p_shutdown)
    p_shutdown.add_argument(
        "--now", action="store_true",
        help="stop running jobs at their next checkpoint and fail the "
        "queued backlog instead of draining it",
    )
    p_shutdown.add_argument("--json", action="store_true",
                            help="machine-readable ack")
    return parser


_COMMANDS = {
    "benchmarks": _cmd_benchmarks,
    "lib": _cmd_lib,
    "characterize": _cmd_characterize,
    "bounds": _cmd_bounds,
    "optimize": _cmd_optimize,
    "report": _cmd_report,
    "power": _cmd_power,
    "sweep": _cmd_sweep,
    "mc": _cmd_mc,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_serve_status,
    "shutdown": _cmd_serve_shutdown,
}


def _designed_errors() -> tuple:
    """Exception types that mean 'bad input/spec', not 'pops bug'."""
    from repro.api import JobError
    from repro.explore import CampaignError
    from repro.liberty import LibertyError
    from repro.serve import ProtocolError, ServeClientError

    return (
        JobError,
        CampaignError,
        LibertyError,
        ProtocolError,
        ServeClientError,
        KeyError,
        FileNotFoundError,
    )


def _fail(args: argparse.Namespace, exc: BaseException) -> int:
    """Uniform failure surface: JSON on stdout (with --json), message on
    stderr, exit 2 for designed errors and 1 for unexpected ones."""
    message = str(exc) or repr(exc)
    if isinstance(exc, KeyError) and exc.args:
        # str(KeyError) wraps the message in quotes; unwrap it.
        message = str(exc.args[0])
    designed = isinstance(exc, _designed_errors())
    if getattr(args, "json", False):
        print(
            json.dumps(
                {"error": {"type": type(exc).__name__, "message": message}},
                indent=2,
                sort_keys=True,
            )
        )
    print(f"error: {message}", file=sys.stderr)
    return 2 if designed else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (head, jq -e ...) closed the pipe early;
        # silence the shutdown traceback and exit with the SIGPIPE code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        if os.environ.get("POPS_DEBUG"):
            raise
        return _fail(args, exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
