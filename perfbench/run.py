"""End-to-end POPS benchmark: two workloads, checked outputs, per-layer trace.

Usage (from the repository root; needs nothing but the checkout)::

    python3 perfbench/run.py --workload circuit-c7552 --seed 1 --seconds 45 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``circuit-c7552`` -- circuit-scope optimize of c7552 at 1.3 x Tmin, run
  as a one-point ``explore.run_sweep`` into a fresh campaign store, on
  a fresh ``Session`` per round;
* ``serve-mix``     -- ``pops serve`` as its own process, driven by a
  closed loop of two client connections over a seeded request list
  (path-, circuit-scope optimize, mc, bounds, power; about 24% repeats).

The program runs in processes of its own, so no run reads a cache an
earlier run filled.  Set-up is timed from process start until the first
job can be timed, in every process.  circuit-c7552 runs one worker that
repeats the job in rounds on fresh sessions for ``--seconds``.
serve-mix starts a fresh daemon and store for each pass and sends every
pass the same request list, in chunks of :data:`workloads.SERVE_CHUNK`
requests, for ``--seconds``.  Processes that are only set up, timed and
stopped run before and after the timed part, so that ``setup_s`` is a
median of :data:`SETUP_SAMPLES` set-ups at least, spread over the run.

Rounds (c7552 rounds, serve passes) are replicas, each cut into segments
of about a second: optimizer passes and the rest of the round for c7552
(``worker.segments``), chunks for serve-mix.  ``wall_s`` is the sum over
segments of each segment's best time over the rounds, a request's
latency is its best over the passes (:func:`measure.best_of_rounds`),
and ``latency_s.mean`` is the mean over the pass's requests.  On a
shared host each CPU switches between two speeds about 1.6x apart for
seconds to a minute at a time, and medians of whole rounds moved with
it by a third from run to run; the median of the requests' latencies
flipped between two clusters of requests.

``--trace 0`` reports the end-to-end metrics, measured with no
instrumentation loaded.  ``--trace 1`` runs untraced processes beside
processes that wrap each layer's public calls (see ``layers.py``); a
traced process runs one round or pass, so per-layer calls and self
times are per round.  The spans are left in
``.perfbench_runs/trace-<workload>.jsonl`` for ``pops trace``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import measure
import workloads
from layers import LAYERS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS_DIR = ".perfbench_runs"
WORKLOADS = ("circuit-c7552", "serve-mix")

#: Processes whose set-up an untraced run times, at least (setup_s is their median).
#: Set-up-only processes make up the count, half before the timed part, half after.
SETUP_SAMPLES = 4
#: serve-mix passes per run at least, so each segment has a best of three.
MIN_SERVE_PASSES = 3
#: No serve pass starts after this many seconds, keeping a run under 180 s.
LAST_PASS_START_S = 90.0
#: A program process still running after this long is killed.
PROCESS_TIMEOUT_S = 150.0
#: Closed-loop client connections in serve-mix, one per daemon worker thread.
SERVE_CLIENTS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_s.mean": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "area_um": "um",
    "tc_excess_ps": "ps",
}

METHODS = {
    "sizing": "sizing",
    "buffering": "buffering",
    "buffering+sizing": "buffering_sizing",
    "restructuring": "restructuring",
}
SESSION_CACHES = ("benchmarks", "sta", "engines", "paths", "bounds", "compiled", "probes")
SERVE_EXTRAS = {
    "serve.queue_wait_s.p50": "s",
    "serve.queue_wait_s.p90": "s",
    "serve.exec_s.p50": "s",
    "serve.exec_s.p90": "s",
    "serve.store_hits": "count",
    "serve.coalesced": "count",
    "serve.executed": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["sizing.tmin.distinct_frac"] = "ratio"
    units["sizing.distribute.ms_per_call"] = "ms"
    units["protocol.path.ms_per_call"] = "ms"
    for method in METHODS.values():
        units[f"protocol.path.method.{method}"] = "count"
    units["protocol.circuit.passes"] = "count"
    units["protocol.pass.improving_frac"] = "ratio"
    for cache in SESSION_CACHES:
        units[f"api.session.{cache}.hit_rate"] = "ratio"
    units.update(SERVE_EXTRAS)
    units["trace.unattributed_frac"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The program could not be run at all (no result is printed)."""


# -- program processes ------------------------------------------------------


def _spawn(cmd: List[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)


@contextlib.contextmanager
def _supervised(proc: subprocess.Popen) -> Iterator[Dict[str, float]]:
    """Kill ``proc`` on error or timeout; always reap it and record its peak RSS."""
    usage: Dict[str, float] = {}
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        yield usage
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, rusage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        usage["rss_mb"] = rusage.ru_maxrss / 1024.0


def inprocess_process(
    args: argparse.Namespace, spans: Optional[str], workdir: str, seconds: float
) -> Dict[str, Any]:
    """One worker process: set-up, rounds of the job list, checks.

    ``seconds`` of zero runs set-up only.
    """
    cmd = [
        sys.executable, os.path.join("perfbench", "worker.py"),
        "--workload", args.workload, "--seconds", str(seconds), "--workdir", workdir,
    ]
    if spans:
        cmd += ["--spans", spans]
    started = time.perf_counter()
    proc = _spawn(cmd)
    with _supervised(proc) as usage:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        lines = proc.stdout.read().strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {args.workload} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result.update(setup_s=setup_s, rss_mb=usage["rss_mb"], spans=_load_spans(spans))
    return result


def _load_spans(path: Optional[str]) -> Optional[List[Dict[str, Any]]]:
    from repro.obs.trace import load_trace_jsonl

    return load_trace_jsonl(path) if path else None


def _closed_loop(sock: str, requests: List[Tuple[str, Dict[str, Any]]]) -> Tuple[List[Any], float]:
    """Send ``requests`` over :data:`SERVE_CLIENTS` closed-loop connections."""
    from repro.serve import ServeClient

    outcomes: List[Any] = [None] * len(requests)
    order = iter(range(len(requests)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServeClient(socket_path=sock, timeout_s=PROCESS_TIMEOUT_S)
        while True:
            with lock:
                index = next(order, None)
            if index is None:
                return
            kind, spec = requests[index]
            t0 = time.perf_counter()
            try:
                done, error = client.submit(kind, spec), None
            except Exception as exc:  # an error event or a lost daemon fails the request
                done, error = None, repr(exc)
            outcomes[index] = (time.perf_counter() - t0, done, error)

    threads = [threading.Thread(target=client_loop) for _ in range(SERVE_CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - started


@contextlib.contextmanager
def _daemon(rundir: str, spans: Optional[str]) -> Iterator[Tuple[Any, float, Dict[str, float]]]:
    """A fresh ``pops serve`` process, warmed up, shut down and reaped on exit.

    Yields its client, the set-up time (spawn until the warm-up job is
    done) and the usage dict that receives its peak RSS once it exits.
    """
    from repro.serve import ServeClient

    os.makedirs(rundir)
    sock = os.path.join(rundir, "s.sock")
    serve_args = [
        "serve", "--socket", sock, "--store", os.path.join(rundir, "store"),
        "--threads", "1", "--heavy-threads", "1", "--procs", "0",
    ]
    if spans:
        cmd = [sys.executable, os.path.join("perfbench", "serve_daemon.py"), spans] + serve_args
    else:
        cmd = [sys.executable, "-m", "repro"] + serve_args
    started = time.perf_counter()
    proc = _spawn(cmd)
    with _supervised(proc) as usage:
        ready = json.loads(proc.stdout.readline() or "{}")
        if ready.get("event") != "ready":
            raise BenchError("serve daemon did not come up")
        client = ServeClient(socket_path=sock, timeout_s=PROCESS_TIMEOUT_S)
        client.submit(*workloads.WARMUP)
        yield client, time.perf_counter() - started, usage
        client.shutdown()
        proc.stdout.read()
    if proc.returncode != 0:
        raise BenchError(f"serve daemon exited with {proc.returncode}")


def serve_setup(workdir: str, name: str) -> Dict[str, Any]:
    """A daemon that is only set up, timed and shut down."""
    with _daemon(os.path.join(workdir, name), None) as (_, setup_s, _):
        pass
    return {"setup_s": setup_s, "spans": None}


def serve_process(args: argparse.Namespace, index: int, spans: Optional[str], workdir: str) -> Dict[str, Any]:
    """One daemon process: spawn, warm up, serve the request list in chunks, shut down.

    Every pass of a run sends the same list, so passes are replicas.
    """
    from repro.api.records import RunRecord
    from repro.cells.library import default_library
    from repro.serve import ServeClient

    requests = measure.request_list(
        workloads.serve_catalogue(args.seed),
        workloads.SERVE_REPEATS,
        f"serve-mix:{args.seed}",
        kind=workloads.request_kind,
    )
    chunk = workloads.SERVE_CHUNK
    outcomes: List[Any] = []
    walls: List[float] = []
    with _daemon(os.path.join(workdir, f"serve-{index}"), spans) as (client, setup_s, usage):
        for start in range(0, len(requests), chunk):
            done, wall = _closed_loop(client.socket_path, requests[start:start + chunk])
            outcomes += done
            walls.append(wall)
        metrics = client.metrics()

    library = default_library()
    errors: List[str] = []
    records: Dict[str, Any] = {}
    first_answers: Dict[str, Dict[str, Any]] = {}
    for (kind, spec), (latency, done, error) in zip(requests, outcomes):
        if error is not None:
            errors.append(f"{kind} {spec}: {error}")
            continue
        key = ServeClient.spec_key(kind, spec)
        answer = {k: v for k, v in done["record"].items() if k not in ("timing", "telemetry")}
        problem = workloads.check_round_trip(done["record"], library)
        if key not in records:
            records[key] = RunRecord.from_dict(done["record"], library=library)
            first_answers[key] = answer
            problem = problem or workloads.check_record(records[key], library)
        elif answer != first_answers[key]:
            problem = problem or "repeat answered with a different record"
        if problem is not None:
            errors.append(f"{kind} {spec}: {problem}")
    timings = metrics["timings"]
    serve = metrics["serve"]
    return {
        "setup_s": setup_s,
        "rounds": [sum(walls)],
        "segments": [walls],
        "latencies": [[outcome[0] for outcome in outcomes]],
        "attempted": len(requests),
        "errors": errors,
        "quality": workloads.quality(records.values()),
        "rss_mb": usage["rss_mb"],
        "characterizations": metrics["session"]["counters"]["characterizations"],
        "cache": {
            name: [stats["hits"], stats["misses"]]
            for name, stats in metrics["session"]["caches"].items()
        },
        # Each distinct path-scope spec executes once (repeats coalesce or
        # hit the fresh store), plus the warm-up job.
        "path_scope_jobs": 1 + len({
            ServeClient.spec_key(kind, spec)
            for kind, spec in requests
            if kind == "optimize" and spec["scope"] == "path"
        }),
        "spans": _load_spans(spans),
        "serve": {
            "serve.queue_wait_s.p50": timings["serve.queue_wait_s"]["p50"],
            "serve.queue_wait_s.p90": timings["serve.queue_wait_s"]["p90"],
            "serve.exec_s.p50": timings["serve.exec_s"]["p50"],
            "serve.exec_s.p90": timings["serve.exec_s"]["p90"],
            "serve.store_hits": serve["store_hits"],
            "serve.coalesced": serve["coalesced"],
            "serve.executed": serve["executed"],
        },
    }


def run_processes(args: argparse.Namespace, workdir: str) -> List[Dict[str, Any]]:
    """Every program process of one run, in the order they ran."""
    spans = os.path.join(RUNS_DIR, f"trace-{args.workload}.jsonl")
    if args.workload != "serve-mix":
        if args.trace:
            half = args.seconds / 2
            return [
                inprocess_process(args, None, workdir, half),
                inprocess_process(args, spans, workdir, half),
            ]
        only = SETUP_SAMPLES - 1
        before = [inprocess_process(args, None, workdir, 0) for _ in range(only // 2)]
        timed = inprocess_process(args, None, workdir, args.seconds)
        after = [inprocess_process(args, None, workdir, 0) for _ in range(only - only // 2)]
        return before + [timed] + after
    only = 0 if args.trace else SETUP_SAMPLES - MIN_SERVE_PASSES
    setups = [serve_setup(workdir, f"setup-{i}") for i in range(only // 2)]
    passes: List[Dict[str, Any]] = []
    begun = time.perf_counter()
    timed_s = 0.0
    while len(passes) < MIN_SERVE_PASSES or (
        timed_s * (1 + 0.5 / len(passes)) <= args.seconds
        and time.perf_counter() - begun < LAST_PASS_START_S
    ):
        traced = args.trace == 1 and len(passes) % 2 == 1
        passes.append(serve_process(args, len(passes), spans if traced else None, workdir))
        timed_s += passes[-1]["rounds"][0]
    if not args.trace:
        missing = SETUP_SAMPLES - len(setups) - len(passes)
        setups += [serve_setup(workdir, f"setup-{len(setups) + i}") for i in range(missing)]
    return setups + passes


# -- metrics ----------------------------------------------------------------


def end_to_end(processes: List[Dict[str, Any]]) -> Dict[str, float]:
    """The user-visible metrics over untraced processes.

    Timings are best-of-rounds (see the module docstring).  In
    circuit-c7552 a round is one request, so its latency is ``wall_s``.
    """
    timed = [p for p in processes if "rounds" in p]
    wall = sum(measure.best_of_rounds([cut for p in timed for cut in p["segments"]]))
    per_request = [lat for p in timed if p["latencies"] for lat in p["latencies"]]
    latency = statistics.fmean(measure.best_of_rounds(per_request)) if per_request else wall
    requests = timed[0]["attempted"] / len(timed[0]["rounds"])
    quality = timed[0]["quality"]
    return {
        "setup_s": measure.median(p["setup_s"] for p in processes),
        "wall_s": wall,
        "latency_s.mean": latency,
        "jobs_per_s": requests / wall,
        "peak_rss_mb": measure.median(p["rss_mb"] for p in timed),
        "area_um": quality["area_um"],
        "tc_excess_ps": quality["tc_excess_ps"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: str, result: Dict[str, Any]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced process, and the cross-checks it fails."""
    counters = next(s["attrs"] for s in result["spans"] if s["name"] == "perfbench.counters")
    spans = [s for s in result["spans"] if s["name"] != "perfbench.counters"]
    totals = measure.layer_totals(spans)
    attrs: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        attrs.setdefault(span["name"], []).append(span["attrs"])

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    tmin = attrs.get("sizing.tmin", [])
    metrics["sizing.tmin.distinct_frac"] = _ratio(len({a["path_fp"] for a in tmin}), len(tmin))
    for layer in ("sizing.distribute", "protocol.path"):
        metrics[f"{layer}.ms_per_call"] = 1000.0 * _ratio(
            metrics[f"{layer}.self_s"], metrics[f"{layer}.calls"]
        )
    paths = attrs.get("protocol.path", [])
    for method, name in METHODS.items():
        metrics[f"protocol.path.method.{name}"] = sum(1 for a in paths if a["method"] == method)
    circuits = attrs.get("protocol.circuit", [])
    passes = sum(a["passes"] for a in circuits)
    metrics["protocol.circuit.passes"] = passes
    metrics["protocol.pass.improving_frac"] = _ratio(sum(a["improving"] for a in circuits), passes)
    for cache in SESSION_CACHES:
        hits, misses = result["cache"].get(cache, (0, 0))
        metrics[f"api.session.{cache}.hit_rate"] = _ratio(hits, hits + misses)
    for name in SERVE_EXTRAS:
        metrics[name] = result.get("serve", {}).get(name) or 0.0
    metrics["trace.unattributed_frac"] = measure.unattributed_frac(spans)

    problems = []
    characterised = sum(1 for a in attrs.get("buffering.flimits", []) if a["characterised"])
    if characterised != result["characterizations"]:
        problems.append(
            f"buffering.flimits characterised {characterised} tables, "
            f"SessionStats.characterizations says {result['characterizations']}"
        )
    updates = counters["target_calls"].get("repro.timing.incremental:IncrementalSta.update", 0)
    if updates != counters["sta_engine_updates"]:
        problems.append(
            f"wrapped IncrementalSta.update ran {updates} times, "
            f"engine stats count {counters['sta_engine_updates']}"
        )
    expected = sum(a["proposed"] for a in circuits) + result["path_scope_jobs"]
    if metrics["protocol.path.calls"] != expected:
        problems.append(
            f"protocol.path.calls is {metrics['protocol.path.calls']}, telemetry "
            f"proposed plus path-scope jobs is {expected}"
        )
    for layer in workloads.STRESS[workload]:
        if metrics[f"{layer}.calls"] == 0:
            problems.append(f"stress layer {layer} saw no calls")
    for layer in workloads.BYPASS[workload]:
        if metrics[f"{layer}.calls"] != 0:
            problems.append(f"bypassed layer {layer} saw {metrics[f'{layer}.calls']} calls")
    return metrics, problems


def summarize(args: argparse.Namespace, processes: List[Dict[str, Any]]) -> Tuple[Dict[str, Any], List[str]]:
    """The result object and the human-readable report lines."""
    timed = [p for p in processes if "rounds" in p]
    untraced = [p for p in processes if p["spans"] is None]
    traced = [p for p in processes if p["spans"] is not None]
    failures = [error for p in timed for error in p["errors"]]
    attempted = sum(p["attempted"] for p in timed)
    for index, p in enumerate(timed[1:], start=1):
        if p["quality"] != timed[0]["quality"]:
            failures.append(f"process {index} quality {p['quality']} differs from process 0")
    e2e = end_to_end(untraced)
    quality = timed[0]["quality"]
    rounds = " ".join(f"{wall:.3f}" for p in untraced if "rounds" in p for wall in p["rounds"])
    report = [
        f"workload {args.workload}  seed {args.seed}  processes {len(untraced)} untraced"
        f" + {len(traced)} traced",
        f"  untraced rounds (s): {rounds}",
        "  set-ups (s): " + " ".join(f"{p['setup_s']:.3f}" for p in untraced),
    ]
    cuts = [cut for p in untraced if "rounds" in p for cut in p["segments"]]
    report += [
        f"  segments of round {i} (s): " + " ".join(f"{x:.3f}" for x in cut)
        for i, cut in enumerate(cuts)
    ]
    report += [f"  {name:<16} {e2e[name]:>14.6f} {unit}" for name, unit in END_TO_END.items()]
    report.append(f"  {'tc_met_frac':<16} {quality['tc_met_frac']:>14.6f} (of {quality['optimize_jobs']} optimize jobs)")

    if args.trace:
        units = per_layer_units()
        samples: Dict[str, List[float]] = {name: [] for name in units}
        for p in traced:
            metrics, problems = layer_metrics(args.workload, p)
            failures += problems
            for name, value in metrics.items():
                samples[name].append(value)
        untraced_rounds = [wall for p in untraced if "rounds" in p for wall in p["rounds"]]
        samples["trace.overhead"] = [
            measure.median(wall for p in traced for wall in p["rounds"])
            / measure.median(untraced_rounds)
            - 1.0
        ]
        values = {name: sum(vals) / len(vals) for name, vals in samples.items()}
        metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        report.append("  per layer (mean of traced processes):")
        for layer in sorted(LAYERS, key=lambda l: -values[f"{l}.self_s"]):
            report.append(
                f"    {layer:<24} calls {values[layer + '.calls']:>9.1f}"
                f"  self {values[layer + '.self_s']:>9.4f} s"
            )
        paper = ", ".join(f"{k} {v}" for k, v in workloads.PAPER_TABLE1_POPS_MS.items())
        report.append(f"  paper Table 1 POPS ms/path: {paper} (range 19-210)")
        report.append(
            f"  measured self ms/call: sizing.distribute {values['sizing.distribute.ms_per_call']:.2f},"
            f" protocol.path {values['protocol.path.ms_per_call']:.2f}"
        )
        report.append(
            f"  trace.unattributed_frac {values['trace.unattributed_frac']:.4f}"
            f"  trace.overhead {values['trace.overhead']:.4f}"
        )
    else:
        metrics_out = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    report.append(f"  error_rate {len(failures)}/{attempted}")
    report += [f"  FAILED: {failure}" for failure in failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics_out,
    }
    return result, report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        processes = run_processes(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result, report = summarize(args, processes)
    print("\n".join(report))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
