"""Compare a pytest-benchmark JSON run against the committed baseline.

Usage::

    python -m pytest benchmarks/test_perf_incremental.py --benchmark-only \
        --benchmark-json=bench_current.json
    python benchmarks/compare_bench.py bench_current.json \
        --baseline BENCH_BASELINE.json [--threshold 0.30] [--update]

Raw wall times are machine-dependent, so every kernel's mean time is
first normalised by the calibration kernel of the *same* run (a pure
Python spin loop: ``test_kernel_calibration``); the normalised ratios
are comparable across hosts.  A kernel regresses when its normalised
time exceeds the baseline's by more than ``--threshold`` (default 30%,
the CI gate).  A kernel on one side only fails the comparison: one
present in the baseline but missing from the current run (deleting a
kernel must be an explicit baseline update -- ``--update`` rewrites the
baseline from the current run), and one in the run with no baseline
entry (a new kernel lands with its baseline, or it is never gated).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

CALIBRATION = "test_kernel_calibration"


def load_means(path: str) -> Dict[str, float]:
    """``kernel name -> mean seconds`` from a pytest-benchmark JSON."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    means = {
        bench["name"]: float(bench["stats"]["mean"])
        for bench in data.get("benchmarks", [])
    }
    if not means:
        raise SystemExit(f"{path}: no benchmarks recorded")
    if CALIBRATION not in means:
        raise SystemExit(f"{path}: calibration kernel {CALIBRATION!r} missing")
    return means


def normalise(means: Dict[str, float]) -> Dict[str, float]:
    """Each kernel's mean divided by the run's calibration mean."""
    cal = means[CALIBRATION]
    return {
        name: mean / cal for name, mean in means.items() if name != CALIBRATION
    }


def compare(
    current: Dict[str, float], baseline: Dict[str, float], threshold: float
) -> int:
    """Print a comparison table; return the number of failures."""
    failures = 0
    width = max((len(n) for n in set(current) | set(baseline)), default=10)
    print(f"{'kernel':<{width}}  {'baseline':>10}  {'current':>10}  {'ratio':>7}  verdict")
    for name in sorted(baseline):
        base = baseline[name]
        if name not in current:
            print(f"{name:<{width}}  {base:>10.4f}  {'MISSING':>10}  {'-':>7}  FAIL")
            failures += 1
            continue
        ratio = current[name] / base if base > 0 else float("inf")
        regressed = ratio > 1.0 + threshold
        verdict = "FAIL" if regressed else "ok"
        failures += int(regressed)
        print(
            f"{name:<{width}}  {base:>10.4f}  {current[name]:>10.4f}  "
            f"{ratio:>6.2f}x  {verdict}"
        )
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<{width}}  {'MISSING':>10}  {current[name]:>10.4f}  {'-':>7}  FAIL (no baseline)")
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="pytest-benchmark JSON of the current run")
    parser.add_argument(
        "--baseline", default="BENCH_BASELINE.json", help="committed baseline JSON"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional slowdown per kernel (default 0.30)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current run instead of comparing",
    )
    args = parser.parse_args(argv)

    current = normalise(load_means(args.current))
    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(
                {"normalised_to": CALIBRATION, "kernels": current},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"baseline written: {args.baseline} ({len(current)} kernels)")
        return 0

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)["kernels"]
    failures = compare(current, baseline, args.threshold)
    if failures:
        print(
            f"\n{failures} kernel(s) regressed beyond {args.threshold:.0%} "
            "or lack a baseline entry"
        )
        return 1
    print(f"\nall kernels within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
