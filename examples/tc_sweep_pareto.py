"""Tc-sweep campaigns and Pareto frontiers: the curves behind the paper.

Every figure of the paper is a curve over the constraint axis -- delay
bounds (Fig. 1), area vs ``Tc`` per technique (Figs. 4/8), the
constraint-domain map (Fig. 6).  ``repro.explore`` turns one session
into those curves:

1. declare a :class:`repro.SweepSpec` -- benchmarks x constraint points
   (x weight modes x restructuring, if you want the full grid);
2. ``run_sweep`` walks the grid *warm-started*: characterisation,
   bounds, first-pass extraction and eq. 4 fixed points are shared, and
   each point's incremental STA engine is seeded from the nearest
   already-solved neighbour -- with payloads byte-identical to cold runs;
3. give it a ``store`` directory and every completed point's record is
   filed in a content-addressed store; re-running with ``resume=True``
   skips them;
4. the summary table marks the delay/area/power Pareto frontier.

Run:  python examples/tc_sweep_pareto.py
"""

from repro import Session, SweepSpec
from repro.explore import run_sweep


def main() -> None:
    session = Session()
    spec = SweepSpec(
        benchmarks=("fpd",),
        tc_ratio_points=(1.1, 1.25, 1.4, 1.6, 1.8, 2.2),
        k_paths=2,
        max_passes=3,
    )
    print(f"sweep        : {spec.benchmarks} x {spec.points} "
          f"({spec.point_count} points)")

    # store="campaigns/fpd-demo" + resume=True would make this resumable.
    result = run_sweep(session, spec)
    print(f"computed     : {result.computed} points "
          f"in {result.elapsed_s:.2f} s (warm-started)\n")

    print(result.summary.format())

    frontier = result.summary.frontier()
    print(f"\nPareto front : {len(frontier)} of {len(result.records)} points")
    for point in frontier:
        print(f"  {point.label:30s} delay {point.delay_ps:7.1f} ps  "
              f"area {point.area_um:6.1f} um  power {point.power_uw:6.2f} uW")

    # The per-point records are full RunRecord envelopes: everything the
    # single-job API returns, archived losslessly.
    record = result.records[0]
    print(f"\nfirst record : {record.job.label!r} -> "
          f"{record.payload.critical_delay_ps:.1f} ps, "
          f"feasible={record.payload.feasible}")

    # Session cache stats show the warm-start at work: one benchmark
    # parse, one bounds solve, one extraction -- not one per point.
    caches = session.cache_stats()["caches"]
    print(f"cache stats  : bounds_misses={caches['bounds']['misses']}, "
          f"path_misses={caches['paths']['misses']}, "
          f"jobs_run={session.stats.jobs_run}")


if __name__ == "__main__":
    main()
