"""Sizing vs guard band: what process variation costs a sized circuit.

The paper motivates its deterministic bounds by the margins iterative
flows must carry against uncertainty ("very large safety margins
resulting in oversized designs", section 2).  The ``repro.mc`` batch
engine makes that story quantitative at circuit scale:

1. optimize c880 at several constraint levels (circuit scope), buying
   successively tighter nominal delays with silicon;
2. Monte-Carlo each optimized sizing across hundreds of process
   corners in one vectorized pass (compiled once per structure,
   corners as array draws);
3. read off, per sizing, the guard band a blind flow would need
   (p99 / nominal) and the yield the nominal constraint achieves.

The tight sizings pay area *and* still need a guard band -- the margin
is a property of the process spread, not of how hard the optimizer
worked, which is exactly the paper's argument for knowing the bounds.

Run:  python examples/yield_study.py
"""

from repro import Job, Session
from repro.mc import mc_analyze

BENCH = "c880"
TC_RATIOS = (1.4, 1.8, 2.4)
SAMPLES = 400


def main() -> None:
    session = Session()
    print(f"benchmark    : {BENCH}")
    print(f"corners      : {SAMPLES} per sizing "
          "(tau/R/Vt/C spreads, die-to-die defaults)\n")

    header = (f"{'Tc/Tmin':>8}  {'Tc (ps)':>9}  {'area (um)':>10}  "
              f"{'nominal (ps)':>12}  {'guard band':>10}  {'yield@Tc':>8}")
    print(header)
    print("-" * len(header))
    for ratio in TC_RATIOS:
        job = Job(benchmark=BENCH, tc_ratio=ratio, scope="circuit",
                  k_paths=2, max_passes=3)
        record = session.optimize(job)
        sized = record.payload.circuit
        tc_ps = record.extra["tc_ps"]

        result = mc_analyze(
            sized,
            session.library,
            n_samples=SAMPLES,
            tc_ps=tc_ps,
            compiled=session.compiled(sized),
        )
        print(f"{ratio:>8.2f}  {tc_ps:>9.1f}  "
              f"{record.extra['area_um']:>10.1f}  "
              f"{result.nominal_ps:>12.1f}  "
              f"{result.guard_band:>10.3f}  "
              f"{result.yield_fraction:>8.3f}")

    # The compiled struct-of-arrays form is cached per structure: three
    # sizings of one netlist share one compilation.
    compiled = session.cache_stats()["caches"]["compiled"]
    print(f"\ncompilations : {compiled['misses']} "
          f"({compiled['hits']} sizings re-bound)")
    print("guard band   : p99 / nominal -- the margin a variation-blind "
          "flow must add")


if __name__ == "__main__":
    main()
