"""Quickstart: the Session / Job facade in sixty seconds.

The canonical entry point is :class:`repro.Session`:

1. open a session (it owns the characterised 0.25 um library and caches
   every expensive artefact -- Flimit table, benchmarks, STA, bounds);
2. declare a :class:`repro.Job`: which circuit, how hard a constraint;
3. ``session.bounds(job)`` gives the critical path's [Tmin, Tmax] window;
4. ``session.optimize(job)`` runs the paper's Fig. 7 protocol;
5. every result is a ``RunRecord`` -- inspect it live or archive it as
   lossless JSON.

Run:  python examples/quickstart.py
"""

import json

from repro import Job, Session


def main() -> None:
    session = Session()
    library = session.library
    print(f"process          : {library.tech.name} (VDD {library.tech.vdd} V)")
    print(f"minimum drive    : CREF = {library.cref:.2f} fF")

    # One declarative job: the 'fpd' benchmark, constrained to 1.3 x Tmin.
    job = Job(benchmark="fpd", tc_ratio=1.3)

    window = session.bounds(job)
    bounds = window.payload["bounds"]
    print(f"\nbenchmark        : {job.name} "
          f"({window.extra['path_gates']} gates on the critical path)")
    print(f"Tmax (min area)  : {bounds.tmax_ps:7.1f} ps   "
          f"(sum W = {bounds.area_tmax_um:.1f} um)")
    print(f"Tmin             : {bounds.tmin_ps:7.1f} ps   "
          f"(sum W = {bounds.area_tmin_um:.1f} um)")

    # The protocol picks the cheapest adequate technique for the job.
    record = session.optimize(job)
    outcome = record.payload
    tc = record.extra["tc_ps"]
    print(f"\nconstraint Tc    : {tc:7.1f} ps  (1.30 x Tmin)")
    print(f"domain           : {outcome.domain.domain}")
    print(f"method           : {outcome.method}")
    print(f"achieved delay   : {outcome.delay_ps:7.1f} ps  "
          f"(slack {outcome.slack_ps:+.1f} ps)")
    print(f"area             : {outcome.area_um:7.1f} um  "
          f"(vs {bounds.area_tmin_um:.1f} um at full speed)")

    # A second job on the same benchmark hits every session cache: the
    # Flimit table, the extraction and the eq. 4 bounds are all reused.
    relaxed = session.optimize(job.with_constraint(tc_ratio=3.0))
    print(f"\nrelaxed Tc       : {relaxed.extra['tc_ps']:7.1f} ps "
          f"-> method {relaxed.payload.method!r}, "
          f"area {relaxed.payload.area_um:.1f} um")
    caches = session.cache_stats()["caches"]
    print("cache hits/misses: " + ", ".join(
        f"{name} {c['hits']}/{c['misses']}" for name, c in caches.items()
    ))

    # An impossible constraint: the delay window says so up front,
    # instead of letting an iterative sizer loop forever (section 3.1).
    print(f"\nTc = 0.8 x Tmin  : sizing feasible = "
          f"{bounds.feasible(0.8 * bounds.tmin_ps)} "
          "(structure modification required -- see the protocol example)")

    # Every record serializes losslessly -- the archival / transport form.
    envelope = json.loads(record.to_json())
    print(f"\nrecord envelope  : kind={envelope['kind']!r}, "
          f"keys={sorted(envelope)}")


if __name__ == "__main__":
    main()
