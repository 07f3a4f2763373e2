"""The full Fig. 7 protocol on an ISCAS'85 benchmark, via the Session API.

Opens a session, sweeps four delay constraints over one benchmark's
critical path and lets the protocol pick the technique (sizing, buffer
insertion, restructuring) for each -- the per-path version of the paper's
evaluation.  The sweep is a list of declarative Jobs run through
``session.optimize_many``; the session characterises the library and
extracts the path once, every job after the first rides the caches.

Run:  python examples/iscas_protocol_flow.py [benchmark]
"""

import sys

from repro import Job, Session


def main(benchmark: str = "c432") -> None:
    session = Session()
    print("characterising library (Flimit table) ...")

    base = Job(benchmark=benchmark)
    circuit = session.resolve_circuit(base)
    stats = circuit.stats()
    print(f"benchmark        : {benchmark}  "
          f"({stats['total_gates']} gates, depth {stats['depth']})")

    window = session.bounds(base)
    bounds = window.payload["bounds"]
    print(f"critical path    : {window.extra['path_gates']} gates, "
          f"{window.extra['extraction_delay_ps']:.0f} ps at minimum drive")
    print(f"delay window     : Tmin {bounds.tmin_ps:.0f} ps ... "
          f"Tmax {bounds.tmax_ps:.0f} ps")

    ratios = (3.0, 1.6, 1.1, 0.97)
    jobs = [base.with_constraint(tc_ratio=ratio) for ratio in ratios]
    records = session.optimize_many(jobs)

    print(f"\n{'Tc/Tmin':<9}{'domain':<12}{'method':<18}"
          f"{'delay (ps)':<12}{'area (um)':<11}{'feasible'}")
    for ratio, record in zip(ratios, records):
        outcome = record.payload
        print(
            f"{ratio:<9.2f}{outcome.domain.domain.value:<12}"
            f"{outcome.method:<18}{outcome.delay_ps:<12.0f}"
            f"{outcome.area_um:<11.0f}{outcome.feasible}"
        )

    caches = session.cache_stats()["caches"]
    print(f"\nsession caches   : {session.stats.characterizations} "
          f"characterisation(s), {caches['bounds']['hits']} bounds hits, "
          f"{caches['paths']['hits']} extraction hits")
    print(
        "\nReading the table: the weak constraint needs only sizing; as Tc"
        "\ntightens the protocol reaches for buffers, and below Tmin only a"
        "\nstructure modification (extra stages) can meet the constraint."
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "c432")
