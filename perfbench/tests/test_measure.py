"""Self-tests of the benchmark's pure helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import measure  # noqa: E402
import run  # noqa: E402


def span(span_id, parent, dur, name="layer"):
    return {"id": span_id, "parent": parent, "dur_s": dur, "name": name}


def test_best_of_rounds_takes_each_position_minimum():
    rounds = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [2.0, 6.0, 1.5]]
    assert measure.best_of_rounds(rounds) == [1.0, 4.0, 1.5]
    assert measure.best_of_rounds([[0.5]]) == [0.5]
    with pytest.raises(ValueError):
        measure.best_of_rounds([])
    with pytest.raises(ValueError):
        measure.best_of_rounds([[1.0, 2.0], [1.0]])


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, None, 10.0, measure.ROOT_SPAN),
        span(2, 1, 6.0, "a"),
        span(3, 2, 4.0, "b"),
        span(4, 1, 1.0, "b"),
    ]
    own = measure.self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
    assert measure.layer_totals(spans)["b"] == (2, 5.0)


def test_unattributed_share_is_root_self_over_root_wall():
    spans = [
        span(1, None, 10.0, measure.ROOT_SPAN),
        span(2, 1, 9.0, "a"),
        span(3, None, 4.0, measure.ROOT_SPAN),
        span(4, 3, 3.0, "a"),
        span(5, None, 50.0, "a"),  # not under a root: not part of the share
    ]
    assert measure.unattributed_frac(spans) == pytest.approx(2.0 / 14.0)
    with pytest.raises(ValueError):
        measure.unattributed_frac([span(1, None, 1.0, "a")])


def test_request_list_is_seeded_and_keeps_every_distinct_entry():
    catalogue = [("optimize" if i % 3 else "mc", {"benchmark": f"c{i}"}) for i in range(20)]

    def requests(seed):
        return measure.request_list(catalogue, 6, seed, kind=lambda r: r[0])

    first, other = requests("serve-mix:1:0"), requests("serve-mix:2:0")
    assert first == requests("serve-mix:1:0")
    assert first != other
    assert sorted(map(repr, first)) == sorted(map(repr, other))
    assert [r[0] for r in first] == [r[0] for r in other]
    assert len(first) == 26
    assert all(entry in first for entry in catalogue)


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
