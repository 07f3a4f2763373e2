"""Pure helpers of the benchmark: best-of-rounds, span self times, request lists.

Nothing here imports the program under test, so the helpers can be
unit-tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import random
import statistics
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple

#: Name of the root span the benchmark opens around each job.
ROOT_SPAN = "perfbench.job"


def median(values: Iterable[float]) -> float:
    """Median of the samples (mean of the middle two for an even count)."""
    return float(statistics.median(list(values)))


def best_of_rounds(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per position, the smallest value any round took there.

    Rounds are replicas of one fixed sequence of segments (or requests),
    so position ``i`` names the same work in every round.  On a shared
    host each CPU switches between two speeds (about 1.6x apart) for
    seconds to a minute at a time; the best of a short segment over the
    rounds reads the fast speed whenever the run met it, where a median
    of long rounds reads whatever mix of the two the run met.
    """
    if not rounds:
        raise ValueError("best of no rounds")
    width = len(rounds[0])
    if any(len(r) != width for r in rounds):
        raise ValueError(f"rounds differ in length: {sorted({len(r) for r in rounds})}")
    return [min(r[i] for r in rounds) for i in range(width)]


def self_times(spans: Sequence[Mapping[str, Any]]) -> Dict[int, float]:
    """Self time of every span: its duration minus its direct children's.

    Spans are :meth:`repro.obs.Span.to_dict` dicts (``id``, ``parent``,
    ``dur_s``).  Children of one span run on the parent's thread, one
    after another, so their durations never overlap and their sum is the
    part of the parent's interval they cover.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + float(span["dur_s"])
    return {
        span["id"]: float(span["dur_s"]) - covered.get(span["id"], 0.0)
        for span in spans
    }


def layer_totals(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, summed self seconds)`` over all spans of each name."""
    own = self_times(spans)
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        calls, self_s = totals.get(span["name"], (0, 0.0))
        totals[span["name"]] = (calls + 1, self_s + own[span["id"]])
    return totals


def unattributed_frac(spans: Sequence[Mapping[str, Any]]) -> float:
    """Share of the root spans' wall time that no layer span covers."""
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == ROOT_SPAN]
    wall = sum(float(s["dur_s"]) for s in roots)
    if wall <= 0.0:
        raise ValueError(f"no {ROOT_SPAN!r} span with a positive duration")
    return sum(own[s["id"]] for s in roots) / wall


def request_list(
    catalogue: Sequence[Any],
    n_repeats: int,
    seed: str,
    kind: Callable[[Any], Hashable],
) -> List[Any]:
    """Every catalogue entry once plus ``n_repeats`` exact repeats, seeded order.

    The repeats are evenly spaced catalogue entries, so every seed sends
    the same requests and quality totals over distinct jobs never depend
    on it.  The sequence of request kinds is one fixed interleaving; the
    seed decides which request of a kind fills each of its places, and
    with it which repeats coalesce with a running original and which hit
    the result store.  Fixing the kinds keeps a heavy request meeting
    the same mix of concurrent work under every seed.
    """
    step = len(catalogue) / n_repeats if n_repeats else 0
    requests = list(catalogue) + [catalogue[int(i * step)] for i in range(n_repeats)]
    places = [kind(request) for request in requests]
    random.Random(0).shuffle(places)
    rng = random.Random(seed)
    pools: Dict[Hashable, List[Any]] = {}
    for request in requests:
        pools.setdefault(kind(request), []).append(request)
    for pool in pools.values():
        rng.shuffle(pool)
    return [pools[place].pop() for place in places]
