"""Deterministic fault injection: seeded plans, named sites, real hooks.

Chaos behaviour must be *repeatable* to be testable, so faults are not
random monkey-patches: production code carries a handful of named
**injection sites** (one cheap module-global check each, inert unless a
plan is installed), and a :class:`FaultPlan` declares exactly which
sites fire on which hit.  The same plan against the same workload fires
the same faults in the same places, every run.

Sites wired into the stack:

========================  ====================================================
:data:`SITE_WORKER_CRASH`  process-pool worker calls ``os._exit`` mid-job
                           (:func:`repro.api.session._chunk_worker`, the
                           one worker entry of batches, sweeps and served
                           optimize jobs) -- the parent observes
                           ``BrokenProcessPool``
:data:`SITE_POOL_BROKEN`   :class:`InlinePool` (the in-process pool double)
                           raises ``BrokenProcessPool`` from ``submit``
:data:`SITE_EXEC_SLOW`     the serve executor sleeps ``delay_s`` before
                           dispatch, a checkpoint (deadline/cancel tests)
:data:`SITE_STREAM_DROP`   :class:`~repro.serve.client.ServeClient` tears its
                           socket down mid event stream
:data:`SITE_TORN_WRITE`    :meth:`~repro.api.store.ResultStore.put` files a
                           truncated record -- a served job's, a campaign
                           point's or a ``pops mc --store`` one
                           (quarantine tests)
========================  ====================================================

Plans install three ways: :func:`install` / :func:`uninstall` (or the
:func:`installed` context manager) for in-process tests, and the
``POPS_FAULT_PLAN`` environment variable naming a saved plan JSON for
daemons and pool workers in other processes (the CI chaos smoke).  A
plan loaded from a file coordinates *cross-process* firing budgets
through ``O_EXCL`` marker files next to the plan, so "crash one worker,
once" stays one crash even though every worker process loads its own
copy.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.resilience.policy import current_token

#: Environment variable naming a saved plan file (daemon / worker hook).
ENV_PLAN = "POPS_FAULT_PLAN"

#: Exit status an injected worker crash dies with (distinguishable from
#: a real interpreter fault in logs).
CRASH_EXIT_CODE = 73

# -- the named injection sites ----------------------------------------

SITE_WORKER_CRASH = "pool.worker_crash"
SITE_POOL_BROKEN = "pool.broken"
SITE_EXEC_SLOW = "executor.slow"
SITE_STREAM_DROP = "client.stream_drop"
SITE_TORN_WRITE = "store.torn_write"

#: Every site production code checks (validation surface).
SITES = (
    SITE_WORKER_CRASH,
    SITE_POOL_BROKEN,
    SITE_EXEC_SLOW,
    SITE_STREAM_DROP,
    SITE_TORN_WRITE,
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire at a site, a bounded number of times.

    Attributes
    ----------
    site:
        The injection point (one of :data:`SITES`).
    times:
        How many hits fire (the budget); further hits pass through.
    after:
        Hits to let through untouched before the first firing -- "drop
        the stream after 2 events" is ``after=2, times=1``.
    delay_s:
        Sleep length for :data:`SITE_EXEC_SLOW` firings.
    """

    site: str
    times: int = 1
    after: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"site must be one of {SITES}, got {self.site!r}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Hit counting is per site and per process; whether hit ``n`` fires is
    a pure function of the plan (``after <= n < after + times`` for some
    spec).  With a ``state_dir`` (set automatically by :meth:`load`),
    each firing additionally claims an ``O_EXCL`` marker file, making
    the ``times`` budget global across processes -- exactly one worker
    crashes no matter how many workers load the plan.

    ``seed`` is part of the plan identity (it rides through
    :meth:`to_dict`) and seeds any future probabilistic faults; the
    sites above fire purely by hit count.
    """

    def __init__(
        self,
        faults: Sequence[FaultSpec],
        seed: int = 0,
        state_dir: Optional[str] = None,
    ) -> None:
        self.faults: List[FaultSpec] = list(faults)
        self.seed = int(seed)
        self.state_dir = state_dir
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.faults!r}, seed={self.seed})"

    # -- firing --------------------------------------------------------

    def fire(self, site: str) -> Optional[FaultSpec]:
        """Count one hit at ``site``; return the spec if it fires."""
        with self._lock:
            n = self._hits.get(site, 0)
            self._hits[site] = n + 1
            for spec in self.faults:
                if spec.site != site:
                    continue
                if n < spec.after or n >= spec.after + spec.times:
                    continue
                if self.state_dir is not None and not self._claim(spec):
                    return None
                self._fired[site] = self._fired.get(site, 0) + 1
                return spec
        return None

    def _claim(self, spec: FaultSpec) -> bool:
        """Take one unit of a spec's cross-process budget (marker file)."""
        tag = spec.site.replace(".", "-")
        for i in range(spec.times):
            marker = os.path.join(
                self.state_dir, f".fault-{tag}-{spec.after}-{i}"
            )
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def fired(self) -> Dict[str, int]:
        """``site -> firings`` so far, in this process (test assertions)."""
        with self._lock:
            return dict(self._fired)

    def hits(self) -> Dict[str, int]:
        """``site -> hits`` (fired or not) so far, in this process."""
        with self._lock:
            return dict(self._hits)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form (``save``/``load`` round-trip)."""
        return {
            "seed": self.seed,
            "faults": [asdict(spec) for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            [FaultSpec(**spec) for spec in data.get("faults", [])],
            seed=int(data.get("seed", 0)),
        )

    def save(self, path: str) -> str:
        """Write the plan JSON (the ``POPS_FAULT_PLAN`` target)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a saved plan; its directory becomes the marker state dir."""
        with open(path, encoding="utf-8") as handle:
            plan = cls.from_dict(json.load(handle))
        plan.state_dir = os.path.dirname(os.path.abspath(path))
        return plan


# -- the process-global hook ------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ENV_CHECKED = False


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the process's active plan (tests, embedding)."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    """Deactivate fault injection for this process."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with installed(plan):`` -- scoped install for tests."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def active() -> Optional[FaultPlan]:
    """The process's active plan, loading ``POPS_FAULT_PLAN`` once."""
    global _ACTIVE, _ENV_CHECKED
    if _ACTIVE is None and not _ENV_CHECKED:
        _ENV_CHECKED = True
        path = os.environ.get(ENV_PLAN)
        if path:
            _ACTIVE = FaultPlan.load(path)
    return _ACTIVE


def fire(site: str) -> Optional[FaultSpec]:
    """Hit ``site`` on the active plan; ``None`` when nothing fires.

    This is the check production code carries: with no plan installed
    (the overwhelmingly common case) it costs one global read and one
    ``None`` comparison.
    """
    plan = _ACTIVE
    if plan is None:
        if _ENV_CHECKED:
            return None
        plan = active()
        if plan is None:
            return None
    return plan.fire(site)


def maybe_crash(site: str = SITE_WORKER_CRASH) -> None:
    """Die with :data:`CRASH_EXIT_CODE` if the plan says so (workers)."""
    if fire(site) is not None:
        os._exit(CRASH_EXIT_CODE)


def maybe_sleep(site: str = SITE_EXEC_SLOW) -> None:
    """Sleep ``delay_s`` if the plan fires; the job's token cuts it short."""
    spec = fire(site)
    if spec is not None and spec.delay_s > 0:
        current_token().wait(timeout_s=spec.delay_s)


# -- a deterministic process-pool double ------------------------------


class InlinePool:
    """A ``ProcessPoolExecutor`` stand-in that runs submissions inline.

    Chaos tests need ``BrokenProcessPool`` behaviour that does not
    depend on working subprocess support (sandboxes deny it), so the
    serve executor accepts a ``pool_factory`` and tests hand it this:
    ``submit`` runs the callable synchronously -- byte-identical results
    by construction -- except when the active plan fires
    :data:`SITE_POOL_BROKEN`, in which case the returned future carries
    ``BrokenProcessPool`` exactly as a crashed worker would.
    """

    def __init__(self, max_workers: int = 1) -> None:
        self.max_workers = max_workers
        self.submitted = 0
        self.broken = 0

    def submit(self, fn, *args):  # noqa: ANN001 - executor protocol
        """Run ``fn(*args)`` now; return a settled future."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        self.submitted += 1
        future: "Future" = Future()
        if fire(SITE_POOL_BROKEN) is not None:
            self.broken += 1
            future.set_exception(
                BrokenProcessPool("injected worker crash (fault plan)")
            )
            return future
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # marshalled like a real pool
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, **_: Any) -> None:
        """Nothing to tear down (protocol compatibility)."""
