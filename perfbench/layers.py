"""Per-layer tracing from outside the program: wrap each layer's public calls.

:func:`install` replaces every public entry point listed in :data:`LAYERS`
with a wrapper that records a span on a :class:`repro.obs.Tracer`.  The
replacement is by identity: every ``repro.*`` module attribute that *is*
the original function is rebound, because modules such as
``protocol.optimizer`` and ``api.session`` import these functions by name.
Methods are replaced on their class.

A call that re-enters its own layer (``distribute_with_buffers`` calling
``min_delay_with_buffers``) is counted per target but opens no second
span, so ``<layer>.calls`` counts entries into the layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import sys
import threading
from typing import Any, Callable, Dict, Iterator, List, Tuple

from measure import ROOT_SPAN

#: layer name -> public calls wrapped, as ``module:qualname``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "iscas.load": ("repro.iscas.loader:load_benchmark",),
    "buffering.flimits": ("repro.buffering.insertion:default_flimits",),
    "timing.extract": ("repro.timing.critical_paths:k_critical_paths",),
    "timing.sta": (
        "repro.timing.sta:analyze",
        "repro.timing.incremental:IncrementalSta.__init__",
        "repro.timing.incremental:IncrementalSta.update",
        "repro.timing.incremental:IncrementalSta.refresh_structure",
        "repro.timing.incremental:IncrementalSta.retarget",
    ),
    "sizing.tmin": ("repro.sizing.bounds:min_delay_bound",),
    "sizing.bounds": ("repro.sizing.bounds:delay_bounds",),
    "sizing.distribute": ("repro.sizing.sensitivity:distribute_constraint",),
    "buffering.insert": (
        "repro.buffering.insertion:distribute_with_buffers",
        "repro.buffering.insertion:min_delay_with_buffers",
    ),
    "restructuring.demorgan": (
        "repro.restructuring.demorgan:distribute_with_restructuring",
    ),
    "protocol.path": ("repro.protocol.optimizer:optimize_path",),
    "protocol.circuit": ("repro.protocol.optimizer:optimize_circuit",),
    "analysis.power": (
        "repro.analysis.activity:estimate_activity",
        "repro.analysis.power:estimate_power",
    ),
    "mc": (
        "repro.mc.result:mc_analyze",
        "repro.mc.compile:CompiledCircuit.__init__",
        "repro.mc.kernel:batch_analyze",
    ),
    "api.serialize": (
        "repro.api.records:RunRecord.to_dict",
        "repro.api.records:RunRecord.from_dict",
    ),
    "explore.store": ("repro.explore.store:CampaignStore.append",),
}

#: The serve executor's per-job entry: the root span of a served job.
SERVE_ROOT = "repro.serve.scheduler:JobExecutor.run"

#: A pass cuts the critical delay by more than this share to count as improving.
IMPROVING_CUT = 1e-4


def _first_arg(args: tuple, kwargs: Dict[str, Any], name: str) -> Any:
    return args[0] if args else kwargs[name]


def _span_attrs(target: str, args: tuple, kwargs: Dict[str, Any], result: Any) -> Dict[str, Any]:
    """Attributes a few targets record from their arguments or result."""
    if target.endswith(":min_delay_bound"):
        return {"path_fp": hash(_first_arg(args, kwargs, "path").fingerprint())}
    if target.endswith(":optimize_path"):
        return {"method": result.method}
    if target.endswith(":optimize_circuit"):
        telemetry = result.telemetry
        delays = [telemetry.initial_delay_ps] + [
            p.critical_delay_ps for p in telemetry.passes
        ]
        improving = sum(
            1 for before, after in zip(delays, delays[1:])
            if after < before * (1.0 - IMPROVING_CUT)
        )
        return {
            "passes": result.passes,
            "improving": improving,
            "proposed": sum(p.proposed for p in telemetry.passes),
        }
    return {}


class Installation:
    """The installed wrappers and what they counted.

    Attributes
    ----------
    target_calls : dict
        Calls per wrapped target, re-entrant ones included.
    engines : list
        Every :class:`~repro.timing.incremental.IncrementalSta` built
        while installed (for the ``stats.updates`` cross-check).
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.target_calls: Dict[str, int] = {}
        self.engines: List[Any] = []
        self._lock = threading.Lock()
        self._paused = threading.local()

    @property
    def paused(self) -> bool:
        """Whether wrappers on this thread pass straight through."""
        return getattr(self._paused, "on", False)

    @contextlib.contextmanager
    def pause(self) -> Iterator[None]:
        """Run the benchmark's own checks on this thread untraced."""
        self._paused.on = True
        try:
            yield
        finally:
            self._paused.on = False

    def _count(self, target: str) -> None:
        with self._lock:
            self.target_calls[target] = self.target_calls.get(target, 0) + 1

    def wrap(self, func: Callable[..., Any], layer: str, target: str) -> Callable[..., Any]:
        """A traced stand-in for ``func`` recording spans named ``layer``."""
        tracer = self.tracer
        is_flimits = target.endswith(":default_flimits")
        is_engine_init = target.endswith("IncrementalSta.__init__")

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return func(*args, **kwargs)
            self._count(target)
            current = tracer.current_span()
            if current is not None and current.name == layer:
                return func(*args, **kwargs)
            attrs: Dict[str, Any] = {}
            if is_flimits:
                from repro.buffering.insertion import flimit_cache_contains

                library = _first_arg(args, kwargs, "library")
                attrs["characterised"] = not flimit_cache_contains(library)
            with tracer.span(layer, **attrs) as span:
                result = func(*args, **kwargs)
                span.set(**_span_attrs(target, args, kwargs, result))
            if is_engine_init:
                with self._lock:
                    self.engines.append(args[0])
            return result

        return wrapper

    def counters_event(self) -> None:
        """Record the wrapper and engine counters as one trace event."""
        with self._lock:
            self.tracer.event(
                "perfbench.counters",
                target_calls=dict(self.target_calls),
                sta_engine_updates=sum(e.stats.updates for e in self.engines),
            )


def import_all_repro() -> None:
    """Import every ``repro`` module so identity rebinding reaches them all."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _rebind(original: Any, replacement: Any) -> int:
    """Point every ``repro.*`` module attribute that is ``original`` at ``replacement``."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def _install_target(installation: Installation, target: str, layer: str) -> None:
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, method = qualname.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(installation.wrap(raw.__func__, layer, target)))
        else:
            setattr(cls, method, installation.wrap(raw, layer, target))
        return
    original = getattr(module, qualname)
    if _rebind(original, installation.wrap(original, layer, target)) == 0:
        raise RuntimeError(f"{target}: no module binds the original function")


def install(tracer: Any) -> Installation:
    """Wrap every layer's public calls (and the serve job root) on ``tracer``."""
    import_all_repro()
    installation = Installation(tracer)
    for layer, targets in LAYERS.items():
        for target in targets:
            _install_target(installation, target, layer)
    _install_target(installation, SERVE_ROOT, ROOT_SPAN)
    return installation
