"""Per-layer tracing from outside the program: wrap public functions by name.

A :class:`Tracer` replaces each target function (``"module:qualname"``)
with a timing wrapper for the duration of one traced study run, then
restores the originals.  Every wrapper call is a span of its target's
layer; a layer's *self time* is the span's duration minus the time its
child spans (calls into other wrapped functions) cover, so the self
times of all layers never sum to more than the wall time of the run.

Targets are resolved by name at install time.  A target that no longer
exists — its module, class or function was renamed, fused or deleted —
is recorded in :attr:`Tracer.absent` and its layer is reported as
absent instead of raising, so the benchmark keeps measuring across
refactors of the layers it wraps.

Module-level functions are patched in their home module *and* in every
loaded module of the same top-level package that imported them by name
(``from repro.fmm.ffi import ffi_events``), because callers look them up
in their own globals.  Methods are patched on the named class and on
every subclass that overrides them.

The tracer assumes one thread: the benchmark runs every study with
``jobs=1``, so no unit executes off the main thread.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "Tracer", "TARGETS", "LAYERS", "COUNTERS", "layer_metrics"]

#: ``(args, kwargs, result, before) -> {counter: amount}``
Counter = Callable[[tuple, dict, Any, Any], dict]


@dataclass(frozen=True)
class Target:
    """One wrapped public function and the layer its time belongs to.

    ``count`` derives work counters from the call; it runs only for the
    outermost span of its layer, so a layer calling itself (a subclass
    method delegating to ``super()``) counts its work once.  ``before``
    snapshots state the counter compares against after the call.
    """

    path: str
    layer: str
    count: Counter | None = None
    before: Callable[[tuple, dict], Any] | None = None


def _len_result(name: str) -> Counter:
    return lambda args, kwargs, result, before: {name: len(result)}


def _ffi_counts(args, kwargs, result, before) -> dict:
    events = sum(len(phase) for phase in result.as_mapping().values())
    return {"events.ffi.calls": 1, "events.ffi.events": events}


def _compact_counts(args, kwargs, result, before) -> dict:
    return {
        "events.compact.events_in": len(args[0]),
        "events.compact.pairs_out": int(result.num_pairs),
    }


def _matrix_state(args, kwargs) -> int:
    stats = args[0].stats
    return stats.get("matrices", 0) + stats.get("matrix_evictions", 0)


def _matrix_counts(args, kwargs, result, before) -> dict:
    builds = _matrix_state(args, kwargs) - before
    nbytes = int(result.nbytes) if builds and result is not None else 0
    return {"topology.matrix.builds": builds, "topology.matrix.bytes": nbytes}


def _pairs(events) -> int:
    return int(events.num_pairs) if hasattr(events, "num_pairs") else len(events)


def _acd_pairs(args, kwargs, result, before) -> dict:
    return {"metric.eval.pairs": _pairs(args[0])}


def _engine_pairs(args, kwargs, result, before) -> dict:
    return {"metric.eval.pairs": _pairs(args[1])}


def _once(name: str) -> Counter:
    return lambda args, kwargs, result, before: {name: 1}


#: The public functions the traced run wraps, grouped into the layers of
#: the program's cold path.  ``artifacts`` holds only the per-trial
#: entry points, whose call counts give the event-artifact fan-out.
TARGETS: tuple[Target, ...] = (
    Target(
        "repro.distributions.base:ParticleDistribution.sample",
        "dist.sample",
        _len_result("dist.sample.particles"),
    ),
    Target("repro.partition.assignment:partition_particles", "partition.order"),
    Target("repro.fmm.nfi:nfi_events", "events.nfi", _len_result("events.nfi.events")),
    Target("repro.fmm.ffi:ffi_events", "events.ffi", _ffi_counts),
    Target("repro.fmm.events:CommunicationEvents.compact", "events.compact", _compact_counts),
    Target(
        "repro.topology.cache:TopologyCache.matrix_for_queries",
        "topology.matrix",
        _matrix_counts,
        _matrix_state,
    ),
    Target(
        "repro.topology.cache:TopologyCache.distance_matrix",
        "topology.matrix",
        _matrix_counts,
        _matrix_state,
    ),
    Target("repro.metrics.acd:compute_acd", "metric.eval", _acd_pairs),
    Target("repro.metrics.base:CommunicationMetric.evaluate", "metric.eval", _engine_pairs),
    Target("repro.experiments.store:ResultStore.put", "store.put", _once("store.put.entries")),
    Target("repro.experiments.store:ResultStore.get", "store.get"),
    Target("repro.dynamics.evolution:evolve_step", "dynamics.evolve"),
    Target("repro.dynamics.repartition:owners_by_id", "dynamics.migration"),
    Target("repro.dynamics.repartition:migration_volume", "dynamics.migration"),
    Target("repro.dynamics.repartition:stale_assignment", "dynamics.migration"),
    Target(
        "repro.experiments.artifacts:build_trial_artifact",
        "artifacts",
        _once("artifacts.built"),
    ),
    Target(
        "repro.experiments.artifacts:evaluate_artifact",
        "artifacts",
        _once("artifacts.evaluations"),
    ),
)

#: Every layer, in cold-path order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: Every counter the targets report, with its unit.
COUNTERS: dict[str, str] = {
    "dist.sample.particles": "count",
    "events.nfi.events": "count",
    "events.ffi.calls": "count",
    "events.ffi.events": "count",
    "events.compact.events_in": "count",
    "events.compact.pairs_out": "count",
    "topology.matrix.builds": "count",
    "topology.matrix.bytes": "B",
    "metric.eval.pairs": "count",
    "store.put.entries": "count",
    "store.put.bytes": "B",
    "artifacts.built": "count",
    "artifacts.evaluations": "count",
}


def _resolve(path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` of a target, or raise LookupError."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"module {module_name!r} not importable: {exc}") from None
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{path}: no attribute {part!r}")
    original = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if not inspect.isfunction(original):
        raise LookupError(f"{path}: not a function")
    return owner, attr, original


def _subclasses(cls: type) -> list[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


class Tracer:
    """Wraps :data:`TARGETS` (or the given targets) and sums self times."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [layer, seconds covered by children]
        self._undo: list[tuple[Any, str, Any]] = []

    @property
    def absent_layers(self) -> list[str]:
        """Layers none of whose targets could be resolved."""
        present = {t.layer for t in self.targets if t.path not in self.absent}
        return [layer for layer in dict.fromkeys(t.layer for t in self.targets)
                if layer not in present]

    def install(self) -> "Tracer":
        for target in self.targets:
            try:
                owner, attr, original = _resolve(target.path)
            except LookupError as exc:
                print(f"perfbench: layer {target.layer} target absent: {exc}", file=sys.stderr)
                self.absent.append(target.path)
                continue
            if inspect.isclass(owner):
                overrides = [c for c in _subclasses(owner)
                             if inspect.isfunction(vars(c).get(attr))]
                for cls in dict.fromkeys([owner, *overrides]):
                    self._patch(cls, attr, vars(cls)[attr], target)
            else:
                package = owner.__name__.split(".")[0]
                for name, module in list(sys.modules.items()):
                    if module is None or name.split(".")[0] != package:
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, original, target)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, fn: Callable, target: Target) -> None:
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, target))

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        layer, stack, clock = target.layer, self._stack, self.clock

        def traced(*args, **kwargs):
            outermost = all(frame[0] != layer for frame in stack)
            before = target.before(args, kwargs) if target.before and outermost else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if target.count is not None and outermost:
                for name, amount in target.count(args, kwargs, result, before).items():
                    self.counts[name] += amount
            return result

        traced.__wrapped__ = fn
        return traced


def layer_metrics(self_s: dict, counts: dict, wall_s: float) -> dict[str, float]:
    """Per-layer ``<layer>.self_s`` plus counters and ``unattributed.self_s``."""
    out = {f"{layer}.self_s": float(self_s.get(layer, 0.0)) for layer in LAYERS}
    out.update({name: float(value) for name, value in counts.items()})
    out["unattributed.self_s"] = wall_s - sum(self_s.values())
    return out
