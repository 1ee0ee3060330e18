"""Dynamic repartitioning study: curve locality under time evolution.

The paper evaluates static particle sets; real FMM/N-body codes re-sort
along the curve every few steps.  This study drives the paper's
distributions through the :mod:`repro.dynamics` step loop and measures,
per step and per {motion, topology, curve}:

* the communication objectives (ACD, energy, ...) of the freshly
  **resorted** partition, via the pluggable metric engine;
* the **migration volume** — particles whose owning rank changed since
  the previous step — plus the hop-weighted migration cost on the
  evaluation topology (Walker & Skjellum's "data actually moved");
* the **stale-partition counterfactual**: the step-0 partition kept
  frozen while particles move, quantifying how fast curve locality
  decays when re-sorting is skipped — the gap between the stale and
  resorted series is what a re-sort buys, and the migration series is
  what it costs.

Each (motion, distribution, topology, curve, step) point is one
:class:`~repro.experiments.study.ComputeUnit`, so the study inherits
``--jobs`` fan-out, fault tolerance and **per-step resume**: a killed
run pays only the missing steps on rerun.  Seeding is pure
``SeedSequence`` spawning (see :mod:`repro.dynamics.evolution`), so
jobs=1 and jobs=4 runs are bit-identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.dynamics.evolution import TrajectorySpec, trajectory
from repro.dynamics.repartition import migration_volume, owners_by_id, stale_assignment
from repro.experiments.io import ResultSchema
from repro.experiments.reporting import format_series
from repro.experiments.study import (
    ComputeUnit,
    Study,
    StudyContext,
    StudyPlan,
    outputs_by_key,
    register_study,
)
from repro.fmm.ffi import ffi_histograms
from repro.fmm.nfi import nfi_events
from repro.metrics.base import CommunicationMetric, MetricValue
from repro.metrics.registry import get_metric
from repro.partition.assignment import partition_particles
from repro.sfc.registry import PAPER_CURVES
from repro.topology.registry import make_topology

__all__ = [
    "DYNAMIC_GRID",
    "DYNAMIC_TOPOLOGIES",
    "DYNAMIC_OBJECTIVES",
    "DEFAULT_STEPS",
    "DynamicStudyResult",
    "DYNAMIC_STUDY",
    "evaluate_dynamic_step",
    "plan_dynamic_study",
    "collect_dynamic_study",
    "format_dynamic_study",
    "grid_label",
]

#: (motion, distribution) pairings the default grid evolves: coherent
#: drift and diffusive churn on the uniform law, plus the orbit/shear
#: mode on the astrophysical (clustered) law.
DYNAMIC_GRID: tuple[tuple[str, str], ...] = (
    ("drift", "uniform"),
    ("diffusion", "uniform"),
    ("orbit", "clustered"),
)

#: Evaluation networks (both need a square rank grid: ``p = 4**m``).
DYNAMIC_TOPOLOGIES: tuple[str, ...] = ("mesh", "torus")

#: Communication objectives tracked per step (any registered
#: communication metric slots in).
DYNAMIC_OBJECTIVES: tuple[str, ...] = ("acd", "energy")

#: Default workload: kept modest so a cold run finishes in seconds.
DEFAULT_STEPS = 6
DEFAULT_DYN_PARTICLES = 2000
DEFAULT_DYN_ORDER = 7
DEFAULT_DYN_PROCESSORS = 64


def grid_label(motion: str, distribution: str) -> str:
    """Display/series key of one (motion, distribution) grid row."""
    return f"{motion}+{distribution}"


# ----------------------------------------------------------------------
# Per-step artifacts (process-wide memo)
# ----------------------------------------------------------------------
#
# Step units differ by topology and step, but the expensive part — the
# trajectory frame, the owner map and the event histograms — depends
# only on (spec, curve, p, radius, nfi_metric, step).  A small keyed
# cache lets the mesh and torus units (and every objective) share one
# event generation per frame.

_STEP_CACHE: OrderedDict[tuple, dict[str, Any]] = OrderedDict()
_STEP_LOCK = threading.Lock()
_STEP_CAPACITY = 32


def _histograms(assignment, num_processors: int, radius: int, nfi_metric: str):
    """The nfi histogram and the far-field phase histograms of one assignment."""
    nfi = nfi_events(assignment, radius, nfi_metric).compact(num_processors)
    return nfi, ffi_histograms(assignment, num_processors)


def _step_artifacts(
    spec: TrajectorySpec,
    curve: str,
    num_processors: int,
    radius: int,
    nfi_metric: str,
    step: int,
) -> dict[str, Any]:
    """Owners and event histograms of one trajectory frame.

    ``owners`` maps particle id -> owning rank after the step-``step``
    re-sort; ``resorted``/``stale`` are ``(nfi, {phase: ffi})`` histograms for
    the fresh partition and the frozen step-0 partition respectively.
    """
    key = (spec, curve, num_processors, radius, nfi_metric, step)
    with _STEP_LOCK:
        hit = _STEP_CACHE.get(key)
        if hit is not None:
            _STEP_CACHE.move_to_end(key)
            return hit
    frames = trajectory(spec, step)
    frame = frames[step]
    owners = owners_by_id(frame, curve, num_processors)
    resorted = partition_particles(frame, curve, num_processors)
    entry: dict[str, Any] = {
        "owners": owners,
        "resorted": _histograms(resorted, num_processors, radius, nfi_metric),
    }
    if step == 0:
        entry["stale"] = entry["resorted"]
    else:
        owners0 = owners_by_id(frames[0], curve, num_processors)
        stale = stale_assignment(frame, curve, owners0, num_processors)
        entry["stale"] = _histograms(stale, num_processors, radius, nfi_metric)
    with _STEP_LOCK:
        _STEP_CACHE[key] = entry
        while len(_STEP_CACHE) > _STEP_CAPACITY:
            _STEP_CACHE.popitem(last=False)
    return entry


def _as_dict(value: MetricValue) -> dict:
    return {"total": value.total, "count": value.count, "mean": value.mean}


def evaluate_dynamic_step(
    *,
    motion: str,
    motion_params: dict,
    distribution: str,
    num_particles: int,
    order: int,
    num_processors: int,
    topology: str,
    curve: str,
    step: int,
    seed: int,
    objectives,
    radius: int = 1,
    nfi_metric: str = "chebyshev",
) -> dict:
    """One step of one trajectory, partitioned and measured.

    All keyword arguments are JSON-native, so each step is individually
    content-addressed in the result store — the unit of resume is the
    step.  ``step`` alone (not the total horizon) keys the trajectory
    frame because spawned seeds make every frame horizon-independent.
    """
    spec = TrajectorySpec.create(
        distribution=distribution,
        num_particles=num_particles,
        order=order,
        motion=motion,
        motion_params=dict(motion_params),
        seed=seed,
    )
    topo = make_topology(topology, num_processors, processor_curve=curve)
    art = _step_artifacts(spec, curve, num_processors, radius, nfi_metric, step)
    if step == 0:
        migrated, hops = 0, 0
    else:
        prev = _step_artifacts(spec, curve, num_processors, radius, nfi_metric, step - 1)
        migrated, hops = migration_volume(prev["owners"], art["owners"], topo)
    obs.count("dynamics.steps")
    obs.count("dynamics.resorts")
    obs.count("dynamics.migrated", migrated)

    out: dict[str, Any] = {
        "step": int(step),
        "migrated": migrated,
        "migration_hops": hops,
        "resorted": {},
        "stale": {},
    }
    for objective in objectives:
        engine = get_metric(objective)
        if not isinstance(engine, CommunicationMetric):
            raise TypeError(
                f"objective {objective!r} is a {engine.kind} metric; "
                "the dynamic study tracks communication objectives"
            )
        for label in ("resorted", "stale"):
            nfi_hist, ffi_hists = art[label]
            nfi = engine.evaluate(nfi_hist, topo)
            ffi = MetricValue(0, 0)
            for hist in ffi_hists.values():
                ffi = ffi.merged(engine.evaluate(hist, topo))
            out[label][objective] = {
                "nfi": _as_dict(nfi),
                "ffi": _as_dict(ffi),
                "combined": _as_dict(nfi.merged(ffi)),
            }
    return out


# ----------------------------------------------------------------------
# Study declaration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicStudyResult:
    """Per-step time series for every grid point, plus a ranking.

    Series dicts nest ``label -> topology -> curve`` (``-> objective``
    for metric series); each leaf is the step-indexed list ``[0..steps]``.
    ``recommendations`` ranks (topology, curve) candidates best-first by
    summed resorted cost of the primary objective — the same entry shape
    ``POST /recommend`` responses use (mean and final-step metric
    alongside the exact integer score).
    """

    labels: tuple[str, ...]
    topologies: tuple[str, ...]
    curves: tuple[str, ...]
    objectives: tuple[str, ...]
    steps: int
    migrated: dict[str, dict[str, dict[str, list[int]]]]
    migration_hops: dict[str, dict[str, dict[str, list[int]]]]
    resorted_mean: dict[str, dict[str, dict[str, dict[str, list[float]]]]]
    stale_mean: dict[str, dict[str, dict[str, dict[str, list[float]]]]]
    recommendations: list[dict[str, Any]]


def plan_dynamic_study(
    ctx: StudyContext,
    grid: tuple[tuple[str, str], ...] = DYNAMIC_GRID,
    topologies: tuple[str, ...] = DYNAMIC_TOPOLOGIES,
    curves: tuple[str, ...] = PAPER_CURVES,
    objectives: tuple[str, ...] = DYNAMIC_OBJECTIVES,
    steps: int = DEFAULT_STEPS,
    num_particles: int = DEFAULT_DYN_PARTICLES,
    order: int = DEFAULT_DYN_ORDER,
    num_processors: int = DEFAULT_DYN_PROCESSORS,
    radius: int = 1,
    motion_params: dict | None = None,
) -> StudyPlan:
    """Declare the step grid: every {motion, topology, curve, step}.

    ``steps`` evolution steps produce ``steps + 1`` frames per
    trajectory (frame 0 is the freshly sampled distribution).
    """
    params = dict(motion_params or {})
    units = tuple(
        ComputeUnit(
            key=(motion, dist, topo, curve, step),
            fn=evaluate_dynamic_step,
            kwargs=(
                ("motion", motion),
                ("motion_params", params.get(motion, {})),
                ("distribution", dist),
                ("num_particles", num_particles),
                ("order", order),
                ("num_processors", num_processors),
                ("topology", topo),
                ("curve", curve),
                ("step", step),
                ("seed", ctx.seed),
                ("objectives", list(objectives)),
                ("radius", radius),
            ),
        )
        for motion, dist in grid
        for topo in topologies
        for curve in curves
        for step in range(steps + 1)
    )
    return StudyPlan(
        units=units,
        seed=ctx.seed,
        meta={
            "grid": tuple(grid),
            "topologies": tuple(topologies),
            "curves": tuple(curves),
            "objectives": tuple(objectives),
            "steps": steps,
        },
    )


def collect_dynamic_study(plan: StudyPlan, outputs: list) -> DynamicStudyResult:
    """Assemble step-indexed series and the candidate ranking."""
    by_key = outputs_by_key(plan, outputs)
    grid = plan.meta["grid"]
    topologies = plan.meta["topologies"]
    curves = plan.meta["curves"]
    objectives = plan.meta["objectives"]
    steps = plan.meta["steps"]
    labels = tuple(grid_label(m, d) for m, d in grid)

    migrated: dict = {}
    hops: dict = {}
    resorted: dict = {}
    stale: dict = {}
    scores: dict[tuple[str, str], int] = {}
    primary = objectives[0]
    for (motion, dist), label in zip(grid, labels):
        for name, table in (
            ("migrated", migrated), ("hops", hops), ("resorted", resorted), ("stale", stale),
        ):
            table[label] = {t: {} for t in topologies}
        for topo in topologies:
            for curve in curves:
                rows = [by_key[(motion, dist, topo, curve, s)] for s in range(steps + 1)]
                migrated[label][topo][curve] = [r["migrated"] for r in rows]
                hops[label][topo][curve] = [r["migration_hops"] for r in rows]
                resorted[label][topo][curve] = {
                    obj: [r["resorted"][obj]["combined"]["mean"] for r in rows]
                    for obj in objectives
                }
                stale[label][topo][curve] = {
                    obj: [r["stale"][obj]["combined"]["mean"] for r in rows]
                    for obj in objectives
                }
                scores[(topo, curve)] = scores.get((topo, curve), 0) + sum(
                    r["resorted"][primary]["combined"]["total"] for r in rows
                )

    entries = []
    for (topo, curve), score in scores.items():
        means = [resorted[label][topo][curve][primary] for label in labels]
        per_step = [sum(col) / len(col) for col in zip(*means)]
        entries.append(
            {
                "topology": topo,
                "processor_curve": curve,
                "score": score,
                "mean": sum(per_step) / len(per_step),
                "final": per_step[-1],
            }
        )
    entries.sort(key=lambda e: (e["score"], e["topology"], e["processor_curve"]))
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank

    return DynamicStudyResult(
        labels=labels,
        topologies=topologies,
        curves=curves,
        objectives=objectives,
        steps=steps,
        migrated=migrated,
        migration_hops=hops,
        resorted_mean=resorted,
        stale_mean=stale,
        recommendations=entries,
    )


def format_dynamic_study(result: DynamicStudyResult) -> str:
    """Render per-step series (first topology) plus the ranking."""
    topo = result.topologies[0]
    x = list(range(result.steps + 1))
    blocks = []
    for label in result.labels:
        for objective in result.objectives:
            series = {c: result.resorted_mean[label][topo][c][objective] for c in result.curves}
            series.update(
                {
                    f"{c} (stale)": result.stale_mean[label][topo][c][objective]
                    for c in result.curves
                }
            )
            blocks.append(
                format_series(
                    series,
                    x,
                    title=f"{label} on {topo} — mean {objective} (resorted vs stale)",
                    x_label="step",
                )
            )
        blocks.append(
            format_series(
                {c: result.migrated[label][topo][c] for c in result.curves},
                x,
                title=f"{label} on {topo} — migrated particles per step",
                x_label="step",
                precision=0,
            )
        )
    best = result.recommendations[: min(3, len(result.recommendations))]
    lines = [
        f"  {e['rank']}. {e['topology']} + {e['processor_curve']}"
        f" (score {e['score']}, mean {e['mean']:.3f}, final {e['final']:.3f})"
        for e in best
    ]
    blocks.append(
        "Best {objective} candidates (topology + curve):\n{lines}".format(
            objective=result.objectives[0], lines="\n".join(lines)
        )
    )
    return "\n\n".join(blocks)


def _flatten_dynamic(result: DynamicStudyResult) -> list[dict]:
    return [
        {
            "label": label,
            "topology": topo,
            "curve": curve,
            "objective": obj,
            "step": step,
            "resorted_mean": result.resorted_mean[label][topo][curve][obj][step],
            "stale_mean": result.stale_mean[label][topo][curve][obj][step],
            "migrated": result.migrated[label][topo][curve][step],
            "migration_hops": result.migration_hops[label][topo][curve][step],
        }
        for label in result.labels
        for topo in result.topologies
        for curve in result.curves
        for obj in result.objectives
        for step in range(result.steps + 1)
    ]


DYNAMIC_STUDY = register_study(
    Study(
        name="dynamic",
        title="Dynamic repartitioning — curve locality under time evolution",
        result_type=DynamicStudyResult,
        plan=plan_dynamic_study,
        collect=collect_dynamic_study,
        render=format_dynamic_study,
        schema=ResultSchema(DynamicStudyResult, flatten=_flatten_dynamic),
    )
)
