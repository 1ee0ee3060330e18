"""Ablation studies over the reproduction's modelling choices.

DESIGN.md §3 documents the conventions the paper leaves unstated; each
function here measures how much one of those choices matters:

* :func:`quadtree_convention_ablation` — up-and-down vs one-per-level
  switch-tree path costs (decides the paper's Fig. 6(b) quadtree-vs-
  hypercube ranking).
* :func:`ffi_granularity_ablation` — §III cell-walk vs §IV
  per-processor deduplication of the far-field traffic.
* :func:`hypercube_layout_ablation` — identity vs Gray-coded rank
  labels on the hypercube (the paper applies no SFC there; the Gray
  embedding is the classic alternative).
* :func:`continuity_ablation` — snake vs row-major: does geometric
  continuity alone help the ACD, or is the recursive structure doing
  the work?

Each ablation is also a registered study (``ablation_*``) wrapping its
function in a single :class:`~repro.experiments.study.ComputeUnit`, so
the CLI's ``ablations`` command goes through the shared driver and the
result store like every other study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._typing import SeedLike
from repro.distributions.registry import get_distribution
from repro.experiments.io import ResultSchema
from repro.experiments.reporting import format_rows
from repro.experiments.store import register_store_codec
from repro.experiments.study import (
    ComputeUnit,
    Study,
    StudyContext,
    StudyPlan,
    register_study,
)
from repro.fmm.model import FmmCommunicationModel
from repro.metrics.acd import acd_breakdown, compute_acd
from repro.topology.hypercube import HypercubeTopology
from repro.topology.quadtree import QuadtreeTopology
from repro.topology.registry import make_topology

__all__ = [
    "AblationRow",
    "AblationResult",
    "ABLATION_STUDIES",
    "quadtree_convention_ablation",
    "ffi_granularity_ablation",
    "interpolation_reading_ablation",
    "hypercube_layout_ablation",
    "continuity_ablation",
    "format_ablation",
]


@dataclass(frozen=True)
class AblationRow:
    """One configuration of an ablation with its NFI/FFI ACD."""

    variant: str
    nfi_acd: float
    ffi_acd: float

    def as_dict(self) -> dict[str, object]:
        """Flat mapping for tabular reporting."""
        return {"variant": self.variant, "nfi_acd": self.nfi_acd, "ffi_acd": self.ffi_acd}


def _sample(num_particles: int, order: int, distribution: str, seed: SeedLike):
    return get_distribution(distribution).sample(num_particles, order, rng=seed)


def quadtree_convention_ablation(
    num_particles: int = 15_000,
    order: int = 9,
    num_processors: int = 1_024,
    *,
    curve: str = "hilbert",
    seed: SeedLike = 0,
) -> list[AblationRow]:
    """Quadtree path-cost conventions vs the hypercube reference."""
    particles = _sample(num_particles, order, "uniform", seed)
    rows = []
    variants = {
        "quadtree/updown": QuadtreeTopology(num_processors, curve, hop_convention="updown"),
        "quadtree/levels": QuadtreeTopology(num_processors, curve, hop_convention="levels"),
        "hypercube": HypercubeTopology(num_processors),
    }
    for name, net in variants.items():
        model = FmmCommunicationModel(net, particle_curve=curve)
        report = model.evaluate(particles)
        rows.append(AblationRow(name, report.nfi_acd, report.ffi_acd))
    return rows


def ffi_granularity_ablation(
    num_particles: int = 15_000,
    order: int = 9,
    num_processors: int = 1_024,
    *,
    curve: str = "hilbert",
    seed: SeedLike = 0,
) -> list[AblationRow]:
    """Cell-granular (§III) vs processor-granular (§IV) far field."""
    particles = _sample(num_particles, order, "uniform", seed)
    net = make_topology("torus", num_processors, processor_curve=curve)
    rows = []
    for granularity in ("cell", "processor"):
        model = FmmCommunicationModel(net, particle_curve=curve, ffi_granularity=granularity)
        assignment = model.assign(particles)
        ffi = acd_breakdown(model.far_field_events(assignment).as_mapping(), net)
        nfi = compute_acd(model.near_field_events(assignment), net)
        rows.append(AblationRow(f"granularity={granularity}", nfi.acd, ffi["combined"].acd))
    return rows


def interpolation_reading_ablation(
    num_particles: int = 15_000,
    order: int = 9,
    num_processors: int = 1_024,
    *,
    curve: str = "hilbert",
    seed: SeedLike = 0,
) -> list[AblationRow]:
    """The three readings of the far-field upward pass.

    §III walks cells (child rep → parent rep), §IV dedups per processor
    pair, and §IV steps 5–6 literally describe per-cell processor
    log-trees.  Each row reports the upward-pass ACD in the ``ffi_acd``
    column (``nfi_acd`` is zero — the near field is unaffected).
    """
    from repro.fmm.ffi import interpolation_events
    from repro.fmm.quadrant_tree import quadrant_tree_events
    from repro.partition.assignment import partition_particles
    from repro.quadtree.pyramid import representative_pyramid

    particles = _sample(num_particles, order, "uniform", seed)
    net = make_topology("torus", num_processors, processor_curve=curve)
    assignment = partition_particles(particles, curve, num_processors)
    pyramid = representative_pyramid(assignment.owner_grid())
    variants = {
        "cell parent-child (§III)": interpolation_events(pyramid),
        "processor dedup (§IV 7)": interpolation_events(pyramid, "processor"),
        "quadrant log-tree (§IV 5-6)": quadrant_tree_events(assignment),
    }
    return [
        AblationRow(name, 0.0, compute_acd(events, net).acd)
        for name, events in variants.items()
    ]


def hypercube_layout_ablation(
    num_particles: int = 15_000,
    order: int = 9,
    num_processors: int = 1_024,
    *,
    curve: str = "hilbert",
    seed: SeedLike = 0,
) -> list[AblationRow]:
    """Identity vs Gray-coded hypercube rank labels for FMM traffic."""
    particles = _sample(num_particles, order, "uniform", seed)
    rows = []
    for layout in ("identity", "gray"):
        net = HypercubeTopology(num_processors, layout=layout)
        model = FmmCommunicationModel(net, particle_curve=curve)
        report = model.evaluate(particles)
        rows.append(AblationRow(f"layout={layout}", report.nfi_acd, report.ffi_acd))
    return rows


def continuity_ablation(
    num_particles: int = 15_000,
    order: int = 9,
    num_processors: int = 1_024,
    *,
    seed: SeedLike = 0,
) -> list[AblationRow]:
    """Snake vs row-major vs Hilbert: continuity alone vs recursion.

    The snake scan is exactly the row-major order made geometrically
    continuous; comparing the three separates what continuity buys from
    what the recursive block structure buys.
    """
    particles = _sample(num_particles, order, "uniform", seed)
    rows = []
    for curve in ("rowmajor", "snake", "hilbert"):
        net = make_topology("torus", num_processors, processor_curve=curve)
        model = FmmCommunicationModel(net, particle_curve=curve)
        report = model.evaluate(particles)
        rows.append(AblationRow(curve, report.nfi_acd, report.ffi_acd))
    return rows


# --- study registrations -------------------------------------------------

register_store_codec(
    "AblationRow",
    AblationRow,
    lambda row: row.as_dict(),
    lambda data: AblationRow(**data),
)


@dataclass(frozen=True)
class AblationResult:
    """One ablation's rows, tagged with the ablation's registry name."""

    ablation: str
    title: str
    rows: list[AblationRow]


def format_ablation(result: AblationResult) -> str:
    """Render one ablation as the CLI's fixed-width table."""
    rows = [r.as_dict() for r in result.rows]
    return f"Ablation: {result.title}\n" + format_rows(rows, ["variant", "nfi_acd", "ffi_acd"])


def _flatten_ablation(result: AblationResult) -> list[dict]:
    return [{"ablation": result.ablation, **row.as_dict()} for row in result.rows]


def _restore_ablation(data: dict) -> dict:
    data["rows"] = [
        row if isinstance(row, AblationRow) else AblationRow(**row) for row in data["rows"]
    ]
    return data


_ABLATION_SCHEMA = ResultSchema(
    AblationResult, flatten=_flatten_ablation, restore=_restore_ablation
)

#: registry name -> (display title, ablation function), in CLI print order.
ABLATION_STUDIES: dict[str, tuple[str, object]] = {}


def _register_ablation(name: str, title: str, fn) -> Study:
    def plan(ctx: StudyContext, _name=name, _fn=fn) -> StudyPlan:
        return StudyPlan(
            units=(
                ComputeUnit(key=(_name,), fn=_fn, kwargs=(("seed", ctx.seed),)),
            ),
            seed=ctx.seed,
            meta={"ablation": _name, "title": title},
        )

    def collect(plan: StudyPlan, outputs: list, _name=name, _title=title) -> AblationResult:
        rows = [
            row if isinstance(row, AblationRow) else AblationRow(**row)
            for row in outputs[0]
        ]
        return AblationResult(ablation=_name, title=_title, rows=rows)

    study = register_study(
        Study(
            name=f"ablation_{name}",
            title=f"Ablation — {title}",
            result_type=AblationResult,
            plan=plan,
            collect=collect,
            render=format_ablation,
            schema=_ABLATION_SCHEMA,
        )
    )
    ABLATION_STUDIES[name] = (title, fn)
    return study


_register_ablation(
    "quadtree_convention", "quadtree hop convention", quadtree_convention_ablation
)
_register_ablation("ffi_granularity", "FFI granularity", ffi_granularity_ablation)
_register_ablation(
    "interpolation_reading",
    "far-field upward-pass reading",
    interpolation_reading_ablation,
)
_register_ablation("hypercube_layout", "hypercube layout", hypercube_layout_ablation)
_register_ablation("continuity", "continuity vs recursion", continuity_ablation)
