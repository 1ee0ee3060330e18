"""Range-query clustering study (related-work reproduction).

The paper's §I/§II position the ACD and ANNS against "the most commonly
used metric ... the number of clusters accessed" (Jagadish 1990, Moon et
al. 2001).  Its surprising §V result — Hilbert *loses* the ANNS — is
surprising exactly because Hilbert *wins* clustering.  This study
regenerates that contrast inside one framework: average cluster counts
over random square range queries, swept over query sizes, for every
curve.  Each ``(query size, curve)`` cell is one declared
:class:`~repro.experiments.study.ComputeUnit`, so the sweep fans out
over ``--jobs`` and persists per-cell in the result store.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.metrics.clustering import average_clusters
from repro.sfc.registry import PAPER_CURVES

__all__ = [
    "ClusteringStudyResult",
    "CLUSTERING_STUDY",
    "format_clustering_study",
]

#: Default sweep (lattice 2^7, query sides 2..16, snake as extra curve).
DEFAULT_ORDER = 7
DEFAULT_QUERY_SIZES: tuple[int, ...] = (2, 4, 8, 16)
CLUSTERING_CURVES: tuple[str, ...] = PAPER_CURVES + ("snake",)
DEFAULT_SAMPLES = 400


@dataclass(frozen=True)
class ClusteringStudyResult:
    """Average cluster counts per curve over a query-size sweep."""

    order: int
    query_sizes: tuple[int, ...]
    curves: tuple[str, ...]
    #: ``values[curve][i]`` = mean clusters for ``query_sizes[i]``.
    values: dict[str, list[float]]


def clustering_point(curve: str, order: int, query_size: int, samples: int, seed) -> float:
    """One sweep cell: mean clusters for a curve at one query size."""
    return average_clusters(curve, order, query_size=query_size, rng=seed, samples=samples)


def plan_clustering_study(
    ctx: StudyContext,
    order: int = DEFAULT_ORDER,
    query_sizes: tuple[int, ...] = DEFAULT_QUERY_SIZES,
    curves: tuple[str, ...] = CLUSTERING_CURVES,
    samples: int = DEFAULT_SAMPLES,
) -> StudyPlan:
    """Declare the clustering sweep: every (query size, curve) cell."""
    side = 1 << order
    if max(query_sizes) > side:
        raise ValueError(f"query size {max(query_sizes)} exceeds lattice side {side}")
    units = tuple(
        ComputeUnit(
            key=(q, curve),
            fn=clustering_point,
            args=(curve, order, q, samples, ctx.seed),
        )
        for q in query_sizes
        for curve in curves
    )
    return StudyPlan(
        units=units,
        seed=ctx.seed,
        meta={"order": order, "query_sizes": tuple(query_sizes), "curves": tuple(curves)},
    )


def collect_clustering_study(plan: StudyPlan, outputs: list) -> ClusteringStudyResult:
    """Assemble the per-curve series in sweep order."""
    by_key = outputs_by_key(plan, outputs)
    order, query_sizes, curves = (
        plan.meta[k] for k in ("order", "query_sizes", "curves")
    )
    values = {c: [by_key[(q, c)] for q in query_sizes] for c in curves}
    return ClusteringStudyResult(
        order=order, query_sizes=query_sizes, curves=curves, values=values
    )


def format_clustering_study(result: ClusteringStudyResult) -> str:
    """Render the sweep plus the ANNS-vs-clustering contrast note."""
    table = format_series(
        result.values,
        result.query_sizes,
        f"Average clusters per square range query (lattice 2^{result.order})",
        "query side",
    )
    return table + (
        "\n(Hilbert minimises clustering — the literature's classic result — "
        "while §V shows it *loses* the ANNS: the two proximity notions disagree.)"
    )


def _flatten(result: ClusteringStudyResult) -> list[dict]:
    return [
        {"curve": curve, "query_size": q, "clusters": val}
        for curve in result.curves
        for q, val in zip(result.query_sizes, result.values[curve])
    ]


CLUSTERING_STUDY = register_study(
    Study(
        name="clustering",
        title="Range-query clustering vs ANNS contrast",
        result_type=ClusteringStudyResult,
        plan=plan_clustering_study,
        collect=collect_clustering_study,
        render=format_clustering_study,
        schema=ResultSchema(ClusteringStudyResult, flatten=_flatten),
    )
)
