"""Fig. 5 — nearest-neighbour proximity preservation (§V).

Computes the ANNS (radius 1, Fig. 5(a)) and the generalised large-radius
stretch (radius 6, Fig. 5(b)) for every study curve over a sweep of
lattice resolutions.  This is deterministic — every lattice point is an
input, so no trials or seeds are involved; the study declares one
:class:`~repro.experiments.study.ComputeUnit` per ``(radius, order,
curve)`` point, which the shared driver fans out over ``--jobs`` and
persists in the result store.
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
    run_study,
)
from repro.metrics.anns import neighbor_stretch
from repro.sfc.registry import PAPER_CURVES

__all__ = ["AnnsStudyResult", "ANNS_STUDY", "format_anns_study"]

#: Radii of the two panels of Fig. 5.
FIG5_RADII: tuple[int, ...] = (1, 6)


@dataclass(frozen=True)
class AnnsStudyResult:
    """Stretch series per radius and curve over a resolution sweep."""

    orders: tuple[int, ...]
    #: ``values[radius][curve]`` = list of mean stretches, one per order.
    values: dict[int, dict[str, list[float]]]

    def sides(self) -> list[int]:
        """Lattice side lengths corresponding to :attr:`orders`."""
        return [1 << k for k in self.orders]


def anns_point(curve: str, order: int, radius: int) -> float:
    """One grid point: mean stretch of a curve at one resolution."""
    return neighbor_stretch(curve, order, radius=radius).mean


def plan_anns_study(
    ctx: StudyContext,
    curves: tuple[str, ...] = PAPER_CURVES,
    radii: tuple[int, ...] = FIG5_RADII,
) -> StudyPlan:
    """Declare the Fig. 5 grid: every (radius, order, curve) point."""
    orders = tuple(ctx.preset().anns_orders)
    units = tuple(
        ComputeUnit(key=(radius, order, curve), fn=anns_point, args=(curve, order, radius))
        for radius in radii
        for order in orders
        for curve in curves
    )
    return StudyPlan(
        units=units,
        meta={"orders": orders, "curves": tuple(curves), "radii": tuple(radii)},
    )


def collect_anns_study(plan: StudyPlan, outputs: list) -> AnnsStudyResult:
    """Assemble the per-radius, per-curve series in sweep order."""
    by_key = outputs_by_key(plan, outputs)
    orders, curves, radii = (plan.meta[k] for k in ("orders", "curves", "radii"))
    values = {
        radius: {curve: [by_key[(radius, order, curve)] for order in orders] for curve in curves}
        for radius in radii
    }
    return AnnsStudyResult(orders=orders, values=values)


def format_anns_study(result: AnnsStudyResult) -> str:
    """Render both Fig. 5 panels as text tables."""
    blocks = []
    for radius, per_curve in result.values.items():
        panel = "Fig. 5(a) ANNS (r=1)" if radius == 1 else f"Fig. 5(b) stretch (r={radius})"
        blocks.append(
            format_series(per_curve, result.sides(), panel, x_label="lattice side")
        )
    return "\n\n".join(blocks)


def _flatten(result: AnnsStudyResult) -> list[dict]:
    return [
        {"radius": radius, "curve": curve, "side": 1 << order, "stretch": val}
        for radius, per_curve in result.values.items()
        for curve, series in per_curve.items()
        for order, val in zip(result.orders, series)
    ]


ANNS_STUDY = register_study(
    Study(
        name="fig5",
        title="Fig. 5 — average nearest-neighbour stretch",
        result_type=AnnsStudyResult,
        plan=plan_anns_study,
        collect=collect_anns_study,
        render=format_anns_study,
        schema=ResultSchema(AnnsStudyResult, flatten=_flatten, int_key_fields=("values",)),
    )
)


def main() -> None:  # pragma: no cover - exercised via CLI test
    print(format_anns_study(run_study(ANNS_STUDY)))


if __name__ == "__main__":  # pragma: no cover
    main()
