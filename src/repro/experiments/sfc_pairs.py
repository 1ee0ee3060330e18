"""Tables I & II — particle-order x processor-order SFC combinations (§VI-A).

16 curve pairings x 3 input distributions on a torus; near-field
(Table I) and far-field (Table II) ACD are produced by the same runs.
The study declares one :class:`~repro.experiments.study.FmmUnit` per
``(distribution, processor_curve, particle_curve)`` cell; the shared
driver lowers the whole grid through the grouped campaign engine, so
all 4 processor orderings of a given ``(distribution, particle_curve)``
instance share each trial's generated events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributions.registry import PAPER_DISTRIBUTIONS
from repro.experiments.config import FmmCase
from repro.experiments.io import ResultSchema
from repro.experiments.reporting import format_matrix, pretty
from repro.experiments.study import (
    FmmUnit,
    Study,
    StudyContext,
    StudyPlan,
    outputs_by_key,
    register_study,
    run_study,
)
from repro.sfc.registry import PAPER_CURVES

__all__ = ["SfcPairsResult", "SFC_PAIRS_STUDY", "format_sfc_pairs"]


@dataclass(frozen=True)
class SfcPairsResult:
    """ACD matrices per distribution for both interaction models.

    ``nfi[dist][processor_curve][particle_curve]`` (and ``ffi`` alike)
    hold trial-averaged ACD values — the exact layout of the paper's
    Tables I and II.
    """

    distributions: tuple[str, ...]
    processor_curves: tuple[str, ...]
    particle_curves: tuple[str, ...]
    nfi: dict[str, dict[str, dict[str, float]]]
    ffi: dict[str, dict[str, dict[str, float]]]


def plan_sfc_pairs(
    ctx: StudyContext,
    distributions: tuple[str, ...] = PAPER_DISTRIBUTIONS,
    curves: tuple[str, ...] = PAPER_CURVES,
    topology: str = "torus",
    parts: tuple[str, ...] = ("nfi", "ffi"),
) -> StudyPlan:
    """Declare the §VI-A grid: 16 pairings x 3 distributions."""
    preset = ctx.preset()
    units = tuple(
        FmmUnit(
            key=(dist, proc_curve, part_curve),
            case=FmmCase(
                num_particles=preset.pairs_particles,
                order=preset.pairs_order,
                num_processors=preset.pairs_processors,
                topology=topology,
                particle_curve=part_curve,
                processor_curve=proc_curve,
                distribution=dist,
                radius=1,
            ),
        )
        for proc_curve in curves
        for dist in distributions
        for part_curve in curves
    )
    return StudyPlan(
        units=units,
        trials=preset.resolve_trials(ctx.trials),
        seed=ctx.seed,
        parts=tuple(parts),
        meta={"distributions": tuple(distributions), "curves": tuple(curves)},
    )


def collect_sfc_pairs(plan: StudyPlan, outputs: list) -> SfcPairsResult:
    """Assemble both tables from the per-cell case results."""
    by_key = outputs_by_key(plan, outputs)
    distributions, curves = plan.meta["distributions"], plan.meta["curves"]
    nfi = {d: {c: {} for c in curves} for d in distributions}
    ffi = {d: {c: {} for c in curves} for d in distributions}
    for dist in distributions:
        for proc in curves:
            for part in curves:
                result = by_key[(dist, proc, part)]
                nfi[dist][proc][part] = result.nfi_acd
                ffi[dist][proc][part] = result.ffi_acd
    return SfcPairsResult(
        distributions=distributions,
        processor_curves=curves,
        particle_curves=curves,
        nfi=nfi,
        ffi=ffi,
    )


def format_sfc_pairs(result: SfcPairsResult) -> str:
    """Render both tables in the paper's layout."""
    blocks = []
    for table, data in (("Table I (NFI)", result.nfi), ("Table II (FFI)", result.ffi)):
        for dist in result.distributions:
            blocks.append(
                format_matrix(
                    data[dist],
                    result.processor_curves,
                    result.particle_curves,
                    title=f"{table} — {pretty(dist)} distribution, ACD",
                )
            )
    return "\n\n".join(blocks)


def _flatten(result: SfcPairsResult) -> list[dict]:
    return [
        {
            "model": model,
            "distribution": dist,
            "processor_curve": proc,
            "particle_curve": part,
            "acd": table[dist][proc][part],
        }
        for model, table in (("nfi", result.nfi), ("ffi", result.ffi))
        for dist in result.distributions
        for proc in result.processor_curves
        for part in result.particle_curves
    ]


SFC_PAIRS_STUDY = register_study(
    Study(
        name="tables",
        title="Tables I & II — SFC pairings x distributions",
        result_type=SfcPairsResult,
        plan=plan_sfc_pairs,
        collect=collect_sfc_pairs,
        render=format_sfc_pairs,
        schema=ResultSchema(SfcPairsResult, flatten=_flatten),
    )
)


def main() -> None:  # pragma: no cover - exercised via CLI test
    print(format_sfc_pairs(run_study(SFC_PAIRS_STUDY)))


if __name__ == "__main__":  # pragma: no cover
    main()
