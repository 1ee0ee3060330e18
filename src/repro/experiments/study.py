"""Declarative Study framework: every paper study as a case grid.

PR 2 made :func:`~repro.experiments.campaign.run_campaign` fast —
shared per-``(instance, trial)`` event artifacts, pair-histogram ACD,
``--jobs`` fan-out — but each study module still hand-rolled a serial
``run_case`` loop and saw none of it.  Here a study stops owning an
execution loop and instead *declares* itself:

* a :class:`StudyPlan` — the case grid (``expand_grid``-style) as a
  tuple of units, each :class:`FmmUnit` (one
  :class:`~repro.experiments.config.FmmCase`, executed through the
  grouped campaign engine) or :class:`ComputeUnit` (a picklable
  function call, for deterministic metrics like the ANNS that never
  touch ``run_case``);
* a ``collect(plan, outputs) -> result`` reducer assembling the
  study's result dataclass from per-unit outputs.

:func:`run_study` is the single driver: it lowers every declared grid
through :func:`~repro.experiments.campaign.iter_campaign`, so artifact
sharing, histogram ACD and ``--jobs`` parallelism apply to fig5–fig7,
tables, sweeps, clustering and 3D uniformly — bit-identically to the
old per-study loops (proved by ``tests/experiments/
test_golden_equivalence.py`` against pre-refactor goldens).

The driver also consults the persistent
:class:`~repro.experiments.store.ResultStore` when one is active
(``REPRO_STORE`` / ``--store``): finished units load from disk, missing
units are computed and persisted *as they complete*, so an interrupted
or extended sweep resumes from the cases already done and a warm rerun
performs zero trial computations.

Registering a study (:func:`register_study`) also registers its result
schema with :mod:`repro.experiments.io`, which is how the CLI, the JSON
round-trip and the CSV flattener learn about it — adding a study is one
declaration, not edits across four modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro import obs
from repro._typing import SeedLike
from repro.experiments.campaign import iter_campaign
from repro.experiments.config import Scale, active_scale
from repro.experiments.io import ResultSchema, register_result
from repro.experiments.runner import execute_units, resolve_jobs
from repro.experiments.store import (
    MISS,
    STORE_SCHEMA_VERSION,
    ResultStore,
    canonical_key,
    default_store,
)

__all__ = [
    "Study",
    "StudyContext",
    "StudyPlan",
    "FmmUnit",
    "ComputeUnit",
    "run_study",
    "execute_compute_unit",
    "register_study",
    "get_study",
    "study_names",
    "list_studies",
    "STUDIES",
    "outputs_by_key",
]

#: ``StudyContext.store`` default: resolve from the environment at run
#: time (``None`` disables the store explicitly).
ENV_STORE = object()

_MISSING = object()


@dataclass(frozen=True)
class StudyContext:
    """Execution knobs shared by every study run.

    ``trials`` overrides the scale preset's trial count when set;
    ``jobs`` overrides the process-wide default
    (:func:`~repro.experiments.runner.set_default_jobs` /
    ``REPRO_JOBS``); ``store`` is an explicit
    :class:`~repro.experiments.store.ResultStore`, ``None`` to bypass
    persistence, or the default sentinel meaning "whatever
    ``REPRO_STORE`` names".
    """

    scale: Scale | None = None
    seed: SeedLike = 2013
    trials: int | None = None
    jobs: int | None = None
    store: Any = ENV_STORE

    def preset(self) -> Scale:
        """The context's scale, defaulting to the active environment scale."""
        return self.scale if self.scale is not None else active_scale()


@dataclass(frozen=True)
class FmmUnit:
    """One grid point executed through the grouped campaign engine.

    ``key`` is the study-local label (e.g. ``(distribution,
    processor_curve, particle_curve)``) the reducer uses to place the
    unit's :class:`~repro.experiments.runner.CaseResult`.
    """

    key: tuple
    case: Any  # FmmCase; Any avoids an import cycle in type position


@dataclass(frozen=True)
class ComputeUnit:
    """One grid point computed by a plain (picklable) function call.

    Deterministic metric studies — the ANNS sweeps, clustering, the 3D
    validation — have no ``run_case`` trials to share, but still fan
    out over ``--jobs`` and persist per-unit in the result store.
    ``fn`` must be a top-level function and should return JSON-native
    values (or store-codec-registered dataclasses) so results survive
    the store round-trip unchanged.
    """

    key: tuple
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: tuple[tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class StudyPlan:
    """A study's declared case grid plus campaign parameters.

    ``trials``/``seed``/``parts`` apply to the plan's
    :class:`FmmUnit`\\ s (one grouped campaign executes them all);
    ``meta`` carries the axes the reducer needs to assemble the result
    (curve lists, sweep values, ...).
    """

    units: tuple[FmmUnit | ComputeUnit, ...]
    trials: int = 1
    seed: SeedLike = 0
    parts: tuple[str, ...] = ("nfi", "ffi")
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Study:
    """A registered paper study: declarative grid, reducer, presentation.

    ``plan(ctx)`` builds the default grid for a context (public runners
    may build parameterised plans with the same builder and pass them to
    :func:`run_study` explicitly); ``collect(plan, outputs)`` reduces
    per-unit outputs (aligned with ``plan.units``) into ``result_type``;
    ``render`` formats a result for the CLI; ``schema`` teaches
    :mod:`repro.experiments.io` to persist and flatten the result.
    """

    name: str
    title: str
    result_type: type
    plan: Callable[[StudyContext], StudyPlan]
    collect: Callable[[StudyPlan, list], Any]
    render: Callable[[Any], str]
    schema: ResultSchema | None = None


STUDIES: dict[str, Study] = {}


def register_study(study: Study) -> Study:
    """Add a study to the global registry (and its schema to io)."""
    existing = STUDIES.get(study.name)
    if existing is not None and existing is not study:
        raise ValueError(f"study {study.name!r} already registered")
    STUDIES[study.name] = study
    if study.schema is not None:
        register_result(study.schema)
    return study


def get_study(name: str) -> Study:
    """Look up a registered study by name."""
    try:
        return STUDIES[name]
    except KeyError:
        raise ValueError(
            f"unknown study {name!r}; registered: {', '.join(sorted(STUDIES))}"
        ) from None


def study_names() -> tuple[str, ...]:
    """Registered study names, in registration order."""
    return tuple(STUDIES)


def list_studies() -> tuple[Study, ...]:
    """Every registered study, in registration order.

    The discovery face of the public API: pair with
    ``run_study(study.name)`` to execute any paper study without
    importing its module explicitly.
    """
    return tuple(STUDIES.values())


def outputs_by_key(plan: StudyPlan, outputs: Sequence[Any]) -> dict[tuple, Any]:
    """Map each unit's key to its output (reducer convenience)."""
    return {unit.key: out for unit, out in zip(plan.units, outputs)}


def execute_compute_unit(unit: ComputeUnit) -> Any:
    """Run one compute unit (top-level so process pools can execute it)."""
    return unit.fn(*unit.args, **dict(unit.kwargs))


def _seed_token(seed: SeedLike) -> Any:
    """JSON-able identity of an experiment seed, or ``None`` (unkeyable)."""
    import numpy as np

    if seed is None or isinstance(seed, (int, str)):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {
            "seedseq": [entropy, [int(k) for k in seed.spawn_key], int(seed.pool_size)]
        }
    return None


def store_key(unit: FmmUnit | ComputeUnit, plan: StudyPlan) -> Any:
    """The content-address of one unit's result, or ``None`` if unkeyable.

    Covers everything the result depends on: the full case (or function
    and arguments), the trial count, the experiment seed, the evaluated
    parts and the code-schema version.  Unkeyable units (stateful seeds,
    non-JSON arguments) simply bypass the store.
    """
    import dataclasses

    if isinstance(unit, FmmUnit):
        seed = _seed_token(plan.seed)
        if seed is None and plan.seed is not None:
            return None
        key = {
            "kind": "case",
            "v": STORE_SCHEMA_VERSION,
            "case": dataclasses.asdict(unit.case),
            "trials": plan.trials,
            "seed": seed,
            "parts": list(plan.parts),
        }
    else:
        key = {
            "kind": "compute",
            "v": STORE_SCHEMA_VERSION,
            "fn": f"{unit.fn.__module__}:{unit.fn.__qualname__}",
            "args": list(unit.args),
            "kwargs": {k: v for k, v in unit.kwargs},
        }
    try:
        canonical_key(key)
    except TypeError:
        return None
    return key


def _resolve_store(ctx: StudyContext) -> ResultStore | None:
    if ctx.store is ENV_STORE:
        return default_store()
    return ctx.store


def run_study(
    study: Study | str,
    ctx: StudyContext | None = None,
    *,
    plan: StudyPlan | None = None,
) -> Any:
    """Execute one study: store lookups, campaign lowering, reduction.

    ``study`` may be a registered study name (``run_study("fig6")``) or
    a :class:`Study` object.  All of the plan's :class:`FmmUnit`\\ s not
    already in the store run as **one** grouped campaign — cases sharing
    an instance key generate each trial's events exactly once, and
    ``(instance, trial)`` units fan out over the process pool.
    :class:`ComputeUnit`\\ s fan out through the same pool.  Finished
    units are persisted per-case as they complete, so killing a sweep
    loses at most the in-flight instance group.  Results are
    bit-identical with or without a store, at any job count.

    When an :mod:`repro.obs` recorder is active the run is traced as a
    ``study`` span with one child per phase (``plan``,
    ``store.lookup``, ``campaign``, ``compute``, ``collect``) plus
    resume-accounting counters (``study.units``, ``study.resume_hits``)
    — the raw material of the run manifest.
    """
    if isinstance(study, str):
        study = get_study(study)
    if ctx is None:
        ctx = StudyContext()
    with obs.span("study", study=study.name):
        if plan is None:
            with obs.span("plan"):
                plan = study.plan(ctx)
        store = _resolve_store(ctx)
        units = plan.units
        obs.count("study.units", len(units))
        outputs: list[Any] = [_MISSING] * len(units)
        keys: list[Any] = [None] * len(units)
        if store is not None:
            with obs.span("store.lookup", units=len(units)):
                for i, unit in enumerate(units):
                    keys[i] = store_key(unit, plan)
                    if keys[i] is not None:
                        hit = store.get(keys[i])
                        if hit is not MISS:
                            outputs[i] = hit
                            obs.count("study.resume_hits")
        jobs = resolve_jobs(ctx.jobs)

        def persist(i: int, value: Any) -> None:
            if store is not None and keys[i] is not None:
                try:
                    store.put(keys[i], value)
                except TypeError:
                    pass  # unstorable value: compute-only unit, keep going

        # Flush-on-failure checkpointing: both fan-outs below stream
        # finished units in *completion* order and persist each one the
        # moment it lands, so an error propagating out of the executor
        # (budget exhausted, strict mode, Ctrl-C) leaves every completed
        # unit already in the store — the rerun pays only what's missing.
        try:
            pending_cases = [
                i
                for i, unit in enumerate(units)
                if isinstance(unit, FmmUnit) and outputs[i] is _MISSING
            ]
            if pending_cases:
                with obs.span("campaign", cases=len(pending_cases)):
                    stream: Iterator = iter_campaign(
                        [units[i].case for i in pending_cases],
                        trials=plan.trials,
                        seed=plan.seed,
                        parts=plan.parts,
                        jobs=jobs,
                    )
                    for local, result in stream:
                        i = pending_cases[local]
                        outputs[i] = result
                        persist(i, result)

            pending_compute = [
                i
                for i, unit in enumerate(units)
                if isinstance(unit, ComputeUnit) and outputs[i] is _MISSING
            ]
            if pending_compute:
                with obs.span("compute", units=len(pending_compute)):
                    results = execute_units(
                        execute_compute_unit, [(units[i],) for i in pending_compute], jobs
                    )
                    for local, result in results:
                        i = pending_compute[local]
                        outputs[i] = result
                        persist(i, result)
        except BaseException:
            obs.count("study.aborted")
            raise

        unfilled = [i for i, out in enumerate(outputs) if out is _MISSING]
        if unfilled:
            raise RuntimeError(
                f"study {study.name!r} has unexecuted units at {unfilled} "
                "(unit neither FmmUnit nor ComputeUnit?)"
            )
        with obs.span("collect"):
            return study.collect(plan, outputs)
