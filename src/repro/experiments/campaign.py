"""Batch execution of arbitrary experiment-case grids.

The study modules regenerate the paper's fixed designs; downstream users
usually want their *own* grid ("my three networks x my two curves x my
input").  :func:`run_campaign` executes any iterable of
:class:`~repro.experiments.config.FmmCase` and returns tidy per-case
results; :func:`expand_grid` builds the cartesian product from keyword
lists.

Shared event generation
-----------------------
A case's event stream depends only on its *instance* fields
(:data:`~repro.experiments.config.INSTANCE_FIELDS`), never on the
network, so a grid sweeping topologies and processor-order SFCs against
a fixed workload — the paper's own §VI design — regenerates identical
events for every network.  :func:`run_campaign` instead groups cases by
:meth:`~repro.experiments.config.FmmCase.instance_key`, generates each
trial's events exactly once per group (compacted to pair histograms via
:mod:`repro.experiments.artifacts`), and broadcasts the artifact across
every network in the group.  With ``jobs > 1`` the fan-out unit is one
``(instance, trial)`` pair.  Every trial uses the same spawned child
seed as :func:`~repro.experiments.runner.run_case`, and histogram ACD
evaluation is integer-exact, so grouped campaigns are bit-identical to
per-case execution at any job count.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from repro import obs
from repro._typing import SeedLike
from repro.experiments.artifacts import evaluate_artifact, get_trial_artifact
from repro.experiments.config import FmmCase
from repro.experiments.reporting import format_rows
from repro.experiments.executor import ExecutionPolicy
from repro.experiments.runner import (
    CaseResult,
    TrialResult,
    _check_parts,
    aggregate_trials,
    case_topology,
    execute_units,
    resolve_jobs,
)
from repro.util.rng import spawn_seeds

__all__ = ["expand_grid", "run_campaign", "iter_campaign", "format_campaign", "case_groups"]

_GRID_FIELDS = (
    "num_particles",
    "order",
    "num_processors",
    "topology",
    "particle_curve",
    "processor_curve",
    "distribution",
    "radius",
    "nfi_metric",
)

_GRID_DEFAULTS = {"radius": 1, "nfi_metric": "chebyshev"}


def expand_grid(**axes: object) -> list[FmmCase]:
    """Build the cartesian product of case parameters.

    Every :class:`FmmCase` field may be given either a scalar or a
    sequence of values; sequences are crossed::

        cases = expand_grid(
            num_particles=10_000, order=8, num_processors=256,
            topology=("torus", "hypercube"),
            particle_curve=("hilbert", "rowmajor"),
            processor_curve="hilbert",
            distribution="uniform",
        )   # 4 cases

    ``radius`` (default 1) and ``nfi_metric`` (default ``"chebyshev"``)
    may be omitted; every other field is required.
    """
    unknown = set(axes) - set(_GRID_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown case fields: {', '.join(sorted(map(str, unknown)))}; "
            f"valid fields: {', '.join(_GRID_FIELDS)}"
        )
    values: list[Sequence[object]] = []
    names: list[str] = []
    for field in _GRID_FIELDS:
        if field not in axes:
            if field in _GRID_DEFAULTS:
                axes[field] = _GRID_DEFAULTS[field]
            else:
                raise ValueError(f"missing required case field {field!r}")
        raw = axes[field]
        seq = raw if isinstance(raw, (list, tuple)) else (raw,)
        names.append(field)
        values.append(tuple(seq))
    return [
        FmmCase(**dict(zip(names, combo))) for combo in itertools.product(*values)
    ]


def case_groups(cases: Sequence[FmmCase]) -> dict[tuple, list[int]]:
    """Indices of ``cases`` grouped by instance key (first-seen order).

    Every case in a group generates bit-identical events for a given
    trial seed; only the network they are evaluated on differs.
    """
    groups: dict[tuple, list[int]] = {}
    for i, case in enumerate(cases):
        groups.setdefault(case.instance_key(), []).append(i)
    return groups


def run_instance_trial(
    group: tuple[FmmCase, ...],
    child_seed: SeedLike,
    parts: tuple[str, ...],
) -> list[TrialResult]:
    """One ``(instance, trial)`` unit: build the artifact, evaluate the group.

    All cases in ``group`` must share an instance key; the trial's
    events are generated once and evaluated against every case's
    network (memoised per process).  Top-level (picklable) so process
    pools can execute it.
    """
    obs.count("campaign.trials")
    obs.count("campaign.case_evaluations", len(group))
    artifact = get_trial_artifact(group[0], child_seed, parts)
    return [evaluate_artifact(artifact, case_topology(case), parts) for case in group]


def iter_campaign(
    cases: Sequence[FmmCase],
    *,
    trials: int = 3,
    seed: SeedLike = 0,
    parts: tuple[str, ...] = ("nfi", "ffi"),
    jobs: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> Iterator[tuple[int, CaseResult]]:
    """Stream ``(index, CaseResult)`` pairs as instance groups complete.

    The incremental face of the campaign engine: cases are grouped by
    instance key, ``(instance, trial)`` units fan out through
    :func:`~repro.experiments.executor.execute_units` (all units are
    scheduled up front, so ``jobs > 1`` parallelism is unaffected by
    streaming), and every case of a group is yielded as soon as the
    group's last trial lands — *in completion order*, so a slow or
    retrying group never holds back the checkpointing of a finished
    one.  Consumers — notably the study driver's result store — can
    persist each case before the sweep finishes, and before any
    failure propagates.  The per-case values are bit-identical to
    :func:`run_campaign` (which is this iterator, drained and
    reordered), under any job count, retry schedule or degradation.
    """
    cases = list(cases)
    if not cases:
        return
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_parts(parts)
    jobs = resolve_jobs(jobs)
    groups = case_groups(cases)
    obs.count("campaign.cases", len(cases))
    obs.count("campaign.instance_groups", len(groups))
    # run_case spawns the same child seeds for every case, so one spawn
    # serves the whole campaign and sharing preserves bit-identity.
    seeds = spawn_seeds(seed, trials)
    group_indices = list(groups.values())
    units = [
        (tuple(cases[i] for i in idxs), child, parts)
        for idxs in group_indices
        for child in seeds
    ]
    # unit u belongs to group u // trials, trial u % trials
    collected: dict[int, dict[int, list[TrialResult]]] = {}
    for u, outputs in execute_units(run_instance_trial, units, jobs, policy=policy):
        group, trial = divmod(u, trials)
        slot = collected.setdefault(group, {})
        slot[trial] = outputs
        if len(slot) < trials:
            continue
        for case_pos, i in enumerate(group_indices[group]):
            yield i, aggregate_trials(
                cases[i], [slot[t][case_pos] for t in range(trials)]
            )
        del collected[group]


def run_campaign(
    cases: Iterable[FmmCase],
    *,
    trials: int = 3,
    seed: SeedLike = 0,
    parts: tuple[str, ...] = ("nfi", "ffi"),
    jobs: int | None = None,
    policy: ExecutionPolicy | None = None,
) -> list[CaseResult]:
    """Execute every case, generating events once per shared instance.

    Cases agreeing on all instance fields share each trial's particle
    draw, assignment and NFI/FFI event generation; each finished
    artifact is broadcast across the group's networks.  With ``jobs >
    1`` the ``(instance, trial)`` units fan out over a persistent
    process pool.  Results are returned in input order and are
    bit-identical to ``[run_case(c, ...) for c in cases]`` at any job
    count (same spawned child seeds, integer-exact histogram ACD).
    """
    cases = list(cases)
    results: list[CaseResult | None] = [None] * len(cases)
    for i, result in iter_campaign(
        cases, trials=trials, seed=seed, parts=parts, jobs=jobs, policy=policy
    ):
        results[i] = result
    return results  # type: ignore[return-value]


def format_campaign(results: Sequence[CaseResult]) -> str:
    """Render campaign results as one row per case."""
    rows = [r.row() for r in results]
    columns = [
        "topology",
        "processor_curve",
        "particle_curve",
        "distribution",
        "num_particles",
        "num_processors",
        "radius",
        "nfi_acd",
        "ffi_acd",
    ]
    return format_rows(rows, columns)
