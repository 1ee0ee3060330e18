"""The benchmark's workloads: which registered study runs, at what size, and why.

Each workload is one cold ``repro-experiments <command>`` run, executed
through :func:`repro.experiments.run_study` in a fresh single-threaded
process.  The three stress different layers of the cold path (shares
measured with the traced run on a 2-core x86-64 container):

* ``fig6-small`` — every event artifact fans out to six networks at
  p = 4096, so building p x p distance matrices dominates wall time and
  peak memory.  It exercises the topology cache that a single direct
  ACD path would delete.
* ``tables-paper`` — 65 536 ranks put the p x p matrix over the cache
  budget, so the topology cache is bypassed; the time is in sampling,
  FFI event generation and sparse sort-path compaction.  It is the
  counterpart on which a topology-cache change should show no effect.
* ``dynamic-store`` — 168 tiny step units, each running its own event
  generation and writing one result-store entry: per-call overhead of
  the event layers, the ``dynamics`` layer and store writes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "STUDY_SEED", "HOLDOUT_SEEDS"]


@dataclass(frozen=True)
class Workload:
    """One cold study run.

    ``study`` is a registered study name, ``scale`` a
    :data:`repro.experiments.config.SCALES` name, ``trials`` overrides
    the scale's trial count when set, and ``store`` gives the run a
    fresh result-store directory.  Why each workload was chosen is
    recorded once, in ``BENCHMARK.json``.  ``moves`` lists, per layer metric of
    the traced run, the end-to-end metric it should move on this
    workload and the share of wall time measured for it.
    """

    name: str
    study: str
    scale: str
    trials: int | None
    store: bool
    moves: tuple[str, ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig6-small",
            study="fig6",
            scale="small",
            trials=None,
            store=False,
            moves=(
                "topology.matrix.self_s -> wall_s, peak_rss_mib (largest layer)",
                "events.nfi.self_s -> wall_s (r=4 gives 40 grid shifts)",
                "events.compact.self_s -> wall_s, events_per_s",
                "artifacts.evaluations / artifacts.built = 6 (network fan-out)",
            ),
        ),
        Workload(
            name="tables-paper",
            study="tables",
            scale="paper",
            trials=1,
            store=False,
            moves=(
                "events.compact.self_s + events.ffi.self_s -> wall_s, events_per_s "
                "(largest share)",
                "dist.sample.self_s -> wall_s",
                "metric.eval.self_s -> wall_s (direct-distance ACD)",
                "topology.matrix.builds = 0 (cache bypassed: predict no change)",
                "artifacts.evaluations / artifacts.built = 4",
            ),
        ),
        Workload(
            name="dynamic-store",
            study="dynamic",
            scale="small",
            trials=None,
            store=True,
            moves=(
                "events.ffi.self_s -> wall_s (many ~30 ms calls)",
                "events.compact.self_s -> wall_s (dense path)",
                "store.put.self_s -> wall_s",
                "dynamics.evolve.self_s, dynamics.migration.self_s -> guard (small)",
            ),
        ),
    )
}

#: The study seed every run uses, whatever its ``--seed``: the CLI
#: default.  Runs with different benchmark seeds then measure the same
#: input, so their spread is run-to-run noise only.
STUDY_SEED = 2013

#: Hold-out study seeds, run only on request (``run.py --study-seed``),
#: for checking a claim on inputs not used while a change was written.
#: Each workload has a reference output digest and event count for
#: :data:`STUDY_SEED` and every hold-out in ``reference.json``.
HOLDOUT_SEEDS: tuple[int, ...] = (7, 1009, 4242, 65537)
