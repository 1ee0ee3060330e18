"""Cold-study benchmark: run one workload cold, check its output, print metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6-small --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload tables-paper --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --workload fig6-small --study-seed 7   # a hold-out input
    python3 perfbench/run.py --record-reference          # rewrite reference.json

Every study run is a fresh ``python3 perfbench/child.py`` process with
``jobs=1``, an environment scrubbed of ``REPRO_*`` variables and single
threaded BLAS, so caches start cold and peak RSS is the workload's own.
Runs repeat until ``--seconds`` have passed (at least one); timings are
medians over the runs.  Every ``--seed`` runs the same study seed,
2013 (:data:`workloads.STUDY_SEED`), so runs differ only by noise;
``--study-seed`` picks a hold-out input instead.  Each run's rendered
output is hashed and compared with the digest recorded for that
(workload, study seed) in ``reference.json``; the digest is the only
pass/fail check.  A mismatch or a crash counts as a failed run and
makes the command exit 1.  Without the repository's sources the command
exits 2 without printing a result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics of the traced
runs (see :mod:`layers`) plus the tracing overhead.  Standard output
ends with one record line in the shared schema (``perfbench.record/1``)
and then one summary line::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import COUNTERS, LAYERS
from workloads import HOLDOUT_SEEDS, STUDY_SEED, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
SCHEMA = "perfbench.record/1"

#: End-to-end metrics (tracing off) and their units.
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics of the traced run and their units.
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **COUNTERS,
    "unattributed.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Set-up is short and noisy, so each run takes the median of at least
#: this many set-ups (extra set-up-only processes when runs are few).
MIN_SETUPS = 5
#: One child may take this long before it is killed and counted failed.
CHILD_TIMEOUT_S = 170.0
#: No new run starts if it would likely end after this many seconds.
RUN_BUDGET_S = 150.0


def child_env(environ: dict, root: Path = ROOT) -> dict:
    """The child's environment: ``environ`` without ``REPRO_*``, sources of ``root``."""
    env = {k: v for k, v in environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(
    workload: Workload, seed: int, *, trace: bool = False, setup_only: bool = False
) -> dict:
    """One fresh process running ``workload`` cold; its JSON line plus ``ok``/``error``."""
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    spec = {
        "study": workload.study,
        "scale": workload.scale,
        "trials": workload.trials,
        "seed": seed,
        "store_dir": str(workdir / "store") if workload.store else None,
        "trace": trace,
        "setup_only": setup_only,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(dict(os.environ)),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"ok": False, "error": tail[0]}
    return {"ok": True, "error": None, **json.loads(proc.stdout.strip().splitlines()[-1])}


def check_run(run: dict, expected: dict) -> dict:
    """Mark ``run`` failed when its output digest differs from ``expected``.

    Traced event counts are layer metrics, not checks: a refactor may
    stop calling the event functions while producing the same output.
    """
    if not run["ok"] or "digest" not in run:
        return run
    if run["digest"] != expected["digest"]:
        return {**run, "ok": False, "error": "output digest differs from the reference"}
    return run


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[dict], setups: list[dict], events: int) -> dict:
    """Median end-to-end metrics of the successful untraced runs."""
    wall = statistics.median(r["wall_s"] for r in runs)
    return {
        "wall_s": _metric(wall, "s"),
        "events_per_s": _metric(events / wall, "1/s"),
        "peak_rss_mib": _metric(statistics.median(r["peak_rss_mib"] for r in runs), "MiB"),
        "setup_s": _metric(statistics.median(r["setup_s"] for r in runs + setups), "s"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Median per-layer metrics of the traced runs plus the tracing overhead."""
    out = {
        name: _metric(statistics.median(r["layers"].get(name, 0.0) for r in traced), unit)
        for name, unit in PER_LAYER.items()
        if not name.startswith("trace.")
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    out["trace.wall_s"] = _metric(traced_wall, "s")
    out["trace.overhead_frac"] = _metric(traced_wall / plain_wall - 1.0, "ratio")
    return out


def _commit() -> str:
    """The checkout's git commit, or a hash of its sources outside git."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _run_record(index: int, kind: str, run: dict) -> dict:
    metrics = {}
    for name, unit in END_TO_END.items():
        if name in run:
            metrics[name] = _metric(run[name], unit)
    for name, value in run.get("layers", {}).items():
        metrics[name] = _metric(value, PER_LAYER.get(name, "s"))
    return {"run": index, "kind": kind, "ok": run["ok"], "error": run["error"],
            "metrics": metrics}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, expected: dict):
    """Run the workload until ``seconds`` pass; ``(runs, metrics)``.

    ``runs`` is a list of ``(kind, run)`` with kind ``study``, ``traced``
    or ``setup``; ``metrics`` is empty when no run of a needed kind
    succeeded.
    """
    kinds = ("study", "traced") if trace else ("study",)
    start = time.perf_counter()
    runs: list[tuple[str, dict]] = []
    while True:
        began = time.perf_counter()
        for kind in kinds:
            run = run_child(workload, seed, trace=kind == "traced")
            runs.append((kind, check_run(run, expected)))
        now = time.perf_counter()
        failed = any(not r["ok"] for _, r in runs)
        if failed or now - start >= seconds or now + (now - began) > start + RUN_BUDGET_S:
            break
    ok = {kind: [r for k, r in runs if k == kind and r["ok"]] for kind in ("study", "traced")}
    if trace:
        metrics = per_layer(ok["study"], ok["traced"]) if ok["study"] and ok["traced"] else {}
        return runs, metrics
    if not ok["study"]:
        return runs, {}
    for _ in range(MIN_SETUPS - len(runs)):
        runs.append(("setup", run_child(workload, seed, setup_only=True)))
    setups = [r for k, r in runs if k == "setup" and r["ok"]]
    return runs, end_to_end(ok["study"], setups, expected["events"])


def record_reference(names: list[str]) -> int:
    """Run each workload traced on every study seed; write digests and event counts."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        entries = reference.setdefault(name, {})
        for seed in (STUDY_SEED, *HOLDOUT_SEEDS):
            run = run_child(WORKLOADS[name], seed, trace=True)
            if not run["ok"]:
                print(f"{name} seed {seed}: {run['error']}", file=sys.stderr)
                return 1
            layers = run["layers"]
            events = int(layers.get("events.nfi.events", 0) + layers.get("events.ffi.events", 0))
            entries[str(seed)] = {"digest": run["digest"], "events": events}
            print(f"{name} seed {seed}: {run['wall_s']:.2f} s, {events} events", file=sys.stderr)
            REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--study-seed", type=int, default=STUDY_SEED,
                        choices=(STUDY_SEED, *HOLDOUT_SEEDS),
                        help="study seed to run: %(default)s, or a hold-out")
    parser.add_argument("--record-reference", action="store_true",
                        help="rerun every study seed of --workload (or all) and "
                        "rewrite the reference file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "experiments" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        return record_reference(names)
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    seed = args.study_seed
    try:
        expected = json.loads(REFERENCE.read_text())[workload.name][str(seed)]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no reference for {workload.name} seed {seed}: {exc!r}",
              file=sys.stderr)
        return 2

    runs, metrics = measure(workload, seed, args.seconds, bool(args.trace), expected)
    failed = sum(not r["ok"] for _, r in runs)
    samples = [r for k, r in runs if k != "setup"]
    for _, run in runs:
        if not run["ok"]:
            print(f"perfbench: run failed: {run['error']}", file=sys.stderr)
    first = next((r for _, r in runs if r["ok"] and "numpy" in r), {})
    absent = next((r["absent_layers"] for k, r in runs if k == "traced" and r["ok"]), [])
    record = {
        "schema": SCHEMA,
        "commit": _commit(),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "workload": workload.name,
        "seed": args.seed,
        "study_seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": len(samples),
        "failed_frac": sum(not r["ok"] for r in samples) / len(samples),
        "setup_failed": sum(not r["ok"] for k, r in runs if k == "setup"),
        "absent_layers": absent,
        "moves": list(workload.moves),
        "metrics": metrics,
        "runs": [_run_record(i, kind, run) for i, (kind, run) in enumerate(runs)],
    }
    print(json.dumps(record))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # SystemExit unwinds through subprocess.run, which kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
