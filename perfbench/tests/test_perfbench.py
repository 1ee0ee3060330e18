"""Self-tests of the benchmark harness at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The tiny workload is the ``energy`` metric study at small scale with one
trial (well under a second per run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import HOLDOUT_SEEDS, STUDY_SEED, WORKLOADS, Workload  # noqa: E402

TINY = Workload(name="tiny", study="energy", scale="small", trials=1, store=False)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg`` with nested functions, an alias module and a class hierarchy."""
    clock = Clock()
    pkg = types.ModuleType("fakepkg")
    user = types.ModuleType("fakepkg.user")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        pkg.inner()
        user.inner_alias()
        clock.now += 3.0

    class Base:
        def work(self, n):
            clock.now += 1.0
            return n

    class Sub(Base):
        def work(self, n):
            clock.now += 0.5
            return super().work(n)

    pkg.inner, pkg.outer, pkg.Base, pkg.Sub = inner, outer, Base, Sub
    user.inner_alias = inner
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    return pkg, user, clock


def test_self_time_is_parent_minus_children(fake_package):
    pkg, user, clock = fake_package
    original = pkg.inner
    targets = (layers.Target("fakepkg:outer", "A"), layers.Target("fakepkg:inner", "B"))
    with layers.Tracer(targets, clock=clock) as tracer:
        pkg.outer()
    assert tracer.self_s == {"A": 4.0, "B": 4.0}  # inner runs twice, once via its alias
    assert pkg.inner is original and user.inner_alias is original
    metrics = layers.layer_metrics(tracer.self_s, tracer.counts, wall_s=clock.now)
    assert metrics["unattributed.self_s"] == 0.0
    assert sum(tracer.self_s.values()) <= clock.now


def test_overriding_method_counts_its_work_once(fake_package):
    pkg, _, clock = fake_package
    count = lambda args, kwargs, result, before: {"work.items": result}  # noqa: E731
    target = layers.Target("fakepkg:Base.work", "W", count)
    with layers.Tracer((target,), clock=clock) as tracer:
        pkg.Sub().work(3)
        pkg.Base().work(2)
    assert tracer.counts == {"work.items": 5}
    assert tracer.self_s == {"W": 2.5}
    assert not hasattr(pkg.Sub.work, "__wrapped__")
    assert not hasattr(pkg.Base.work, "__wrapped__")


def test_absent_layer_function_is_reported_not_raised(fake_package):
    sys.path.insert(0, str(ROOT / "src"))
    targets = (
        layers.Target("repro.experiments.artifacts:no_such_function", "gone"),
        layers.Target("no_such_module_anywhere:f", "missing"),
        layers.Target("fakepkg:Base.no_such_method", "gone"),
        layers.Target("fakepkg:outer", "present"),
    )
    with layers.Tracer(targets) as tracer:
        fake_package[0].outer()
    assert len(tracer.absent) == 3
    assert tracer.absent_layers == ["gone", "missing"]
    assert "present" in tracer.self_s


def test_repro_variables_are_scrubbed():
    env = run.child_env(
        {
            "REPRO_STORE": "/elsewhere/store",
            "REPRO_JOBS": "4",
            "REPRO_CACHE_MATRIX_BYTES": "0",
            "PYTHONPATH": "/elsewhere",
            "PATH": "/bin",
        },
        Path("/checkout"),
    )
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/bin"
    assert env["PYTHONPATH"] == str(Path("/checkout/src"))


def test_child_sees_no_repro_variables(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "user-store"))
    monkeypatch.setenv("REPRO_JOBS", "2")
    result = run.run_child(TINY, 2013)
    assert result["ok"], result["error"]
    assert result["repro_env"] == []
    assert not (tmp_path / "user-store").exists()


def test_digest_check_rejects_tampered_output():
    good = run.run_child(TINY, 2013)
    assert good["ok"], good["error"]
    expected = {"digest": good["digest"], "events": 0}
    assert run.check_run(good, expected)["ok"]
    tampered = {**expected, "digest": "0" * 64}
    checked = run.check_run(good, tampered)
    assert not checked["ok"] and "digest" in checked["error"]


def test_traced_run_accounts_within_wall_and_reports_events():
    traced = run.run_child(TINY, 2013, trace=True)
    assert traced["ok"], traced["error"]
    assert traced["absent_layers"] == []
    self_times = [v for k, v in traced["layers"].items() if k.endswith(".self_s")
                  and k != "unattributed.self_s"]
    assert sum(self_times) <= traced["wall_s"]
    assert traced["layers"]["unattributed.self_s"] >= 0.0
    events = traced["layers"]["events.nfi.events"] + traced["layers"]["events.ffi.events"]
    assert events > 0
    # Only the digest decides: a refactor may change which functions count events.
    assert run.check_run(traced, {"digest": traced["digest"], "events": events + 1})["ok"]


def _run_main(monkeypatch, capsys, reference: Path, trace: int) -> tuple[int, dict, dict]:
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "REFERENCE", reference)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    record, summary = capsys.readouterr().out.strip().splitlines()[-2:]
    return code, json.loads(record), json.loads(summary)


def test_main_prints_metrics_and_fails_on_corrupted_reference(monkeypatch, capsys, tmp_path):
    traced = run.run_child(TINY, STUDY_SEED, trace=True)
    events = int(traced["layers"]["events.nfi.events"] + traced["layers"]["events.ffi.events"])
    reference = tmp_path / "reference.json"
    entry = {"digest": traced["digest"], "events": events}
    reference.write_text(json.dumps({"tiny": {str(STUDY_SEED): entry}}))

    code, record, summary = _run_main(monkeypatch, capsys, reference, trace=0)
    assert code == 0 and summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert summary["attempted"] == run.MIN_SETUPS  # one study run plus set-up probes
    assert record["schema"] == run.SCHEMA and record["study_seed"] == STUDY_SEED
    assert record["samples"] == 1 and record["failed_frac"] == 0.0
    assert {"commit", "host", "nproc", "python", "numpy", "workload", "seed"} <= set(record)
    assert [r["run"] for r in record["runs"]] == list(range(run.MIN_SETUPS))

    code, _, summary = _run_main(monkeypatch, capsys, reference, trace=1)
    assert code == 0 and set(summary["metrics"]) == set(run.PER_LAYER)

    entry["digest"] = "f" * 64
    reference.write_text(json.dumps({"tiny": {str(STUDY_SEED): entry}}))
    code, record, summary = _run_main(monkeypatch, capsys, reference, trace=0)
    assert code == 1 and not summary["correct"] and summary["failed"] == 1
    assert record["samples"] == 1 and record["failed_frac"] == 1.0


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    reference = json.loads(run.REFERENCE.read_text())
    for name in WORKLOADS:
        assert sorted(reference[name]) == sorted(str(s) for s in (STUDY_SEED, *HOLDOUT_SEEDS))


def _fake_child(seeds: list, setup_ok: bool):
    def fake_child(workload, seed, *, trace=False, setup_only=False):
        seeds.append(seed)
        if setup_only:
            return {"ok": setup_ok, "error": None if setup_ok else "probe crashed",
                    "setup_s": 0.1}
        return {"ok": True, "error": None, "digest": f"d{seed}", "wall_s": 1.0,
                "peak_rss_mib": 10.0, "setup_s": 0.1, "numpy": "x"}

    return fake_child


def test_failed_frac_counts_study_runs_only(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "run_child", _fake_child([], setup_ok=False))
    reference = tmp_path / "reference.json"
    entry = {"digest": f"d{STUDY_SEED}", "events": 5}
    reference.write_text(json.dumps({"tiny": {str(STUDY_SEED): entry}}))
    code, record, summary = _run_main(monkeypatch, capsys, reference, trace=0)
    assert record["samples"] == 1 and record["failed_frac"] == 0.0
    assert record["setup_failed"] == run.MIN_SETUPS - 1
    assert code == 1 and summary["failed"] == run.MIN_SETUPS - 1


def test_every_seed_runs_the_default_input_and_holdouts_need_asking(
    monkeypatch, capsys, tmp_path
):
    seeds: list[int] = []
    monkeypatch.setattr(run, "run_child", _fake_child(seeds, setup_ok=True))
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    holdout = HOLDOUT_SEEDS[0]
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"tiny": {
        str(s): {"digest": f"d{s}", "events": 5} for s in (STUDY_SEED, holdout)
    }}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    for seed in ("0", "1", "7"):
        assert run.main(["--workload", "tiny", "--seed", seed, "--seconds", "0"]) == 0
    assert set(seeds) == {STUDY_SEED}
    seeds.clear()
    assert run.main(["--workload", "tiny", "--seconds", "0",
                     "--study-seed", str(holdout)]) == 0
    assert set(seeds) == {holdout}
    capsys.readouterr()
