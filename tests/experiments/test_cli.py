"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main


class TestCli:
    def test_fig5_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5(a)" in out and "Fig. 5(b)" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_scale_flag_validated(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--scale", "gigantic"])

    def test_help_mentions_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "tables" in out and "fig7" in out

    @pytest.mark.parametrize("flag", [["--scale", "paper"], []])
    def test_manifest_scale_agrees_with_config(self, flag, capsys, monkeypatch, tmp_path):
        import json

        # the flag beats the environment; without it the environment rules
        monkeypatch.setenv("REPRO_SCALE", "small" if flag else "paper")
        assert main(["fig5", "--no-store", "--metrics", str(tmp_path), *flag]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["scale"] == "paper"
        assert manifest["config"]["scale"] == "paper"

    def test_jobs_flag_validated(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--jobs", "0"])

    def test_jobs_flag_installs_default(self, capsys, monkeypatch):
        from repro.experiments.runner import resolve_jobs, set_default_jobs

        monkeypatch.setenv("REPRO_SCALE", "small")
        try:
            assert main(["fig5", "--jobs", "2"]) == 0
            assert resolve_jobs(None) == 2
        finally:
            set_default_jobs(None)
        capsys.readouterr()

    def test_store_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--store", "somewhere", "--no-store"])

    def test_single_result_outputs(self, capsys, monkeypatch, tmp_path):
        from repro.experiments.io import load_result

        monkeypatch.setenv("REPRO_SCALE", "small")
        json_path = tmp_path / "fig5.json"
        csv_path = tmp_path / "fig5.csv"
        assert main(["fig5", "--json", str(json_path), "--csv", str(csv_path)]) == 0
        capsys.readouterr()
        assert load_result(json_path).orders
        assert csv_path.read_text().startswith("radius,curve,side,stretch")

    def test_multi_result_outputs_write_directories(self, capsys, monkeypatch, tmp_path):
        from repro.experiments.io import load_result

        monkeypatch.setenv("REPRO_SCALE", "small")
        out = tmp_path / "out"
        assert main(["ablations", "--json", str(out), "--csv", str(out)]) == 0
        capsys.readouterr()
        json_files = sorted(p.name for p in out.glob("*.json"))
        assert json_files == [
            "ablation_continuity.json",
            "ablation_ffi_granularity.json",
            "ablation_hypercube_layout.json",
            "ablation_interpolation_reading.json",
            "ablation_quadtree_convention.json",
        ]
        assert len(list(out.glob("*.csv"))) == 5
        loaded = load_result(out / "ablation_continuity.json")
        assert loaded.ablation == "continuity"

    def test_store_flag_persists_and_resumes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "small")
        store_dir = tmp_path / "store"
        assert main(["clustering", "--store", str(store_dir)]) == 0
        first = capsys.readouterr().out
        entries = len(list(store_dir.glob("*.json")))
        assert entries > 0

        import repro.experiments.study as study_mod

        def boom(unit):  # the warm rerun must not compute anything
            raise AssertionError("compute unit executed despite warm store")

        monkeypatch.setattr(study_mod, "execute_compute_unit", boom)
        assert main(["clustering", "--store", str(store_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_no_store_bypasses_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "small")
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        assert main(["clustering", "--no-store"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "envstore").exists()

    def test_fault_tolerance_flags_validated(self):
        with pytest.raises(SystemExit):
            main(["fig5", "--max-retries", "-1"])
        with pytest.raises(SystemExit):
            main(["fig5", "--unit-timeout", "0"])
        with pytest.raises(SystemExit):
            main(["fig5", "--strict", "--best-effort"])

    def test_fault_tolerance_flags_install_config(self, capsys, monkeypatch):
        import repro.runtime as runtime_mod
        from repro.experiments.runner import set_default_jobs
        from repro.runtime import runtime_config

        monkeypatch.setenv("REPRO_SCALE", "small")
        monkeypatch.setattr(runtime_mod, "_active", runtime_mod._active)
        try:
            assert main(["fig5", "--max-retries", "5", "--unit-timeout", "9.5", "--strict"]) == 0
            config = runtime_config()
            assert config.max_retries == 5
            assert config.unit_timeout == 9.5
            assert config.strict is True
        finally:
            set_default_jobs(None)
        capsys.readouterr()

    def test_best_effort_overrides_strict_env(self, capsys, monkeypatch):
        import repro.runtime as runtime_mod
        from repro.experiments.runner import set_default_jobs
        from repro.runtime import runtime_config

        monkeypatch.setenv("REPRO_SCALE", "small")
        monkeypatch.setenv("REPRO_STRICT", "1")
        monkeypatch.setattr(runtime_mod, "_active", runtime_mod._active)
        try:
            assert main(["fig5", "--best-effort"]) == 0
            assert runtime_config().strict is False
        finally:
            set_default_jobs(None)
        capsys.readouterr()
