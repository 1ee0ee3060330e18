"""The paper-scale oracle: every figure and table section, byte for byte.

``paper_scale_results.txt`` holds Fig. 5, Tables I/II, Fig. 6 and
Fig. 7 as regenerated cold at paper scale (65 536 ranks, 10^6
particles, default trials).  This test regenerates them through the
CLI and diffs the 12 sections against it.  It takes minutes, so it is
marked ``slow`` and deselected by default; run it with::

    python -m pytest -m slow tests/integration/test_paper_oracle.py
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ORACLE = Path(__file__).resolve().parents[2] / "paper_scale_results.txt"
FIGURES = ("fig5", "tables", "fig6", "fig7")
HEADS = ("Fig. 5(", "Table I ", "Table II ", "Fig. 6(", "Fig. 7(")


def sections(*reports: str) -> list[str]:
    """The figure/table sections (blank-line separated) of reports."""
    blocks = [block for report in reports for block in report.split("\n\n")]
    return [
        block.strip("\n") + "\n" for block in blocks if block.lstrip("\n").startswith(HEADS)
    ]


def regenerate(figure: str) -> str:
    """Stdout of ``repro-experiments <figure> --no-store`` at paper scale."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, REPRO_SCALE="paper", PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", figure, "--no-store"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, f"{figure} failed:\n{run.stderr}"
    return run.stdout


@pytest.mark.slow
def test_paper_scale_sections_match_oracle():
    want = sections(ORACLE.read_text())
    assert len(want) == 12, f"oracle has {len(want)} sections, expected 12"
    got = sections(*(regenerate(figure) for figure in FIGURES))
    if got != want:
        diff = difflib.unified_diff(
            "".join(want).splitlines(True),
            "".join(got).splitlines(True),
            ORACLE.name,
            "repro-experiments " + "/".join(FIGURES),
        )
        pytest.fail("".join(diff), pytrace=False)
