"""Smoke test: every script in demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, tmp_path):
    """Run a copy of demos/ without its drawings, which are tracked; return
    the copy."""
    copy = tmp_path / "demos"
    shutil.copytree(script.parent, copy, ignore=shutil.ignore_patterns("*.svg"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(copy / script.name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return copy


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script, tmp_path):
    _run(script, tmp_path)


def test_quickstart_redraws_the_tracked_drawing(tmp_path):
    drawing = "quickstart_tour.svg"
    copy = _run(ROOT / "demos" / "quickstart.py", tmp_path)
    assert (copy / drawing).read_bytes() == (ROOT / "demos" / drawing).read_bytes()
