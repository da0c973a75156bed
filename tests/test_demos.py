"""The demos run to completion as scripts.

Each demo runs in a fresh interpreter inside a temporary working
directory, since demos write their CSV files to the current directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uisearch

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_demo(path, cwd):
    src = os.path.dirname(os.path.dirname(uisearch.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_three_demos_found():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr
    if demo.name.startswith("02_"):
        assert result.stdout.splitlines()[0] == (
            "Calibration: z = c = 0.4025 (nonwork value 0.805 split in half),")
