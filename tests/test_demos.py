import os
import subprocess
import sys
from pathlib import Path

import pytest

import oppaccess

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_warnings(tmp_path, demo):
    # Every demo must run to the end with warnings turned into errors.  The
    # four take about 1 s in all.
    src = str(Path(oppaccess.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
