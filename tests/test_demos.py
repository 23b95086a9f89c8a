import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    # demo 01 writes its CSV into the working directory
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    r = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                       capture_output=True, text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
