import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path, package_env):
    # the demos write their outputs into the working directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=package_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
