import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyqmom

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos write their outputs into the working directory
    env = dict(os.environ)
    package_root = str(Path(hyqmom.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
