import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path, package_env):
    # the demos write their outputs into the working directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=package_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # the README's "Library quick start" block as written, with the config
    # path taken from the repo and the run's output in tmp_path
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    config = "demos/configs/riemann_n2.json"
    assert block.count(f'"{config}"') == 1
    monkeypatch.chdir(tmp_path)
    exec(block.replace(f'"{config}"', repr(str(ROOT / config))), {})
    assert (tmp_path / "out" / "run_manifest.json").is_file()
