import os
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps the module's function and returns a
    one-entry list holding its number of calls."""

    def install(module, name):
        counter = [0]
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counter[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return counter

    return install


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports the hyqmom under
    test rather than whatever the bare interpreter would find."""
    import hyqmom

    env = dict(os.environ)
    root = str(Path(hyqmom.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env
