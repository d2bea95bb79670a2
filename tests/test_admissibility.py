"""One admissibility rule for the hyqmom closure's (n, gamma).

Every entry point that takes an order and a gamma refuses an inadmissible
pair by the same rule (``moments._order_refusal``, ``closures._refusal``,
``closures._positive_weights``), or the case does not apply to it: the
library with a ValueError carrying the rule's message, the CLI with exit
code 1 and that message, ``validate_config`` with a ConfigError naming the
rule's field.
"""

import math

import numpy as np
import pytest

import hyqmom as hq
from hyqmom.cli import main

# each rule: the message every library and CLI refusal by it carries, and
# the field of validate_config's ConfigError
ORDER_LOW = ("n must be >= 1", "n")
ORDER_CAP = ("exceeds the supported cap n=10", "n")
FINITE = ("gamma must be finite", "gamma")
HYPERBOLIC = ("gamma must exceed -2n", "gamma")
WEIGHTS = ("gamma > -n", "flux_variant")

# case: (n, gamma, the rule that refuses it)
CASES = {
    "n=0": (0, 1.0, ORDER_LOW),
    "n=11": (11, 1.0, ORDER_CAP),
    "gamma=nan": (2, math.nan, FINITE),
    "gamma=inf": (2, math.inf, FINITE),
    "gamma=-inf": (2, -math.inf, FINITE),
    "gamma=-2n": (2, -4.0, HYPERBOLIC),
    "gamma<-2n": (2, math.nextafter(-4.0, -math.inf), HYPERBOLIC),
    "eigen gamma=-n": (2, -2.0, WEIGHTS),
}


def _moments(n):
    """The standard normal's M_0..M_2n: realizable, so only the rule can
    refuse it."""
    return hq.gaussian_moments(2 * n, 0.0, 1.0)


def _spec(gamma):
    return hq.ClosureSpec("hyqmom", gamma=gamma)


def _grid(n):
    return hq.GridState(cells=np.tile(_moments(n), (4, 1)), dx=0.25, tau=1.0)


def _config(n, gamma, variant):
    return {"n": n, "gamma": gamma, "flux_variant": variant, "cfl": 0.9, "tau": 1.0,
            "domain": [0.0, 1.0], "cells": 4, "t_final": 0.01, "boundary": "periodic",
            "initial": [{"rho": 1.0, "U": 0.0, "theta": 1.0}]}


def _moment_list(n):
    return ",".join(repr(float(x)) for x in _moments(n))


LIBRARY = {
    "close": lambda n, g: hq.close(_moments(n), _spec(g)),
    "characteristic_polynomial": lambda n, g: hq.characteristic_polynomial(_moments(n), _spec(g)),
    "spectral_decomposition": lambda n, g: hq.spectral_decomposition(_moments(n), _spec(g)),
    "reconstruct_nodes gauss": lambda n, g: hq.reconstruct_nodes(_moments(n), _spec(g), "gauss"),
    "reconstruct_nodes eigen": lambda n, g: hq.reconstruct_nodes(_moments(n), _spec(g), "eigen"),
    "step gauss": lambda n, g: hq.step(_grid(n), _spec(g), "gauss"),
    "step eigen": lambda n, g: hq.step(_grid(n), _spec(g), "eigen"),
}

CLI = {
    "close": lambda n, g: ["close", "--hyqmom", "--gamma", repr(g), "--moments", _moment_list(n)],
    "spectrum": lambda n, g: ["spectrum", "--gamma", repr(g), "--moments", _moment_list(n)],
    "verify-hyperbolicity": lambda n, g: ["verify-hyperbolicity", "--n", str(n),
                                          "--gamma", repr(g), "--samples", "5"],
    # certifies the gamma = 1 closure: only the order cases apply
    "verify-stability": lambda n, g: ["verify-stability", "--n", str(n), "--samples", "2"],
}


def _applies(entry, case):
    """Whether the rule of case can refuse at the entry point: the weight
    rule only where eigen nodes are used, the gamma rules only where a
    gamma is taken."""
    rule = CASES[case][2]
    if rule == WEIGHTS:
        return entry.endswith("eigen")
    return entry != "verify-stability" or rule in (ORDER_LOW, ORDER_CAP)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", LIBRARY)
def test_library_refuses_by_the_rule(entry, case):
    n, gamma, (message, _) = CASES[case]
    if not _applies(entry, case):
        LIBRARY[entry](n, gamma)  # admitted where the rule does not apply
        return
    with pytest.raises(ValueError) as exc:
        LIBRARY[entry](n, gamma)
    assert message in str(exc.value)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("variant", hq.solver.FLUX_VARIANTS)
def test_validate_config_refuses_by_the_rule(variant, case):
    n, gamma, (_, field) = CASES[case]
    if not _applies(variant, case):
        assert hq.validate_config(_config(n, gamma, variant))["gamma"] == gamma
        return
    with pytest.raises(hq.ConfigError) as exc:
        hq.validate_config(_config(n, gamma, variant))
    assert exc.value.field == field


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("entry", CLI)
def test_cli_refuses_by_the_rule(entry, case, capsys, tmp_path):
    n, gamma, (message, _) = CASES[case]
    code = main(CLI[entry](n, gamma) + ["--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    if not _applies(entry, case):
        assert code == 0, err
        return
    assert code == 1
    assert message in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())
