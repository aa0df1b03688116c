import sys

import numpy as np
import pytest

from pulsestab.discretization import build_grid
from pulsestab.waves import AbcParameters, resolve_wave_parameters, sample_wave


def make_case1(eta0, b=1.0, sign=+1, n=512, lfac=40.0):
    """Free-amplitude pulse (a = c = -b): (params, spec, grid, wave)."""
    params = AbcParameters(a=-b, b=b, c=-b)
    spec = resolve_wave_parameters(params, eta0, sign)
    grid = build_grid(n, lfac / spec.lam)
    return params, spec, grid, sample_wave(spec, grid)


def make_standing(a=-1.0, b=1.0, sign=+1, n=512, lfac=40.0):
    """Standing pulse (a = c, eta0 = -3/2): (params, spec, grid, wave)."""
    params = AbcParameters(a=a, b=b, c=a)
    spec = resolve_wave_parameters(params, -1.5, sign)
    grid = build_grid(n, lfac / spec.lam)
    return params, spec, grid, sample_wave(spec, grid)


def make_general(n):
    """The a != c wave a = -1, b = 2, c = -1.2, eta0 = -9/8 on L = 40/lambda."""
    params = AbcParameters(a=-1.0, b=2.0, c=-1.2)
    spec = resolve_wave_parameters(params, -1.125, +1)
    grid = build_grid(n, 40.0 / spec.lam)
    return params, spec, grid, sample_wave(spec, grid)


def solve_shapes(monkeypatch, name="eigvals"):
    """Record the shapes of the matrices passed to np.linalg.<name>."""
    original = getattr(np.linalg, name)
    calls = []

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


# one wave of each kind, by grid size: standing z = 1 and z = 12, free
# amplitude eta0 = -1, and the general a != c wave
WAVE_CASES = {
    "standing_z1": lambda n: make_standing(b=1.0, n=n),
    "standing_z12": lambda n: make_standing(b=12.0, n=n, lfac=50.0),
    "case1_eta_minus1": lambda n: make_case1(-1.0, n=n),
    "general": make_general,
}


@pytest.fixture(scope="session")
def case1_eta_minus1():
    return make_case1(-1.0)


@pytest.fixture(scope="session")
def standing_z1():
    return make_standing()


def count_calls(monkeypatch, module, name):
    """Record the calls to module.name, however the package binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, loaded in list(sys.modules.items()):
        if key == "pulsestab" or key.startswith("pulsestab."):
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    monkeypatch.setattr(loaded, attr, counted)
    return calls
