import numpy as np
import pytest

from vwslab.grid import Field, make_grid
from vwslab.mollify import Mollifier, ScaleFn

LADDER = (2.0**-3, 2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7)


@pytest.fixture(scope="session")
def grid_1d():
    return make_grid(1, 64, 8.0)


@pytest.fixture(scope="session")
def grid_1d_pi():
    return make_grid(1, 16, np.pi)


@pytest.fixture(scope="session")
def grid_2d():
    return make_grid(2, 32, 8.0)


@pytest.fixture(scope="session")
def gaussian():
    return Mollifier("gaussian")


@pytest.fixture(scope="session")
def loglog():
    return ScaleFn("loglog")


def random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return Field(spec, vals)


def solve_at(prob, dt, **kwargs):
    """``evolve.solve`` of prob in the step count that ``shared_steps``
    gives the step dt, which it checks against the problem's bound."""
    from vwslab.evolve import shared_steps, solve

    return solve(prob, steps=shared_steps([prob], dt=dt), **kwargs)


def assert_da_is_the_derivative_of_a(cs):
    """cs.da[k][i][j] is the spectral x_k-derivative of cs.a[i][j], exactly."""
    from vwslab.grid import spectral_derivative

    for k in range(cs.n):
        for i in range(cs.n):
            for j in range(cs.n):
                np.testing.assert_array_equal(
                    cs.da[k][i][j], spectral_derivative(cs.a[i][j], cs.spec, k).real)


def record_marches(monkeypatch):
    """Make every ``evolve.march`` record the times it yields; returns the
    list of recorded time lists, one per march."""
    from vwslab import evolve

    marches, real = [], evolve.march

    def recording(*args):
        ts = []
        marches.append(ts)
        for t, uh in real(*args):
            ts.append(t)
            yield t, uh

    monkeypatch.setattr(evolve, "march", recording)
    return marches
