import numpy as np
import pytest

from pcwk import SpectralDensity, frequency_grid

GRID = 512


@pytest.fixture
def grid():
    return frequency_grid(GRID)


def white(dim=1, scale=1.0):
    return SpectralDensity.white(dim, scale=scale, grid_size=GRID)


def ma1(dim=1, b=0.5):
    """Moving-average density with taps (I, b I); scalar gives 1.25 + cos."""
    taps = [np.eye(dim), b * np.eye(dim)]
    return SpectralDensity.from_moving_average(taps, grid_size=GRID)


def ar1(dim=1, phi=0.5):
    """Autoregressive-type density, the grid inverse of |1 - phi e^{-il}|^2."""
    lam = frequency_grid(GRID)
    base = np.abs(1.0 - phi * np.exp(-1j * lam)) ** 2
    vals = np.einsum("g,kn->gkn", 1.0 / base, np.eye(dim)).astype(complex)
    return SpectralDensity.from_grid(vals)


def coupled_ma2():
    """A 2x2 moving average with genuine cross-coupling."""
    d0 = np.array([[1.0, 0.0], [0.3, 1.0]])
    d1 = np.array([[0.4, 0.2], [-0.1, 0.3]])
    return SpectralDensity.from_moving_average([d0, d1], grid_size=GRID)
