import os

# one BLAS thread unless the caller chose a count: reports are byte-reproducible
# only at a fixed count, and tests/test_runs.py compares a rerun in a child process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from modspec import Field, alpha2, make_grid


@pytest.fixture(scope="session")
def grid_ref():
    """Reference resolution: dxi = 1/32, window |xi| < 16."""
    return make_grid(1024, 32 * np.pi)


@pytest.fixture(scope="session")
def grid_mid():
    """dxi = 1/16, window |xi| < 32."""
    return make_grid(1024, 16 * np.pi)


@pytest.fixture(scope="session")
def grid_small():
    """dxi = 1/8, window |xi| < 16."""
    return make_grid(256, 8 * np.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_smooth_field(grid, rng, amplitude=0.3, decay=3.0, carrier=0.0):
    """Random complex spectrum under a gaussian envelope; L2 mass = amplitude."""
    z = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    spec = z * np.exp(-((grid.xi - carrier) / decay) ** 2)
    norm = np.sqrt(np.sum(np.abs(spec) ** 2) * grid.dxi)
    return Field.from_spectrum(grid, spec * (amplitude / norm))


def beta2(f, kappa, shift=0.0):
    """The quadratic term of beta(kappa) as the drivers form it: alpha2(kappa) -
    alpha2(2 kappa)/2, both shifted by `shift`."""
    return alpha2(f, kappa, shift) - 0.5 * alpha2(f, 2.0 * kappa, shift)
