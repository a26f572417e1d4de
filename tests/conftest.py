import functools

import numpy as np
import pytest

from gupstar.beta_arith import BetaContext
from gupstar.sampling import _sheared_values
from gupstar.verify import SUITES


def kernel_samples(k, weighted=False):
    """Samples K(alpha_a, alpha_b) of an OperatorKernel: the sheared codec at lam = 0.

    ``weighted`` multiplies them by the contracted slot's midpoint weight
    pi/(n sqrt(beta)), giving the matrix by which the kernel acts on sample
    vectors.  The library never builds this table; tests compare against it.
    """
    samples = _sheared_values(k.coef, 0.0, k.mod)
    return np.pi / (k.n * k.ctx.sqrt_beta) * samples if weighted else samples


@pytest.fixture
def ctx():
    return BetaContext(1.0, 1.0, 0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def suite_results():
    """Check results of one verify suite at one RunConfig, each run once per session."""
    @functools.cache
    def run(cfg, name):
        return SUITES[name](cfg)
    return run
