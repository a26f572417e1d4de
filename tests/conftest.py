import functools

import numpy as np
import pytest

from gupstar.beta_arith import BetaContext
from gupstar.verify import SUITES


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
