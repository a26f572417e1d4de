import numpy as np
import pytest

from gupstar.beta_arith import BetaContext


@pytest.fixture
def ctx():
    return BetaContext(1.0, 1.0, 0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
