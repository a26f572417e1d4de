import functools

import numpy as np
import pytest

from gupstar.beta_arith import BetaContext
from gupstar.verify import SUITES


#: The sample <-> coefficient transforms in ``sampling`` that every codec runs through.
CODECS = ("_vals_to_coeffs", "_coeffs_to_vals")


def forbid(mp, message, module, *names):
    """Replace ``module.<name>`` for each name with a function raising AssertionError(message).

    ``mp`` is a pytest ``MonkeyPatch`` (the fixture or one of its contexts);
    a structure test forbids a codec or transform this way, then runs the
    route that must not call it.
    """
    def forbidden(*_):
        raise AssertionError(message)

    for name in names:
        mp.setattr(module, name, forbidden)


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
