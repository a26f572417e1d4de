import pytest
from conftest import forbid

from gupstar import formal_cas, verify
from gupstar.beta_arith import BetaContext
from gupstar.verify import SUITES, RunConfig, run_suites

# the CLI defaults (`gupstar verify`: grid 256, seed 42), a second grid and seed,
# a context away from beta = hbar = 1 and the symmetric ordering (seeds 7 and 42),
# both ordering endpoints, the unit tests' grid and context (n = 64), lam = 1 on
# that grid, the coarsest grid every suite runs at, where the tightest
# tolerances have the least headroom, and three contexts far from beta = 1:
# beta = 0.01, beta = 100 on grid 128 (where formal.truncation_slope runs) and
# hbar sqrt(beta) = 0.1
CONFIGS = {"defaults": RunConfig(), "n96-seed7": RunConfig(grid_n=96, seed=7),
           "beta2-hbar0.7-lam0.3": RunConfig(beta=2.0, hbar=0.7, lam=0.3, grid_n=96, seed=7),
           "beta2-hbar0.7-lam0.3-seed42": RunConfig(beta=2.0, hbar=0.7, lam=0.3, grid_n=96),
           "lam0-n96": RunConfig(lam=0.0, grid_n=96, seed=7),
           "lam1-n96": RunConfig(lam=1.0, grid_n=96, seed=7),
           "n64": RunConfig(grid_n=64), "lam1-n64": RunConfig(lam=1.0, grid_n=64),
           "lam1-n32": RunConfig(lam=1.0, grid_n=32),
           "beta0.01-n96": RunConfig(beta=0.01, grid_n=96, seed=7),
           "beta100-lam0.3-n128": RunConfig(beta=100.0, lam=0.3, grid_n=128, seed=7),
           "beta1e4-hbar1e-3-lam0-n96": RunConfig(beta=1e4, hbar=1e-3, lam=0.0, grid_n=96, seed=7)}


@pytest.mark.parametrize("suite", list(SUITES))
@pytest.mark.parametrize("config", list(CONFIGS))
def test_suite_passes(suite_results, config, suite):
    failed = [f"{c.name}: measured {c.measured:.3e} > tolerance {c.tolerance:.1e}"
              for c in suite_results(CONFIGS[config], suite) if not c.passed]
    assert not failed, "failed checks:\n" + "\n".join(failed)


def test_check_names_are_unique(suite_results):
    # the acceptance table looks checks up by name
    for cfg in CONFIGS.values():
        names = [c.name for suite in SUITES for c in suite_results(cfg, suite)]
        assert len(names) == len(set(names))


def test_insufficient_resolution_skips():
    res = run_suites(RunConfig(grid_n=8))
    skipped = [c for cs in res.values() for c in cs if c.skipped]
    assert skipped and all("insufficient" in c.note or "empty" in c.note for c in skipped)
    assert all(c.passed for cs in res.values() for c in cs)


@pytest.mark.parametrize("grid", [48])
def test_star_algebra_suite_passes_at_lambda_one_on_small_grids(grid):
    # the symbol products are band projections, so the odd symbol arctan(sqrt(beta) p)
    # keeps its parity at lam = 1 and star.expectation_odd_symbol_vanishes holds at
    # every grid, not only from grid 96 (it aliased past the band before); CONFIGS
    # runs grids 32 and 64 at lam = 1
    results = run_suites(RunConfig(lam=1.0, grid_n=grid), ["star_algebra"])["star_algebra"]
    failed = [f"{c.name}: measured {c.measured:.3e} > tolerance {c.tolerance:.1e}"
              for c in results if not c.passed]
    assert not failed, "failed checks:\n" + "\n".join(failed)


def test_lam0_series_check_fails_at_an_interior_ordering(suite_results):
    # away from lam = 0 the left series of q/(1 + beta p^2) has an infinite tail,
    # so the order-1 truncation that formal.lam0_left_series_exact compares with misses it
    tol = next(c.tolerance for c in suite_results(CONFIGS["defaults"], "formal")
               if c.name == "formal.lam0_left_series_exact")
    ctx = BetaContext(1.0, 1.0, 0.3)
    gap, scale = (verify._window_max(ctx, f) for f in verify._series_gap(ctx, 1, right=False))
    assert gap / scale > tol


def test_series_checks_take_the_engine_weights(monkeypatch):
    # formal.truncation_slope and formal.lam0_left_series_exact sum formal_star's
    # own weights, so neither computes without formal_cas._order_weights
    message = "the engine's series weights were read"
    forbid(monkeypatch, message, formal_cas, "_order_weights")
    with pytest.raises(AssertionError, match=message):
        verify._truncation_slope(RunConfig(grid_n=128))
    with pytest.raises(AssertionError, match=message):
        verify._series_gap(BetaContext(1.0, 1.0, 0.0), 1, right=False)
