import pytest

from gupstar.verify import SUITES, RunConfig, run_suites

# the CLI defaults (`gupstar verify`: grid 256, seed 42) and a second grid and seed
CONFIGS = {"defaults": RunConfig(), "n96-seed7": RunConfig(grid_n=96, seed=7)}


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

