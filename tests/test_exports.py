"""The export lists: every listed name resolves and every public definition is listed."""

import importlib
import inspect

import pytest

# beta_arith declares no __all__, so ``import *`` takes every public name there and
# nothing can go stale; verify and cli are entry points, not library modules.
MODULES = ["gupstar", "gupstar.sampling", "gupstar.transforms", "gupstar.operator_rep",
           "gupstar.star_algebra", "gupstar.states", "gupstar.families", "gupstar.formal_cas"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    mod = importlib.import_module(name)
    listed = mod.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(mod, n)] == []
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    assert [n for n in defined if n not in listed] == []
