"""The package namespace is the union of its modules' ``__all__`` lists."""

import types

import mm1game
from mm1game import analysis, dynamics, mechanism, model, simulator

MODULES = (analysis, dynamics, mechanism, model, simulator)


def test_the_package_exports_exactly_each_modules_public_names():
    public = {
        name
        for name, value in vars(mm1game).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)) == 51
    assert public == set(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mm1game, name) is getattr(module, name), (module.__name__, name)
