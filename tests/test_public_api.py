import importlib
import inspect

import pytest

import orbifusion

SUBMODULES = [f"orbifusion.{name}" for name in ("labels", "weights", "chebyshev", "qdim", "fusion", "verify")]


@pytest.mark.parametrize("module", ["orbifusion", *SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_public_definition_is_exported(module):
    # the package re-exports __all__, so a function or class left out of it would be missing there too;
    # constants such as SUITES are exempt
    mod = importlib.import_module(module)
    defined = [
        name
        for name, value in vars(mod).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == module
    ]
    assert [name for name in defined if name not in mod.__all__] == []


def test_star_import_binds_exactly_the_package_exports():
    namespace = {}
    exec("from orbifusion import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(orbifusion.__all__)
    assert "SUITES" not in orbifusion.__all__
    assert not hasattr(orbifusion, "SUITES")


def test_package_reexports_every_submodule_export():
    # SUITES stays in orbifusion.verify; the package has __version__ of its own
    exports = {}
    for module in SUBMODULES:
        mod = importlib.import_module(module)
        exports.update((name, getattr(mod, name)) for name in mod.__all__ if name != "SUITES")
    assert set(orbifusion.__all__) == set(exports) | {"__version__"}
    assert [name for name, value in exports.items() if getattr(orbifusion, name) is not value] == []
