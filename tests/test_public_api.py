import importlib

import pytest

import orbifusion

SUBMODULES = [f"orbifusion.{name}" for name in ("labels", "weights", "chebyshev", "qdim", "fusion", "verify")]


@pytest.mark.parametrize("module", ["orbifusion", *SUBMODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_every_submodule_export():
    # SUITES stays in orbifusion.verify; the package has __version__ of its own
    exports = {}
    for module in SUBMODULES:
        mod = importlib.import_module(module)
        exports.update((name, getattr(mod, name)) for name in mod.__all__ if name != "SUITES")
    assert set(orbifusion.__all__) == set(exports) | {"__version__"}
    assert [name for name, value in exports.items() if getattr(orbifusion, name) is not value] == []
