"""The benchmark's trace hooks name callables that exist in the package.

``perfbench/tracing.py`` wraps package functions, methods, CLI command
callbacks and lru caches by name.  A name that no longer resolves would
break only a traced benchmark run, so each is looked up here.  The module
is loaded from its file and only read: nothing is installed.
"""

import importlib
import types
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# run from its source, so that no bytecode cache is written next to it
tracing = types.ModuleType("perfbench_tracing")
exec(compile(_TRACING.read_text(), str(_TRACING), "exec"), vars(tracing))


@pytest.mark.parametrize("module", tracing.MODULES)
def test_every_namespace_the_tracer_rebinds_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("name", tracing.FUNCTIONS)
def test_every_traced_function_resolves(name):
    module, attr = tracing.FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", tracing.METHODS)
def test_every_traced_method_is_its_class_own(name):
    module, cls_name, method = tracing.METHODS[name]
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(vars(cls)[method])  # the tracer patches the class's own attribute


@pytest.mark.parametrize("name", tracing.CACHES)
def test_every_traced_cache_reports_its_statistics(name):
    module, attr = tracing.CACHES[name]
    info = getattr(importlib.import_module(module), attr).cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("name", tracing.COMMANDS)
def test_every_traced_command_has_a_callback(name):
    cli = importlib.import_module("orbifusion.cli")
    assert callable(getattr(cli, tracing.COMMANDS[name]).callback)
