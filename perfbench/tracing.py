"""Per-layer call tracing, installed from outside the package.

A :class:`Tracer` replaces each traced callable by a wrapper in *every*
namespace that binds it (the package root and each submodule that imported
it by name), and patches traced methods on their classes, so that calls are
seen whichever import path the caller used.  Each wrapper keeps a call count
and a self time: its own duration minus the time spent in traced callees.
"""

from __future__ import annotations

import importlib
import time

#: Modules whose global namespaces may bind a traced name.
MODULES = (
    "orbifusion",
    "orbifusion.labels",
    "orbifusion.weights",
    "orbifusion.chebyshev",
    "orbifusion.qdim",
    "orbifusion.fusion",
    "orbifusion.verify",
    "orbifusion.cli",
)

#: Traced module-level functions: metric prefix -> (module, attribute).
FUNCTIONS = {
    "labels.make_label": ("orbifusion.labels", "make_label"),
    "labels.parse_label": ("orbifusion.labels", "parse_label"),
    "weights.conformal_weight": ("orbifusion.weights", "conformal_weight"),
    "qdim.qdim_exact": ("orbifusion.qdim", "qdim_exact"),
    "qdim.qdim_numeric": ("orbifusion.qdim", "qdim_numeric"),
    "qdim.global_dimension": ("orbifusion.qdim", "global_dimension"),
    "fusion.fuse_irreducible": ("orbifusion.fusion", "fuse_irreducible"),
    "fusion.contragredient": ("orbifusion.fusion", "contragredient"),
    "verify.run_suites": ("orbifusion.verify", "run_suites"),
}

#: Traced methods: metric prefix -> (module, class, method).  Every class
#: attribute that is the same function object (``__rmul__ = __mul__``) is
#: patched too.
METHODS = {
    "labels.FusionVector": ("orbifusion.labels", "FusionVector", "__init__"),
    "chebyshev.ChebPoly.mul": ("orbifusion.chebyshev", "ChebPoly", "__mul__"),
    "chebyshev.ChebPoly.divmod": ("orbifusion.chebyshev", "ChebPoly", "__divmod__"),
    "qdim.QDimElement.mul": ("orbifusion.qdim", "QDimElement", "__mul__"),
}

#: Traced click command callbacks: metric prefix -> command name in ``cli``.
COMMANDS = {
    "cli.catalog": "catalog",
    "cli.verify": "verify",
}

#: lru_cache'd functions whose public ``cache_info()`` gives a hit ratio.
CACHES = {
    "chebyshev.cheb_u": ("orbifusion.chebyshev", "cheb_u"),
    "chebyshev.min_poly_two_cos": ("orbifusion.chebyshev", "min_poly_two_cos"),
}

TRACED = tuple(FUNCTIONS) + tuple(METHODS) + tuple(COMMANDS)


def _rebind(original, replacement) -> None:
    """Point every module-global binding of ``original`` at ``replacement``."""
    for name in MODULES:
        namespace = vars(importlib.import_module(name))
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


class Tracer:
    """Counts and self times per traced callable, kept in memory."""

    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.fuse_outputs = 0
        self.fuse_pairs: set = set()
        self._child_time = [0.0]  # stack: traced time spent in callees

    def _wrap(self, name: str, fn, on_result=None):
        calls, self_s, child_time, clock = self.calls, self.self_s, self._child_time, time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child_time.pop()
                child_time[-1] += elapsed
                calls[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _on_fuse(self, args, result) -> None:
        self.fuse_outputs += len(result)
        self.fuse_pairs.add(tuple(args[:3]))

    def install(self) -> None:
        """Wrap every traced callable in every namespace that binds it."""
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module), attr)
            hook = self._on_fuse if name == "fusion.fuse_irreducible" else None
            _rebind(original, self._wrap(name, original, hook))
        for name, (module, cls_name, method) in METHODS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls)[method]
            wrapper = self._wrap(name, original)
            for attr, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, attr, wrapper)
        cli = importlib.import_module("orbifusion.cli")
        for name, command in COMMANDS.items():
            cmd = getattr(cli, command)
            cmd.callback = self._wrap(name, cmd.callback)

    def snapshot(self) -> dict:
        """Counters as plain JSON data, including lru_cache statistics."""
        caches = {}
        for name, (module, attr) in CACHES.items():
            info = getattr(importlib.import_module(module), attr).cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "fuse_outputs": self.fuse_outputs,
            "fuse_distinct": len(self.fuse_pairs),
            "caches": caches,
        }


def record_reports(sink: list) -> None:
    """Collect every ``VerificationReport`` returned by ``run_suites``."""
    original = importlib.import_module("orbifusion.verify").run_suites

    def run_suites(*args, **kwargs):
        reports = original(*args, **kwargs)
        sink.extend(reports)
        return reports

    _rebind(original, run_suites)
