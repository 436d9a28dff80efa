"""What the benchmark's tracer relies on in the ``specker`` modules.

``perfbench/spans.py`` times the ``__all__`` functions of the traced
modules by rebinding them, which sees only plain functions: a function
wrapped in a cache or another callable object silently drops out of the
per-layer figures.  ``perfbench/tracechild.py`` reads the cache counters
of ``specker.proximity._devries_ok``.
"""

import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import KEPT, MODULES  # noqa: E402


def test_traced_functions_are_plain_functions():
    for short in MODULES:
        module = importlib.import_module(f"specker.{short}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            # classes and type aliases (``Term``) are not traced
            if not inspect.isclass(obj) and type(obj).__module__ != "typing":
                assert inspect.isfunction(obj), f"specker.{short}.{name}"
        for name in KEPT.get(short, ()):
            obj = getattr(module, name)
            assert inspect.isfunction(obj), f"specker.{short}.{name}"
            assert obj.__module__ == module.__name__, f"specker.{short}.{name}"


def test_devries_cache_counters_exist():
    from specker import proximity

    info = proximity._devries_ok.cache_info()
    assert info.hits >= 0 and info.misses >= 0
