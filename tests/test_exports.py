"""Every exported name resolves, so a removed object cannot linger in an export list."""

import importlib
import inspect

import pytest

import geosaddle

MODULES = ["manifolds", "curvature", "solvers", "problems", "harness", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"geosaddle.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_reexports_are_listed_in_their_module():
    unlisted = []
    for name, obj in vars(geosaddle).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        if name not in home.__all__:
            unlisted.append(f"{obj.__module__}.{name}")
    assert unlisted == []
