"""Every exported name resolves, and the package exports exactly what its re-exported modules list."""

import importlib
import inspect

import pytest

import geosaddle

REEXPORTED = ["manifolds", "curvature", "solvers", "problems"]
MODULES = [*REEXPORTED, "harness", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"geosaddle.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_reexports_are_listed_in_their_module():
    public = {n for n, obj in vars(geosaddle).items() if not n.startswith("_") and not inspect.ismodule(obj)}
    listed = set()
    for name in REEXPORTED:
        listed.update(importlib.import_module(f"geosaddle.{name}").__all__)
    assert public == listed
