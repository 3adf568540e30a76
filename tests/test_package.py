"""The package namespace: each module's ``__all__`` is its public list."""

import importlib
import types

import polymap

# by import path: the attribute polymap.transferability is the function
_MODULES = [importlib.import_module("polymap." + name) for name in (
    "curvature_light", "discharging", "errors", "generators", "mapfile",
    "surface_map", "transferability", "validity")]


def test_public_names_are_the_modules_all():
    """The names ``polymap`` exports, modules aside, are exactly the
    union of the re-exported modules' ``__all__``, each the object its
    module defines."""
    public = {name for name, value in vars(polymap).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == {name for m in _MODULES for name in m.__all__}
    for m in _MODULES:
        for name in m.__all__:
            assert getattr(polymap, name) is getattr(m, name), name

