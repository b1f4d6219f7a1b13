"""Every name a module lists in ``__all__`` exists, so its star import works."""

import importlib
import pkgutil

import urnoverflow

MODULES = ["urnoverflow"] + [f"urnoverflow.{m.name}"
                             for m in pkgutil.iter_modules(urnoverflow.__path__)]


def test_every_exported_name_resolves():
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", [])
                    if not hasattr(module, attr)]
    assert not missing, f"names in __all__ that do not resolve: {missing}"
