from __future__ import annotations

import importlib
import pkgutil

import guardian


def test_every_public_name_resolves():
    modules = [guardian] + [
        importlib.import_module(f"guardian.{info.name}")
        for info in pkgutil.iter_modules(guardian.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing attributes {missing}"
