"""Every name a ``submatch`` module exports in ``__all__`` must exist, so a
deleted class cannot linger as a stale export."""

import importlib
import pkgutil

import submatch


def test_every_exported_name_resolves():
    modules = [submatch] + [importlib.import_module(f"submatch.{info.name}")
                            for info in pkgutil.iter_modules(submatch.__path__)]
    checked = [m for m in modules if hasattr(m, "__all__")]
    assert len(checked) >= 8  # the package and its seven library modules
    for module in checked:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
