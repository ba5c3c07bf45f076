"""Every name a module lists in __all__ exists, so star-imports succeed."""

import importlib
import pkgutil

import torelli


def test_every_all_entry_resolves():
    checked = set()
    for info in pkgutil.iter_modules(torelli.__path__):
        module = importlib.import_module(f"torelli.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (info.name, missing)
        namespace: dict = {}
        exec(f"from torelli.{info.name} import *", namespace)
        assert set(names) <= namespace.keys(), info.name
        checked.add(info.name)
    assert {"homs", "malcev"} <= checked
