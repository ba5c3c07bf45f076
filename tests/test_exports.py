"""Every name a module lists in __all__ exists, so star-imports succeed;
importing the package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_neither_dataclasses_nor_inspect():
    # both cost import time and memory in every process that uses torelli
    src = os.path.dirname(os.path.dirname(torelli.__file__))
    code = "import sys, torelli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]", out.stdout
