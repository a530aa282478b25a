"""Runtime code stays stdlib only: importing every sipwall module loads
nothing from outside the standard library."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import sipwall

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import sipwall
for info in pkgutil.iter_modules(sipwall.__path__):
    importlib.import_module("sipwall." + info.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_sipwall_imports_only_stdlib():
    # a fresh interpreter, so modules pytest already loaded do not hide any
    src = os.path.dirname(os.path.dirname(os.path.abspath(sipwall.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + PROBE],
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = json.loads(out.stdout)
    assert "sipwall" in loaded
    foreign = [name for name in loaded
               if name != "sipwall" and name not in sys.stdlib_module_names]
    assert foreign == []
