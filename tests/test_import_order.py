"""Every ``repro`` module imports cleanly as the first ``repro`` import.

An import cycle only shows when the module that closes it is the entry
point (``import repro.mapreduce`` once failed with a partially
initialized ``repro.mapreduce.engine``), so a suite that happens to
import ``repro.runtime`` first never sees it.  The check runs in a fresh
interpreter and drops every ``repro`` module from ``sys.modules``
before each import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """\
import importlib, json, pkgutil, sys
import repro
names = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)
failures = {}
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({"modules": len(names), "failures": failures}))
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["modules"] > 100
    assert report["failures"] == {}
