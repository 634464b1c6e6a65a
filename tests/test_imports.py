"""Every ``repro`` package imports as the first import of a fresh
interpreter.

An import cycle only shows when its modules load in the wrong order, so
a suite whose earlier tests have already imported ``repro.core`` cannot
see one: each module here gets an interpreter of its own.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Every subpackage and top-level module (``__main__`` runs the CLI).
MODULES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.name != "__main__"
)


def test_every_subpackage_is_listed():
    assert {"repro.core", "repro.engine", "repro.parallel"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_first_import_in_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
