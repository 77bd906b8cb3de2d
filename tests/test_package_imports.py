"""Every top-level package, and each of its modules, imports in a fresh
interpreter.

Import cycles only show when nothing has been imported yet, which a test
process that has already loaded half the library never is.  The one this
guards against: ``repro.db`` re-exports only the store, because the gold
rollups (``repro.db.tiered``) build on ``repro.analysis``, which reads its
records from ``repro.db`` -- re-exporting them closes the cycle
``analysis.stats -> collector -> transport -> db -> db.tiered ->
analysis.stats``.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = sorted(info.name for info in pkgutil.iter_modules(repro.__path__)
                  if info.ispkg)

_IMPORT_ALL = """
import importlib, pkgutil, sys
package = importlib.import_module(sys.argv[1])
for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_a_fresh_interpreter(package):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _IMPORT_ALL, f"repro.{package}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
