"""The import graph: `import lcmtest, lcmtest.cli` loads scipy's PAVA kernel
without scipy.optimize, and none of the heavy scipy subpackages, so a command
starts in a fraction of the time.  Each check runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("scipy.optimize", "scipy.optimize._pava_pybind", "scipy.linalg", "scipy.sparse", "scipy.special")


def run_python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": SRC})


def test_package_import_leaves_heavy_scipy_unloaded():
    run_python(
        "import sys, lcmtest, lcmtest.cli; "
        f"loaded = [m for m in {HEAVY!r} if m in sys.modules]; "
        "assert not loaded, loaded"
    )


@pytest.mark.parametrize("scipy_first", [False, True], ids=["lcmtest-first", "scipy-first"])
def test_kernel_is_scipy_optimize_kernel(scipy_first):
    # Either import order gives scipy.optimize its usual _pava_pybind
    # attribute, and the package the very same kernel.
    imports = ["import scipy.optimize", "import lcmtest, lcmtest.cli"]
    if not scipy_first:
        imports.reverse()
    run_python(
        "; ".join(imports) + "; "
        "assert scipy.optimize._pava_pybind.pava is lcmtest.pwl._pava_kernel; "
        "lcmtest.lp_stat([0.2, 0.9, 0.95], 2)"
    )
