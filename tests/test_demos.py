"""Every script under demos/ runs to completion against the in-tree package.

Each runs under the warning filters that pyproject.toml applies to the tests,
so a numpy deprecation in a demo fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WARNINGS_AS_ERRORS = ("RuntimeWarning", "DeprecationWarning", "FutureWarning")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, *(f"-Werror::{w}" for w in WARNINGS_AS_ERRORS), str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
