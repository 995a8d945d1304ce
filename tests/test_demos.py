import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave the parametrized test below with no case
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    """Each demo runs in a fresh interpreter against the source tree: exit 0,
    something on stdout, nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                       cwd=ROOT, timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout
