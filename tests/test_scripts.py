"""The example scripts run from a plain checkout, as README shows them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["theorem_sweep.py", "teleport_demo.py"])
def test_example_script_runs_without_an_install(tmp_path, script):
    # no PYTHONPATH and a foreign working directory: the script must find
    # the checkout's src/ by itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--instances", "2"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert len(lines) >= 5
    if script == "teleport_demo.py":
        assert lines[-1].endswith("reproduce the input: True")
