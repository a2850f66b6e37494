"""The example scripts run from a plain checkout, as README shows them."""

import json
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


def test_bench_appends_its_run_under_the_label(tmp_path):
    out = tmp_path / "bench.json"
    earlier = '{"kind": "run", "label": "b", "run": 0}\n'
    out.write_text(earlier, encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), "--out", str(out), "--label", "a",
         "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    text = out.read_text(encoding="utf-8")
    assert text.startswith(earlier)
    # one JSON record per line: the run, then one result per call
    run, *results = [json.loads(line) for line in text.splitlines()[1:]]
    assert (run["kind"], run["label"], run["run"]) == ("run", "a", 1)
    assert {row["d"] for row in results if row["call"] == "teleport"} == set(range(2, 17))
    src = SCRIPTS.parent / "src" / "condchan"
    assert run["src_lines"] == sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")
    )
    assert all((row["kind"], row["label"], row["run"]) == ("result", "a", 1) for row in results)
    calls = {row["call"] for row in results}
    assert calls == {
        "State", "JointState", "ConditionalState", "POVM", "teleport", "verify_theorem",
        "conditional_from_joint", "bayes_invert",
        "Channel", "apply", "apply_matrix", "choi_conditional", "channel_from_conditional",
    }
    # every sample is timed beside the calibration kernel
    assert all(row["control_ms"] > 0 and row["ratio"] > 0 for row in results)
    assert all(row["peak_rss_mb"] > 0 for row in results)
    # valid input is certified by Cholesky alone
    assert all(row["eigvalsh"] == 0 for row in results)


def test_bench_records_a_call_that_runs_out_of_memory():
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench\n"
        "def oom():\n"
        "    raise MemoryError\n"
        "rows = bench.measure([('big', 16, 'mixed', oom), ('small', 2, 'mixed', int)], 1)\n"
        "print(json.dumps(rows))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    failed, measured = json.loads(completed.stdout)
    assert failed == {"call": "big", "d": 16, "class": "mixed", "kind": "failed",
                      "error": "MemoryError"}
    assert (measured["call"], measured["kind"]) == ("small", "result")
