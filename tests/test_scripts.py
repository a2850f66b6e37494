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
    commands = ["choi", "channel", "condition", "join", "bayes", "verify-theorem", "teleport",
                "prepare", "selftest"]
    assert calls == {
        "State", "JointState", "ConditionalState", "POVM", "teleport", "verify_theorem",
        "conditional_from_joint", "bayes_invert",
        "Channel", "apply", "apply_matrix", "choi_conditional", "channel_from_conditional",
        *(f"cli {command}" for command in commands),
        *(f"{step} {document}" for step in ("serialize", "parse")
          for document in ("JointState", "ConditionalState", "Channel")),
    }
    # each document case on every class, d = 2…16 (no mixed class at d = 2)
    for call in calls:
        if call.startswith(("serialize ", "parse ")):
            assert sum(row["call"] == call for row in results) == 2 + 3 * 14
    # eight document commands on each class at d = 8, and selftest once
    cli_rows = [row for row in results if row["call"].startswith("cli ")]
    assert len(cli_rows) == 3 * 8 + 1 and {row["d"] for row in cli_rows} == {8}
    # each CLI result carries the digest of its stdout, and only those do
    assert all(len(bytes.fromhex(row["stdout_sha256"])) == 32 for row in cli_rows)
    assert not any("stdout_sha256" in row for row in results if row not in cli_rows)
    # every sample is timed beside the calibration kernel, and the ratio's
    # quartiles bracket its median
    assert all(row["control_ms"] > 0 and row["ratio"] > 0 for row in results)
    assert all(row["ratio_q1"] <= row["ratio"] <= row["ratio_q3"] for row in results)
    assert all(row["peak_rss_mb"] > 0 for row in results)
    # valid input is certified by Cholesky alone (selftest also runs the
    # eigenvalue checks it tests)
    assert all(row["eigvalsh"] == 0 for row in results if row["call"] != "cli selftest")


def test_bench_digest_masks_only_the_selftest_run_time():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "from bench import stdout_sha256\n"
        "report = '{\\n \"elapsedSeconds\": %s,\\n \"pass\": %s\\n}\\n'\n"
        "print(stdout_sha256(report % (0.25, 'true')) == stdout_sha256(report % (3, 'true')),\n"
        "      stdout_sha256(report % (0.25, 'true')) == stdout_sha256(report % (0.25, 'false')))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["True", "False"]


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
