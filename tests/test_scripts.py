"""The example scripts run from a plain checkout, as README shows them."""

import json
import os
import statistics
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


def test_bench_times_an_identical_tree_evenly_and_appends_its_run_under_the_label(tmp_path):
    # the tree timed against itself, loaded twice in one process; the sweeps stop at
    # d = 3 (the whole grid, to d = 16, takes minutes), and every call and the layout
    # of each record are the same at any --max-dim
    out = tmp_path / "ab.json"
    earlier = '{"kind": "run", "label": "b", "run": 0}\n'
    out.write_text(earlier, encoding="utf-8")
    src = SCRIPTS.parent / "src"
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), "--against", str(src), "--out", str(out),
         "--label", "a", "--repeats", "1", "--max-dim", "3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    text = out.read_text(encoding="utf-8")
    assert text.startswith(earlier)
    # one JSON record per line: the run, then one A/B record per call
    run, *rows = [json.loads(line) for line in text.splitlines()[1:]]
    assert (run["kind"], run["label"], run["run"], run["max_dim"]) == ("run", "a", 1, 3)
    thresholds = (run["env"]["malloc_mmap_threshold"], run["env"]["malloc_trim_threshold"])
    assert thresholds in ((64 << 20, 128 << 20), (None, None))
    assert run["src_lines"] == sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (src / "condchan").glob("*.py")
    )
    assert run["against"] == {key: run[key] for key in ("commit", "dirty", "src_lines")}
    # the 1-, 5- and 15-minute load averages at the start and the end of the run
    assert all(len(run[key]) == 3 and min(run[key]) >= 0 for key in ("load_start", "load_end"))
    assert all((row["kind"], row["label"], row["run"]) == ("ab", "a", 1) for row in rows)
    assert all(row["load_1min"] >= 0 for row in rows)
    assert {row["d"] for row in rows if row["call"] == "teleport"} == {2, 3}
    calls = {row["call"] for row in rows}
    commands = ["choi", "channel", "condition", "join", "bayes", "verify-theorem", "teleport",
                "prepare", "selftest"]
    assert calls == {
        "State", "JointState", "ConditionalState", "POVM", "teleport", "verify_theorem",
        "conditional_from_joint", "bayes_invert",
        "Channel", "apply", "apply_matrix", "choi_conditional", "channel_from_conditional",
        *(f"cli {command}" for command in commands),
        *(f"{step} {document}" for step in ("serialize", "parse")
          for document in ("JointState", "ConditionalState", "Channel")),
        # no pair of d ≤ 3 reaches BLOCKWISE_MIN_DIM, so no "herm_eig blocked"
        "herm_eig", "EigenSystem.root", "EigenSystem.inv_root", "partial_trace",
    }
    # each document case on every class, d = 2…3 (no mixed class at d = 2)
    for call in calls:
        if call.startswith(("serialize ", "parse ")):
            assert sum(row["call"] == call for row in rows) == 2 + 3
    # eight document commands on each class at d = 8, and selftest once
    cli_rows = [row for row in rows if row["call"].startswith("cli ")]
    assert len(cli_rows) == 3 * 8 + 1 and {row["d"] for row in cli_rows} == {8}
    # each CLI record carries the digest of its stdout on both sides, and only those do
    assert all(len(bytes.fromhex(row["stdout_sha256"])) == 32 for row in cli_rows)
    assert not any("stdout_sha256" in row for row in rows if row not in cli_rows)
    for row in rows:
        assert row["speedup_q1"] <= row["speedup"] <= row["speedup_q3"]
        assert row["median_ms"] > 0 and row["against"]["median_ms"] > 0
        for key in ("eigvalsh", "eigh", "cholesky", "stdout_sha256"):
            assert row.get(key) == row["against"].get(key)
    # valid input is certified by Cholesky alone (selftest also runs the
    # eigenvalue checks it tests)
    assert all(row["eigvalsh"] == 0 for row in rows if row["call"] != "cli selftest")
    assert 0.95 <= statistics.median(row["speedup"] for row in rows) <= 1.05


def test_bench_needs_a_tree_to_time_against(tmp_path):
    completed = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench.py"), "--out", str(tmp_path / "out.json"),
         "--label", "a"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 2 and completed.stderr.startswith("usage: ")
    assert "--against" in completed.stderr.splitlines()[-1]
    assert not (tmp_path / "out.json").exists()


def test_bench_times_each_call_against_its_twin_one_call_at_a_time():
    # each round calls the two sides in turn, one call each, the first side
    # alternating by round, for a short call and a long one alike
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench\n"
        "def call(tag, seconds):\n"
        "    def run():\n"
        "        start = time.perf_counter()\n"
        "        while time.perf_counter() - start < seconds:\n"
        "            pass\n"
        "        seen.append(tag)\n"
        "    return run\n"
        "for seconds in (0.0, 4e-4):\n"
        "    seen = []\n"
        "    row = bench.measure_ab(call('a', seconds), call('b', seconds), 1)\n"
        "    print(''.join(seen), row['speedup_q1'] <= row['speedup'] <= row['speedup_q3'])\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    for line in completed.stdout.splitlines():
        seen, ordered = line.split()
        # the first call of each side sizes the rounds, and one more of each counts its calls
        n = (len(seen) - 4) // 4
        assert n > 1 and seen == "ab" + "ab" * n + "ba" * n + "ab"
        assert ordered == "True"


def test_bench_charges_each_side_its_call_and_one_clock_read():
    # a fake clock advances one tick per read and one per subtraction of two of its
    # readings (the bookkeeping), and each fake call a fixed number of ticks: in either
    # order ``alternated`` charges each side exactly its call plus one clock read, so no
    # work of its own lands in one side's interval and not the other's
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench\n"
        "ticks = [0]\n"
        "class Reading(float):\n"
        "    def __sub__(self, other):\n"
        "        ticks[0] += 1\n"
        "        return float(self) - float(other)\n"
        "def clock():\n"
        "    ticks[0] += 1\n"
        "    return Reading(ticks[0] - 1)\n"
        "def call(n):\n"
        "    def run():\n"
        "        ticks[0] += n\n"
        "    return run\n"
        "bench.time.perf_counter = clock\n"
        "for order in ((0, 1), (1, 0)):\n"
        "    print(bench.alternated((call(10), call(30)), order, 3))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == ["[11.0, 31.0]", "[11.0, 31.0]"]


def test_bench_loads_two_trees_as_separate_packages():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench\n"
        "a = bench.load_tree(bench.ROOT / 'src', 'condchan')\n"
        "b = bench.load_tree(bench.ROOT / 'src', 'condchan_against')\n"
        "print(a.AlgebraShape is not b.AlgebraShape, a.cli.__name__, b.cli.__name__,\n"
        "      b.matcore.herm_eig.__module__, isinstance(b.AlgebraShape((2,)), a.AlgebraShape))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == [
        "True", "condchan.cli", "condchan_against.cli", "condchan_against.matcore", "False"
    ]


def test_bench_matcore_cases_keep_the_earlier_inputs(tmp_path):
    # the matcore cases come last, from a generator of their own, so every earlier case keeps
    # its inputs; at d = 4 every class times the same four calls, herm_eig on the whole matrix
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench, numpy as np\n"
        "cc = bench.load_tree(bench.ROOT / 'src', 'condchan')\n"
        f"keys = [key for *key, _ in bench.cases(cc, bench.Path({str(tmp_path)!r}), 2)]\n"
        "tail = [tuple(key) for *key, _ in bench.matcore_cases(cc, np.random.default_rng(0), [2])]\n"
        "print(keys[-len(tail):] == [list(key) for key in tail])\n"
        "calls = [(c, k) for c, d, k, _ in bench.matcore_cases(cc, np.random.default_rng(0), [4])]\n"
        "print(len(calls), len(set(calls)), sorted({c for c, _ in calls}))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines() == [
        "True", "12 12 ['EigenSystem.inv_root', 'EigenSystem.root', 'herm_eig', 'partial_trace']"
    ]


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
        "calls = [('big', 16, 'mixed', oom), ('small', 2, 'mixed', int)]\n"
        "rows = bench.measure(calls, 1, list(calls))\n"
        "print(json.dumps(rows))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    failed, measured = json.loads(completed.stdout)
    assert failed == {"call": "big", "d": 16, "class": "mixed", "kind": "failed",
                      "error": "MemoryError"}
    assert (measured["call"], measured["kind"]) == ("small", "ab")


@pytest.mark.parametrize("calls,twins,message", [
    ("[('a', 2, 'x', int)]", "[]", "('a', 2, 'x') and None"),
    ("[]", "[('a', 2, 'x', int)]", "None and ('a', 2, 'x')"),
    ("[('a', 2, 'x', int)]", "[('a', 2, 'x', int), ('b', 3, 'x', int)]", "None and ('b', 3, 'x')"),
    ("[('a', 2, 'x', int)]", "[('a', 3, 'x', int)]", "('a', 2, 'x') and ('a', 3, 'x')"),
])
def test_bench_refuses_trees_whose_calls_differ(calls, twins, message):
    # a case that only one tree has, at the end or in place of the other's, is named
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench\n"
        "try:\n"
        f"    bench.measure({calls}, 1, {twins})\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == f"the trees' calls differ: {message}\n"


def test_bench_records_the_load_average_after_each_call():
    # the 1-minute value, read after each call's rounds and CLI digests; the
    # "failed" record of a call that runs out of memory holds none
    code = (
        "import itertools, json, sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench\n"
        "loads = itertools.count(1)\n"
        "bench.os.getloadavg = lambda: (next(loads) / 4, 5.0, 15.0)\n"
        "def oom():\n"
        "    raise MemoryError\n"
        "calls = [('a', 2, 'x', int), ('big', 16, 'x', oom), ('b', 2, 'x', int)]\n"
        "print(json.dumps([row.get('load_1min') for row in bench.measure(calls, 1, calls)]))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == [0.25, None, 0.5]


@pytest.mark.parametrize("skew,status", [
    ("rep", 0),
    ("replace(rep, max_deviation=2 * IDENTITY_TOL)", 1),
    ("replace(rep, rhs=rep.rhs * float('nan'), max_deviation=float('nan'))", 1),
    ("replace(rep, lhs=rep.lhs - 2 * IDENTITY_TOL)", 1),
])
def test_theorem_sweep_exits_1_on_a_deviation_or_an_invalid_distribution(skew, status):
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import theorem_sweep\n"
        "from condchan.tolerances import IDENTITY_TOL\n"
        "real = theorem_sweep.verify_theorem\n"
        "def skewed(j, n, m):\n"
        "    rep = real(j, n, m)\n"
        f"    return {skew}\n"
        "theorem_sweep.verify_theorem = skewed\n"
        "sys.exit(theorem_sweep.main(['--instances', '1']))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == status, completed.stderr
    assert ("FAILED" in completed.stderr) == bool(status)
