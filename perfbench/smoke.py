#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a short run of every workload.

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` once untraced and twice traced with
the same seed, prints what they print, and checks that:

* every metric ``BENCHMARK.json`` names is reported, with its unit;
* every op succeeded (``failed_ratio`` is 0) and the result is correct;
* the two traced runs give identical counts (``layertrace.EXACT``);
* the serialize and cli metrics read zero outside ``documents_cli``.

It asserts nothing about timing.  Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import EXACT  # noqa: E402

SEED = 7
SECONDS = "1"


def run(workload: str, trace: int) -> dict:
    """One run; prints its human-readable lines (traced runs: the header)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:1] if trace else lines[:-1]))
    if done.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    failed_ratio = [line.split() for line in lines if line.split()[:1] == ["failed_ratio"]]
    if failed_ratio != [["failed_ratio", "0", "ratio"]]:
        sys.exit(f"FAIL {workload} trace {trace}: failed_ratio line {failed_ratio}")
    return json.loads(lines[-1])


def expect(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"FAIL {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run(workload, 0)
        traced = [run(workload, 1), run(workload, 1)]
        for result, metrics in ((untraced, spec["end_to_end"]), *((t, spec["per_layer"]) for t in traced)):
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload}: correct {result['correct']}, failed {result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            expect(got == want, f"{workload}: metrics and units differ from BENCHMARK.json: "
                   f"{sorted(set(got.items()) ^ set(want.items()))}")
        first, second = (t["metrics"] for t in traced)
        differ = [name for name in EXACT if first[name]["value"] != second[name]["value"]]
        expect(not differ, f"{workload}: counts differ between two traced runs: {differ}")
        if workload != "documents_cli":
            nonzero = [name for name, m in first.items()
                       if name.split(".")[0] in ("serialize", "cli") and m["value"] != 0]
            expect(not nonzero, f"{workload}: serialize/cli metrics nonzero: {nonzero}")
        print(f"PASS {workload}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
