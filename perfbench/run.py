#!/usr/bin/env python3
"""Benchmark of the condchan library: one workload, one process, one client.

    python3 perfbench/run.py --workload roundtrip_small --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``condchan`` from its
``src/`` directory.  Ops run as a closed loop, back to back, and every op's
result is checked.  Set-up (generating inputs from ``--seed``, computing
references, one warm-up cycle) is repeated ``SETUP_REPS`` times; its
median plus the import time is ``setup_s``.

With ``--trace 0`` the loop runs untraced for ``--seconds`` and prints the
end-to-end metrics.  With ``--trace 1`` half the time runs untraced and
half in traced passes over the whole input pool, and the per-layer metrics
are printed.  Timings of the end-to-end metrics are scaled to reference
machine speed with the calibration kernel (see ``calibrate.py``); the raw
wall-clock values are printed beside them as ``wall.*``.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

import os
import sys
import time

_START = time.perf_counter()
# The launcher fixes BLAS to one thread before numpy loads: the library is
# single-threaded by design and the 2-core machines this runs on are shared.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# Longest stretch of ops between two calibration samples.
SEGMENT_S = 0.05


def _import_library():
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import condchan
    except ImportError as exc:
        sys.exit(f"cannot import condchan from {SRC}: {exc}")
    if Path(condchan.__file__).resolve().parent != SRC / "condchan":
        sys.exit(f"condchan was imported from {condchan.__file__}, not from {SRC}")
    return numpy


np = _import_library()
import layertrace  # noqa: E402
from calibrate import REFERENCE_S, Calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _START


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "condchan").glob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_condchan_lines": src_lines,
    }


class Runner:
    """Set-up, warm-up and the timed loops of one workload."""

    def __init__(self, name: str, seed: int, workroot: Path):
        self.failed = 0
        self.attempted = 0
        self.first_failure = None
        self.cal = Calibration()
        import_s = IMPORT_S * self.cal.scale()
        wall, scaled = [], []
        for _ in range(SETUP_REPS):
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))
            t0 = time.perf_counter()
            workload = WORKLOADS[name](seed, workdir)
            for item in workload.items[: workload.cycle]:
                self.run_one(workload, item)
            wall.append(time.perf_counter() - t0)
            scaled.append(wall[-1] * self.cal.scale())
            self.workload = workload
        self.setup_s = import_s + statistics.median(scaled)
        self.wall_setup_s = IMPORT_S + statistics.median(wall)
        self.warmup_failed, self.failed, self.attempted = self.failed, 0, 0

    def run_one(self, workload, item) -> tuple[float, bool]:
        """Run and check one op: its latency in seconds (checks excluded)
        and whether it succeeded."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.op(item)
            lat = time.perf_counter() - t0
            workload.check(item, out)
        except Exception:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = traceback.format_exc()
            return time.perf_counter() - t0, False
        return lat, True

    def loop(self, seconds: float) -> list[tuple[float, bool, float]]:
        """Closed loop over the input pool until ``seconds`` have passed,
        stopping at a cycle boundary so every run has the same op mix.

        Returns, per op, its latency, whether it succeeded, and the speed
        scale of its segment: the reference time over the mean of the two
        calibration samples taken just before and just after the segment.
        """
        w, cal = self.workload, self.cal
        rows, segment, i = [], [], 0
        gc.collect()
        k_prev = cal.sample()
        seg_start = time.perf_counter()
        deadline = seg_start + seconds
        while True:
            segment.append(self.run_one(w, w.items[i % len(w.items)]))
            i += 1
            now = time.perf_counter()
            done = i % w.cycle == 0 and now >= deadline
            if done or now - seg_start >= SEGMENT_S:
                k = cal.sample()
                scale = 2 * REFERENCE_S / (k_prev + k)
                rows.extend((lat, ok, scale) for lat, ok in segment)
                segment, k_prev, seg_start = [], k, time.perf_counter()
            if done:
                return rows

    def traced_passes(self, seconds: float):
        """Whole passes over the input pool under the tracer, at least two.
        Returns per-pass totals and the traced ops per reference second."""
        w, cal = self.workload, self.cal
        tracer = layertrace.Tracer()
        passes, busy = [], 0.0
        gc.collect()
        deadline = time.perf_counter() + seconds
        tracer.install()
        try:
            k_prev = cal.sample()
            while len(passes) < 2 or time.perf_counter() < deadline:
                t0 = time.perf_counter()
                for item in w.items:
                    root = tracer.begin_op()
                    try:
                        self.run_one(w, item)
                    finally:
                        tracer.end_op(root)
                elapsed = time.perf_counter() - t0
                k = cal.sample()
                busy += elapsed * 2 * REFERENCE_S / (k_prev + k)
                k_prev = k
                passes.append(tracer.aggregate(*tracer.take_pass()))
        finally:
            tracer.uninstall()
        return passes, len(passes) * len(w.items) / busy


def timing_metrics(rows, scaled: bool) -> dict:
    """ops_per_s and latency percentiles, at reference speed or as wall time."""
    ms = sorted(lat * (s if scaled else 1.0) * 1e3 for lat, ok, s in rows if ok)
    busy_s = sum(lat * (s if scaled else 1.0) for lat, _, s in rows)
    return {
        "ops_per_s": (len(ms) / busy_s, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
    }


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    rows = runner.loop(seconds)
    metrics = {
        **timing_metrics(rows, scaled=True),
        "setup_s": (runner.setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {f"wall.{k}": v for k, v in timing_metrics(rows, scaled=False).items()}
    wall["wall.setup_s"] = (runner.wall_setup_s, "s")
    wall["calibration_ms"] = (REFERENCE_S * 1e3 / statistics.median(s for _, _, s in rows), "ms")
    return metrics, wall


def per_layer(runner: Runner, seconds: float) -> tuple[dict, int]:
    rows = runner.loop(seconds / 2)
    untraced_ops_per_s = timing_metrics(rows, scaled=True)["ops_per_s"][0]
    passes, traced_ops_per_s = runner.traced_passes(seconds / 2)
    ops = len(runner.workload.items)
    first = layertrace.per_op_metrics(passes[0], ops)
    mismatches = sum(
        1
        for tot in passes[1:]
        for name, value in layertrace.per_op_metrics(tot, ops).items()
        if name in layertrace.EXACT and value != first[name]
    )
    total = sum(passes[1:], passes[0])
    metrics = {
        name: (value, layertrace.unit_of(name))
        for name, value in layertrace.per_op_metrics(total, ops * len(passes)).items()
    }
    # Exact counts come from one pass; the guard above shows all passes agree.
    for name in layertrace.EXACT:
        metrics[name] = (first[name], layertrace.unit_of(name))
    metrics["trace.overhead_ratio"] = (traced_ops_per_s / untraced_ops_per_s, "ratio")
    metrics["trace.count_mismatches"] = (mismatches, "count")
    return metrics, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workroot = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(args.workload, args.seed, workroot)
        if args.trace:
            metrics, mismatches = per_layer(runner, args.seconds)
            extra = {}
        else:
            (metrics, extra), mismatches = end_to_end(runner, args.seconds), 0
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    if runner.first_failure:
        sys.stderr.write(runner.first_failure)
    correct = runner.failed == 0 and runner.warmup_failed == 0 and mismatches == 0
    extra["failed_ratio"] = (runner.failed / max(runner.attempted, 1), "ratio")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {runner.attempted}  failed {runner.failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
