#!/usr/bin/env python3
"""Per-call timings and eigendecomposition counts of the condchan library.

    python scripts/bench.py --out BENCH.json --label change
    python scripts/bench.py --src OTHER_CHECKOUT/src --out BENCH.json --label parent

Imports ``condchan`` from ``--src`` (default: this checkout's ``src/``) with
BLAS fixed to one thread.  For each call below and each algebra class
(irreducible ``(d,)``, classical ``(1,)*d`` and mixed) it records the time
of the first call, the median per-call wall time over ``--repeats`` later
samples (each a batch of calls lasting about 2 ms), the ``eigvalsh``,
``eigh`` and ``cholesky`` calls one call makes, and the peak resident set
size of the process after the call's samples (a high-water mark, so it
bounds the call's own peak).  Beside every sample it runs the benchmark's
calibration kernel (``perfbench/calibrate.py``), a fixed amount of work
that does not touch condchan, and records the median kernel time and the
median ratio of sample to kernel time.  The ratio cancels the machine's
speed state, which shifts raw times of unchanged calls by 10 % and more
between runs.  The calls:

* construction of ``State``, ``JointState`` and ``ConditionalState`` (on the
  class paired with itself) and of a 4-outcome ``POVM``, d = 2…16;
* ``teleport`` from ``(d,)`` into each class, d = 2…16;
* ``verify_theorem`` on the class paired with itself, d = 2…16;
* ``conditional_from_joint`` on the class paired with itself (conditioned
  on the first side), and ``bayes_invert`` of the conditional on the second
  side with the joint's two marginals, d = 2…16;
* on a channel from the class to itself with two Kraus operators per
  output block, d = 2…16: its construction from the Kraus tensor,
  ``apply`` to a state, ``apply_matrix`` on a stack of 4 states,
  ``choi_conditional``, and ``channel_from_conditional`` on its
  conditional form.

Each run appends to ``--out`` one JSON record per line: a ``"run"``
record with the label, commit, ``src/condchan`` line count and environment,
then one ``"result"`` record per call, or a ``"failed"`` record naming the
error for a call that runs out of memory (under ``ulimit -v``, say), so a
tree that cannot run a case is recorded as such.  Everything already in
the file is kept, so one file holds the before and after of a change, and
runs of the two trees can be interleaved (parent, change, change, parent,
...) to spread drift in machine speed over both.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from calibrate import Calibration  # noqa: E402

COUNTED = ("eigvalsh", "eigh", "cholesky")
SEED = 20260809
BATCH_MS = 2.0


def shape_classes(d):
    classes = {"irreducible": (d,), "classical": (1,) * d}
    if d >= 3:
        classes["mixed"] = (d - d // 2, d // 2)
    return classes


def teleport_cases(cc, rng, dims):
    for d in dims:
        shape_in = cc.AlgebraShape((d,))
        for cls, out in shape_classes(d).items():
            c = cc.random_channel(shape_in, cc.AlgebraShape(out), 2, rng)
            s = cc.random_state(shape_in, rng)
            yield "teleport", d, cls, partial(cc.teleport, c, s)


def cases(cc):
    """(call, d, class, zero-argument callable) for every measured call."""
    rng = np.random.default_rng(SEED)
    for d in range(2, 17):
        for cls, dims in shape_classes(d).items():
            shape = cc.AlgebraShape(dims)
            rho = cc.random_state(shape, rng).matrix
            joint = cc.random_joint_state(shape, shape, rng).matrix
            cond = cc.choi_conditional(cc.random_channel(shape, shape, 2, rng)).matrix
            elements = cc.random_povm(shape, 4, rng).elements
            yield "State", d, cls, partial(cc.State, shape, rho)
            yield "JointState", d, cls, partial(cc.JointState, shape, shape, joint)
            yield "ConditionalState", d, cls, partial(cc.ConditionalState, shape, shape, cond)
            yield "POVM", d, cls, partial(cc.POVM, shape, elements)
    yield from teleport_cases(cc, rng, range(2, 9))
    for d in range(2, 17):
        for cls, dims in shape_classes(d).items():
            shape = cc.AlgebraShape(dims)
            j = cc.random_joint_state(shape, shape, rng)
            n = cc.random_povm(shape, 4, rng)
            m = cc.random_povm(shape, 4, rng)
            yield "verify_theorem", d, cls, partial(cc.verify_theorem, j, n, m)
            cond_b = cc.conditional_from_joint(j, "b")
            marg_a, marg_b = cc.reduce(j, "a"), cc.reduce(j, "b")
            yield "conditional_from_joint", d, cls, partial(cc.conditional_from_joint, j, "a")
            yield "bayes_invert", d, cls, partial(cc.bayes_invert, cond_b, marg_a, marg_b)
    # a generator of their own keeps the inputs of the cases above unchanged
    rng = np.random.default_rng(SEED + 1)
    for d in range(2, 17):
        for cls, dims in shape_classes(d).items():
            shape = cc.AlgebraShape(dims)
            c = cc.random_channel(shape, shape, 2, rng)
            s = cc.random_state(shape, rng)
            stack = np.stack([cc.random_state(shape, rng).matrix for _ in range(4)])
            cond = cc.choi_conditional(c)
            yield "Channel", d, cls, partial(cc.Channel, shape, shape, c.kraus)
            yield "apply", d, cls, partial(cc.apply, c, s)
            yield "apply_matrix", d, cls, partial(cc.channels.apply_matrix, c, stack)
            yield "choi_conditional", d, cls, partial(cc.choi_conditional, c)
            yield "channel_from_conditional", d, cls, partial(cc.channel_from_conditional, cond)
    # and one more for the teleport cases above d = 8, for the same reason
    yield from teleport_cases(cc, np.random.default_rng(SEED + 2), range(9, 17))


def count_calls(fn):
    """Number of eigvalsh, eigh and cholesky calls one call of ``fn`` makes."""
    counts = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(np.linalg, name) for name in COUNTED}

    def wrap(name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)

        return counted

    for name in COUNTED:
        setattr(np.linalg, name, wrap(name))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)
    return counts


def timed(fn):
    start = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - start)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure_call(fn, control, repeats):
    first = timed(fn)
    # each sample times a batch of about BATCH_MS, so that timer
    # resolution and scheduler noise stay small against short calls
    number = max(1, round(BATCH_MS / first))
    timer = timeit.Timer(fn)
    samples, kernel = [], []
    for _ in range(repeats):
        kernel.append(control.sample())
        samples.append(timer.timeit(number) / number)
    return {
        "kind": "result",
        "median_ms": 1e3 * statistics.median(samples),
        "first_ms": first,
        "control_ms": 1e3 * statistics.median(kernel),
        "ratio": statistics.median(s / k for s, k in zip(samples, kernel)),
        **count_calls(fn),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure(calls, repeats):
    control = Calibration()
    rows = []
    for call, d, cls, fn in calls:
        try:
            row = measure_call(fn, control, repeats)
        except MemoryError as exc:
            row = {"kind": "failed", "error": type(exc).__name__}
        rows.append({"call": call, "d": d, "class": cls, **row})
    return rows


def git(src, *args):
    try:
        out = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": 1,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def records(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import condchan as cc

    if Path(cc.__file__).resolve().parent != src / "condchan":
        sys.exit(f"condchan was imported from {cc.__file__}, not from {src}")
    run = {
        "kind": "run",
        "run": sum(rec["kind"] == "run" for rec in records(args.out)),
        "label": args.label,
        "commit": git(src, "rev-parse", "HEAD"),
        "dirty": bool(git(src, "status", "--porcelain", "--", ".")),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (src / "condchan").glob("*.py")
        ),
        "env": environment(),
        "repeats": args.repeats,
    }
    lines = [run] + [
        {"run": run["run"], "label": args.label, **row}
        for row in measure(cases(cc), args.repeats)
    ]
    with args.out.open("a", encoding="utf-8") as out:
        out.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in lines)


if __name__ == "__main__":
    main()
