#!/usr/bin/env python3
"""Per-call A/B timings and eigendecomposition counts of two trees of the condchan library.

    python scripts/bench.py --against PARENT_CHECKOUT/src --out BENCH.json --label change
    python scripts/bench.py --against src --out quick.json --label quick --repeats 1 --max-dim 3

Imports ``condchan`` from ``--src`` (default: this checkout's ``src/``) and from
``--against OTHER/src`` into this one process, each under its own package name
(``condchan`` and ``condchan_against``), so that order, layout and drift between
processes do not enter their comparison.  BLAS is fixed to one thread and, where the
C library has ``mallopt`` (glibc), its mmap threshold at 64 MiB and its trim
threshold at 128 MiB, so that one tree's frees do not move the threshold that the
other tree's next call sees.  Each tree builds each call's inputs from the same
generators, so trees that generate alike measure the same inputs.  The calls, for
each algebra class (irreducible ``(d,)``, classical ``(1,)*d`` and mixed), where D
is ``--max-dim`` (default 16, at least 2), which bounds every sweep below but not
the CLI's:

* construction of ``State``, ``JointState`` and ``ConditionalState`` (on the
  class paired with itself) and of a 4-outcome ``POVM``, d = 2…D;
* ``teleport`` from ``(d,)`` into each class, d = 2…D;
* ``verify_theorem`` on the class paired with itself, d = 2…D;
* ``conditional_from_joint`` on the class paired with itself (conditioned
  on the first side), and ``bayes_invert`` of the conditional on the second
  side with the joint's two marginals, d = 2…D;
* on a channel from the class to itself with two Kraus operators per
  output block, d = 2…D: its construction from the Kraus tensor,
  ``apply`` to a state, ``apply_matrix`` on a stack of 4 states,
  ``choi_conditional``, and ``channel_from_conditional`` on its
  conditional form;
* ``serialize`` and ``parse`` of a ``JointState`` document, of the
  ``ConditionalState`` document ``conditional_from_joint`` derives from it
  (conditioned on the first side), and of the document of a channel with two
  Kraus operators per output block, each on the class paired with itself,
  d = 2…D;
* the ``matcore`` primitives on the class paired with itself (a d²×d²
  matrix), d = 2…D: ``herm_eig`` of a channel's whole Choi matrix, and
  ``EigenSystem.root``, ``EigenSystem.inv_root`` and ``partial_trace``
  (keeping the first factor) of a joint state.  The per-block ``herm_eig``
  of a reducible pair from ``matcore.BLOCKWISE_MIN_DIM`` up is timed inside
  ``channel_from_conditional``, ``conditional_from_joint`` and ``bayes_invert``;
* the nine CLI commands (``cli choi`` … ``cli selftest``) through
  ``cli.main`` in this process, on d = 8 documents of each class written to
  a temporary directory, with stdout and stderr redirected; ``teleport``
  runs from ``(8,)`` into the class, and ``selftest --trials 2`` runs once.
  Their records also hold ``stdout_sha256`` on both sides, the sha256 of the
  command's stdout with selftest's ``elapsedSeconds`` masked, so they show whether
  the two trees' outputs are identical.

For each call the two sides are timed in 2·``--repeats`` rounds of the same number
of calls on either side (about 2 ms of calls), in alternating order (this tree
first, then the other tree first, ...).  A round calls the two sides in turn, one
call each, and sums each side's ``perf_counter`` deltas, so that the calls of one
side do not inherit the allocator and cache state of a batch of their own.

Each run appends to ``--out`` one JSON record per line, and keeps everything already
in the file.  First a ``"run"`` record: the label; the commit, dirty flag and
``src/condchan`` line count of this tree, and of the other under ``"against"``; the
environment (the two thresholds included, null without ``mallopt``); ``repeats``,
``max_dim``; and the 1-, 5- and 15-minute load averages at the start and the end of
the run (``load_start``, ``load_end``).  Then one ``"ab"`` record per call: this
tree's median per-call time, the ``eigvalsh``, ``eigh`` and ``cholesky`` calls one
call makes and its CLI digest, the same of the other tree under ``"against"``;
``speedup``, the median over the rounds of the other tree's time over this tree's
(above 1 where this tree is faster), with its quartiles ``speedup_q1`` and
``speedup_q3``; and ``load_1min``, the 1-minute load average read after the call.
A call that runs out of memory (under ``ulimit -v``, say) gets a ``"failed"`` record
naming the error instead, so a tree that cannot run a case is recorded as such.  A
self A/B, ``--against`` the tree's own ``src/``, shows the spread that unchanged
calls read on this machine.
"""

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# glibc starts its mmap threshold at 128 KB and raises it to the size of each
# mapped block the process frees, and it trims the heap top above 128 KB, so
# the time of a call that allocates large arrays depends on what the process
# freed before it.  choi_conditional on a classical d = 16 channel (1-thread
# OpenBLAS, glibc 2.36) took 730 µs in a fresh process and 232 µs after a
# 16 MiB array was freed; with only the mmap threshold fixed, 472 and 487 µs;
# with both thresholds fixed, 241 and 232 µs.  They are set before numpy loads.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
MALLOC_THRESHOLDS = {
    "malloc_mmap_threshold": (M_MMAP_THRESHOLD, 64 << 20),
    "malloc_trim_threshold": (M_TRIM_THRESHOLD, 128 << 20),
}


def fix_malloc_thresholds():
    """Set the thresholds with ``mallopt`` (looked up in the process's own
    symbols, which hold the C library's); each value that it accepts, else None."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return dict.fromkeys(MALLOC_THRESHOLDS)
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return {key: value if mallopt(param, value) == 1 else None
            for key, (param, value) in MALLOC_THRESHOLDS.items()}


MALLOC = fix_malloc_thresholds()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
COUNTED = ("eigvalsh", "eigh", "cholesky")
SEED = 20260809
BATCH_MS = 2.0
ELAPSED = re.compile(r'("elapsedSeconds": )[^,\n]+')


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


def run_cli(cli, argv):
    """``cli.main(argv)`` with stdout and stderr captured; returns stdout, and
    a nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def stdout_sha256(text):
    """sha256 of a command's stdout, with selftest's run time masked."""
    return hashlib.sha256(ELAPSED.sub(r"\1null", text).encode()).hexdigest()


def document_cases(cc, rng, dims):
    """``serialize`` and ``parse`` of a joint, its derived conditional and a
    channel, on the class paired with itself."""
    for d in dims:
        for cls, blocks in shape_classes(d).items():
            shape = cc.AlgebraShape(blocks)
            joint = cc.random_joint_state(shape, shape, rng)
            objs = {"JointState": joint, "ConditionalState": cc.conditional_from_joint(joint, "a"),
                    "Channel": cc.random_channel(shape, shape, 2, rng)}
            for name, obj in objs.items():
                text = cc.serialize.serialize(obj)
                yield f"serialize {name}", d, cls, partial(cc.serialize.serialize, obj)
                yield f"parse {name}", d, cls, partial(cc.serialize.parse, text)


def cli_cases(cc, workdir, rng):
    """The nine CLI commands on d = 8 documents of each class, written to
    ``workdir``."""
    d = 8
    q = cc.AlgebraShape((d,))
    for cls, dims in shape_classes(d).items():
        shape = cc.AlgebraShape(dims)
        joint = cc.random_joint_state(shape, shape, rng)
        channel = cc.random_channel(shape, shape, 2, rng)
        docs = {
            "channel": channel,
            "choi": cc.choi_conditional(channel),
            "joint": joint,
            "marg_a": cc.reduce(joint, "a"),
            "marg_b": cc.reduce(joint, "b"),
            "cond_a": cc.conditional_from_joint(joint, "a"),
            "cond_b": cc.conditional_from_joint(joint, "b"),
            "povm_a": cc.random_povm(shape, 4, rng),
            "povm_b": cc.random_povm(shape, 4, rng),
            "state": cc.random_state(shape, rng),
            "teleported": cc.random_channel(q, shape, 2, rng),
            "input": cc.random_state(q, rng),
        }
        path = {name: str(workdir / f"{cls}_{name}.json") for name in docs}
        for name, obj in docs.items():
            Path(path[name]).write_text(cc.serialize.serialize(obj), encoding="utf-8")
        argvs = [
            ["choi", "--channel", path["channel"]],
            ["channel", "--conditional", path["choi"]],
            ["condition", "--joint", path["joint"], "--on", "A"],
            ["join", "--marginal", path["marg_a"], "--conditional", path["cond_a"]],
            ["bayes", "--conditional", path["cond_b"],
             "--marginal-a", path["marg_a"], "--marginal-b", path["marg_b"]],
            ["verify-theorem", "--joint", path["joint"],
             "--povm-a", path["povm_a"], "--povm-b", path["povm_b"]],
            ["teleport", "--channel", path["teleported"], "--input", path["input"]],
            ["prepare", "--povm", path["povm_a"], "--state", path["state"]],
        ]
        if cls == "irreducible":
            argvs.append(["selftest", "--seed", str(SEED), "--trials", "2"])
        for argv in argvs:
            yield f"cli {argv[0]}", d, cls, partial(run_cli, cc.cli, argv)


def matcore_cases(cc, rng, dims):
    """``herm_eig`` of a whole Choi matrix, and the root, the inverse root and the partial
    trace of a joint state, on the class paired with itself."""
    mc = cc.matcore
    for d in dims:
        for cls, blocks in shape_classes(d).items():
            shape = cc.AlgebraShape(blocks)
            choi = cc.choi_conditional(cc.random_channel(shape, shape, 2, rng)).matrix
            joint = cc.random_joint_state(shape, shape, rng).matrix
            spectrum = mc.herm_eig(joint)
            yield "herm_eig", d, cls, partial(mc.herm_eig, choi)
            yield "EigenSystem.root", d, cls, spectrum.root
            yield "EigenSystem.inv_root", d, cls, spectrum.inv_root
            yield "partial_trace", d, cls, partial(mc.partial_trace, joint, d, d, "left")


def cases(cc, workdir, max_dim):
    """(call, d, class, zero-argument callable) for every measured call, its
    sweeps over d = 2…``max_dim``; the CLI cases write their documents to
    ``workdir``.  Sweeps share generators, so runs with another ``max_dim``
    measure other inputs and are not comparable with them."""
    sweep = range(2, max_dim + 1)
    rng = np.random.default_rng(SEED)
    for d in sweep:
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
    yield from teleport_cases(cc, rng, range(2, min(max_dim, 8) + 1))
    for d in sweep:
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
    for d in sweep:
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
    yield from teleport_cases(cc, np.random.default_rng(SEED + 2), range(9, max_dim + 1))
    # and one for the CLI cases
    yield from cli_cases(cc, workdir, np.random.default_rng(SEED + 3))
    # and one for the documents
    yield from document_cases(cc, np.random.default_rng(SEED + 4), sweep)
    # and one for the matcore primitives
    yield from matcore_cases(cc, np.random.default_rng(SEED + 5), sweep)


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


def alternated(calls, order, number):
    """Per-call seconds of each of two calls over ``number`` turns, each turn one call
    of each in ``order``: each side's sum of ``perf_counter`` deltas over ``number``.
    Garbage collection is off while they run, so that no collection lands in one side's
    interval."""
    clock, sums = time.perf_counter, [0.0, 0.0]
    first, second = order
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(number):
            start = clock()
            calls[first]()
            middle = clock()
            calls[second]()
            end = clock()
            sums[first] += middle - start
            sums[second] += end - middle
    finally:
        if collecting:
            gc.enable()
    return [total / number for total in sums]


def measure_ab(fn, other, repeats):
    """``fn`` against ``other``, the same call in the other tree: 2·``repeats``
    rounds, the first side alternating.  A round calls the two sides in turn, one
    call each (``alternated``), so that neither side inherits the allocator and
    cache state of a batch of its own calls."""
    number = max(1, round(BATCH_MS / min(timed(fn), timed(other))))
    rounds = [alternated((fn, other), ((0, 1), (1, 0))[r % 2], number)
              for r in range(2 * repeats)]
    q1, median, q3 = statistics.quantiles([o / t for t, o in rounds], method="inclusive")
    return {
        "kind": "ab",
        "median_ms": 1e3 * statistics.median(t for t, _ in rounds),
        "speedup": median,
        "speedup_q1": q1,
        "speedup_q3": q3,
        **count_calls(fn),
        "against": {"median_ms": 1e3 * statistics.median(o for _, o in rounds),
                    **count_calls(other)},
    }


def measure(calls, repeats, against):
    """One record per call of ``calls``, timed by ``measure_ab`` against its twin, the
    call of the same key in ``against``, the other tree's calls in the same order."""
    rows = []
    for mine, twin in itertools.zip_longest(calls, against):
        key, twin_key = (None if case is None else tuple(case[:3]) for case in (mine, twin))
        if key != twin_key:
            raise RuntimeError(f"the trees' calls differ: {key} and {twin_key}")
        (call, d, cls, fn), other = mine, twin[3]
        try:
            row = measure_ab(fn, other, repeats)
            if call.startswith("cli "):
                row["stdout_sha256"] = stdout_sha256(fn())
                row["against"]["stdout_sha256"] = stdout_sha256(other())
            row["load_1min"] = os.getloadavg()[0]
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
        **MALLOC,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def load_tree(src, name):
    """The ``condchan`` package of the tree ``src``, imported as ``name``, with its ``cli``."""
    init = src / "condchan" / "__init__.py"
    if not init.is_file():
        sys.exit(f"no condchan package in {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")  # cc.cli and cc.serialize, for the CLI cases
    return package


def tree(src):
    """Commit, dirty flag and ``src/condchan`` line count of the tree ``src``."""
    return {
        "commit": git(src, "rev-parse", "HEAD"),
        "dirty": bool(git(src, "status", "--porcelain", "--", ".")),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (src / "condchan").glob("*.py")
        ),
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
    parser.add_argument("--max-dim", type=int, default=16)
    parser.add_argument("--against", type=Path, required=True,
                        help="src/ of another tree, timed against --src")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.max_dim < 2:
        parser.error("--max-dim must be at least 2")
    src, other = args.src.resolve(), args.against.resolve()
    cc = load_tree(src, "condchan")
    cc_against = load_tree(other, "condchan_against")
    run = {
        "kind": "run",
        "run": sum(rec["kind"] == "run" for rec in records(args.out)),
        "label": args.label,
        **tree(src),
        "against": tree(other),
        "env": environment(),
        "repeats": args.repeats,
        "max_dim": args.max_dim,
        "load_start": os.getloadavg(),
    }
    with tempfile.TemporaryDirectory() as workdir:
        (Path(workdir) / "against").mkdir()
        calls = cases(cc, Path(workdir), args.max_dim)
        against = cases(cc_against, Path(workdir) / "against", args.max_dim)
        rows = measure(calls, args.repeats, against)
    run["load_end"] = os.getloadavg()
    lines = [run] + [{"run": run["run"], "label": args.label, **row} for row in rows]
    with args.out.open("a", encoding="utf-8") as out:
        out.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in lines)


if __name__ == "__main__":
    main()
