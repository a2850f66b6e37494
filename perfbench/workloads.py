"""The benchmark's workloads.

Set-up generates every input from the seed as raw numpy arrays or document
files, and computes the reference each op is checked against.  Each timed
op then builds its own validated objects, so validation is part of the op,
as it is for a user loading data.  Ops reach the library through module
attributes (``channels.apply``), never through names bound at import, so
that the tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from condchan import channels, cli, conditional, povm, scenarios, selftest, serialize, states
from condchan.algebra import AlgebraShape

TOL = 1e-9
# Document outputs are compared with the reference entry by entry; the
# CLI and the library compute the same floats, this only absorbs summation
# order changes below the project's 1e-12 output contract.
DOC_TOL = 1e-12


class CheckFailed(Exception):
    """An op completed but its result is wrong."""


@dataclass
class Workload:
    items: list
    cycle: int
    op: Callable
    check: Callable


def roundtrip_small(seed: int, workdir: Path) -> Workload:
    """Acceptance-criterion-1 mix: 12 shape pairs of 2x2 and 3x3 algebras,
    each op a channel -> conditional -> channel round trip on 10 states."""
    shapes_in = [(2,), (3,), (2, 1), (1, 1)]
    shapes_out = [(2,), (3,), (1, 1)]
    pairs = [(a, b) for a in shapes_in for b in shapes_out]
    rng = np.random.default_rng(seed)
    items = []
    for k in range(10 * len(pairs)):
        dims_in, dims_out = pairs[k % len(pairs)]
        shape_in, shape_out = AlgebraShape(dims_in), AlgebraShape(dims_out)
        kraus = [np.array(m) for m in scenarios.random_channel(shape_in, shape_out, 2, rng).kraus]
        mats = [np.array(scenarios.random_state(shape_in, rng).matrix) for _ in range(10)]
        items.append((dims_in, dims_out, kraus, mats))

    def op(item):
        dims_in, dims_out, kraus, mats = item
        shape_in = AlgebraShape(dims_in)
        c = channels.Channel(shape_in, AlgebraShape(dims_out), tuple(kraus))
        c2 = channels.channel_from_conditional(channels.choi_conditional(c))
        out = []
        for m in mats:
            s = states.State(shape_in, m)
            out.append((channels.apply(c, s).matrix, channels.apply(c2, s).matrix))
        return out

    def check(item, out):
        dev = max(float(np.max(np.abs(a - b))) for a, b in out)
        if not dev <= TOL:
            raise CheckFailed(f"round-trip deviation {dev:.3e}")

    return Workload(items, len(pairs), op, check)


def scenarios_dense(seed: int, workdir: Path) -> Workload:
    """One verify_theorem at d_a = d_b = 8 plus one teleport at d = 5 per op."""
    theorem_shapes = [(8,), (1,) * 8, (4, 2, 1, 1)]
    teleport_out = [(5,), (1,) * 5, (3, 2)]
    rng = np.random.default_rng(seed)
    items = []
    for k in range(24):
        dims = theorem_shapes[k % 3]
        shape = AlgebraShape(dims)
        rank_a = 4 if k % 4 == 0 else None
        joint = scenarios.random_joint_state(shape, shape, rng, rank_a=rank_a).matrix
        povm_a = [np.array(e) for e in scenarios.random_povm(shape, 4, rng).elements]
        povm_b = [np.array(e) for e in scenarios.random_povm(shape, 4, rng).elements]
        shape_in, shape_out = AlgebraShape((5,)), AlgebraShape(teleport_out[k % 3])
        chan = scenarios.random_channel(shape_in, shape_out, 2, rng)
        state = scenarios.random_state(shape_in, rng)
        bob = np.array(channels.apply(chan, state).matrix)
        items.append((
            dims, np.array(joint), povm_a, povm_b,
            shape_out.block_dims, [np.array(m) for m in chan.kraus], np.array(state.matrix), bob,
        ))

    def op(item):
        dims, joint, povm_a, povm_b, dims_out, kraus, input_matrix, _ = item
        shape = AlgebraShape(dims)
        j = states.JointState(shape, shape, joint)
        n = povm.POVM(shape, tuple(povm_a))
        m = povm.POVM(shape, tuple(povm_b))
        theorem = scenarios.verify_theorem(j, n, m)
        shape_in = AlgebraShape((5,))
        c = channels.Channel(shape_in, AlgebraShape(dims_out), tuple(kraus))
        tele = scenarios.teleport(c, states.State(shape_in, input_matrix))
        return theorem, tele

    def check(item, out):
        theorem, tele = out
        if not (theorem.max_deviation <= TOL and theorem.distributions_valid()):
            raise CheckFailed(f"theorem deviation {theorem.max_deviation:.3e}")
        p_dev = abs(tele.success_probability - 1 / 25)
        bob_dev = float(np.max(np.abs(tele.bob_state_on_success.matrix - item[-1])))
        if not (p_dev <= TOL and bob_dev <= TOL):
            raise CheckFailed(f"teleport deviations: probability {p_dev:.3e}, state {bob_dev:.3e}")

    return Workload(items, 12, op, check)


def documents_cli(seed: int, workdir: Path) -> Workload:
    """All nine CLI commands in process on d = 8 documents (teleport at d = 4)."""
    rng = np.random.default_rng(seed)
    q8, q4 = AlgebraShape((8,)), AlgebraShape((4,))
    joint = scenarios.random_joint_state(q8, q8, rng)
    objects = {
        "channel8": scenarios.random_channel(q8, q8, 2, rng),
        "joint8": joint,
        "marg_a8": states.reduce(joint, "a"),
        "marg_b8": states.reduce(joint, "b"),
        "cond_a8": conditional.conditional_from_joint(joint, "a"),
        "cond_b8": conditional.conditional_from_joint(joint, "b"),
        "povm_a8": scenarios.random_povm(q8, 4, rng),
        "povm_b8": scenarios.random_povm(q8, 4, rng),
        "state8": scenarios.random_state(q8, rng),
        "channel4": scenarios.random_channel(q4, q4, 2, rng),
        "state4": scenarios.random_state(q4, rng),
    }
    objects["choi8"] = channels.choi_conditional(objects["channel8"])
    selftest_seed = int(rng.integers(2**31))

    # Write every document, then read it back so references start from the
    # same bits the CLI will read.
    path, d = {}, {}
    for name, obj in objects.items():
        path[name] = str(workdir / f"{name}.json")
        text = serialize.serialize(obj)
        Path(path[name]).write_text(text, encoding="utf-8")
        d[name] = serialize.parse(text)

    theorem = scenarios.verify_theorem(d["joint8"], d["povm_a8"], d["povm_b8"])
    tele = scenarios.teleport(d["channel4"], d["state4"])
    checks = selftest.run_selftest(selftest_seed, 2)
    items = [
        (["choi", "--channel", path["channel8"]],
         serialize.to_payload(channels.choi_conditional(d["channel8"]))),
        (["channel", "--conditional", path["choi8"]],
         serialize.to_payload(channels.channel_from_conditional(d["choi8"]))),
        (["condition", "--joint", path["joint8"], "--on", "A"],
         serialize.to_payload(conditional.conditional_from_joint(d["joint8"], "a"))),
        (["join", "--marginal", path["marg_a8"], "--conditional", path["cond_a8"]],
         serialize.to_payload(conditional.joint_from_conditional(d["marg_a8"], d["cond_a8"]))),
        (["bayes", "--conditional", path["cond_b8"],
          "--marginal-a", path["marg_a8"], "--marginal-b", path["marg_b8"]],
         serialize.to_payload(conditional.bayes_invert(d["cond_b8"], d["marg_a8"], d["marg_b8"]))),
        (["verify-theorem", "--joint", path["joint8"],
          "--povm-a", path["povm_a8"], "--povm-b", path["povm_b8"]],
         {
             "kind": "theorem_report",
             "lhs": theorem.lhs.tolist(),
             "rhs": theorem.rhs.tolist(),
             "maxDeviation": theorem.max_deviation,
             "supportRestricted": theorem.support_restricted,
         }),
        (["teleport", "--channel", path["channel4"], "--input", path["state4"]],
         {
             "kind": "teleport_report",
             "successProbability": tele.success_probability,
             "successIndex": tele.success_index,
             "probabilities": tele.outcome_probabilities.tolist(),
             "bobStateOnSuccess": serialize.encode_matrix(tele.bob_state_on_success.matrix),
             "groupingUsed": tele.grouping_used,
         }),
        (["prepare", "--povm", path["povm_a8"], "--state", path["state8"]],
         serialize.to_payload(povm.prepare(d["povm_a8"], d["state8"]))),
        (["selftest", "--seed", str(selftest_seed), "--trials", "2"],
         {
             "kind": "selftest_report",
             "seed": selftest_seed,
             "trials": 2,
             "elapsedSeconds": None,
             "pass": all(r.passed for r in checks),
             "checks": [
                 {"name": r.name, "maxDeviation": r.max_deviation,
                  "threshold": r.threshold, "pass": r.passed}
                 for r in checks
             ],
         }),
    ]

    def op(item):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(item[0])
        return code, out.getvalue(), err.getvalue()

    def check(item, out):
        code, text, err = out
        if code != 0:
            raise CheckFailed(f"{item[0][0]} exited {code}: {err.strip()}")
        _compare(json.loads(text), item[1], item[0][0])

    return Workload(items, len(items), op, check)


def _compare(got, want, where: str) -> None:
    """Structural equality; numbers within DOC_TOL; a ``None`` in the
    reference (a wall-clock field) only requires the key to exist."""
    if want is None:
        return
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise CheckFailed(f"{where}: keys differ")
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise CheckFailed(f"{where}: lengths differ")
        for k, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{k}]")
    elif isinstance(want, (bool, str)) or isinstance(got, (bool, str)):
        if got != want:
            raise CheckFailed(f"{where}: {got!r} != {want!r}")
    elif not math.isclose(got, want, rel_tol=0.0, abs_tol=DOC_TOL):
        raise CheckFailed(f"{where}: {got!r} != {want!r}")


WORKLOADS = {
    "roundtrip_small": roundtrip_small,
    "scenarios_dense": scenarios_dense,
    "documents_cli": documents_cli,
}
