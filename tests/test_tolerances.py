"""The tolerance policy lives in one module: no other source module carries
a small float literal, and every check keeps the threshold it had when the
constants were spread over six modules."""

import ast
from pathlib import Path

import numpy as np
import pytest

from condchan import (
    POVM,
    AlgebraShape,
    Channel,
    ConditionalState,
    NotTracePreserving,
    State,
    SupportMismatch,
    joint_from_conditional,
)
from condchan.errors import InvariantViolation
from condchan.povm import Ensemble

SOURCE = Path(__file__).resolve().parents[1] / "src" / "condchan"
QUBIT = AlgebraShape((2,))
BIT = AlgebraShape((1, 1))


def small_float_literals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (path.name, node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value <= 1e-5
    ]


def test_no_tolerance_literal_outside_the_tolerance_module():
    found = [
        hit
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "tolerances.py"
        for hit in small_float_literals(path)
    ]
    assert found == []


def test_each_tolerance_is_named_once_with_a_docstring():
    body = ast.parse((SOURCE / "tolerances.py").read_text(encoding="utf-8")).body
    assigns = [i for i, node in enumerate(body) if isinstance(node, ast.Assign)]
    assert 0 < len(assigns) <= 7
    for i in assigns:
        doc = body[i + 1]
        assert isinstance(doc, ast.Expr) and isinstance(doc.value.value, str), body[i].lineno


def half_diagonal():
    return np.diag([0.5, 0.5]).astype(complex)


def state_hermitian(delta):
    m = half_diagonal()
    m[0, 1] += delta
    return State(QUBIT, m)


def state_block_support(delta):
    m = half_diagonal()
    m[0, 1] = m[1, 0] = delta
    return State(BIT, m)


def state_trace(delta):
    return State(QUBIT, np.diag([0.5 + delta, 0.5]))


def povm_sum(delta):
    return POVM(QUBIT, (np.diag([1.0 + delta, 0.0]), np.diag([0.0, 1.0])))


def channel_trace_preservation(delta):
    return Channel(QUBIT, QUBIT, (np.diag([np.sqrt(1.0 + delta), 1.0]),))


def ensemble_weights_sum(delta):
    s = State(QUBIT, half_diagonal())
    return Ensemble(weights=[0.5 + delta, 0.5], members=(s, s), average=s)


def join_support(delta):
    # the marginal puts weight delta outside the conditional's support |0><0|
    marg = State(QUBIT, np.diag([1.0 - delta, delta]))
    cond = ConditionalState(QUBIT, QUBIT, np.kron(np.diag([1.0, 0.0]), half_diagonal()))
    return joint_from_conditional(marg, cond)


def verdict(build, delta):
    try:
        build(delta)
    except (InvariantViolation, NotTracePreserving, SupportMismatch) as exc:
        return type(exc), getattr(exc, "invariant", None)
    return None


# (build, threshold, verdict just below it, verdict just above it)
BOUNDARIES = [
    (state_hermitian, 1e-10, None, (InvariantViolation, "hermitian")),
    (state_block_support, 1e-12, None, (InvariantViolation, "block_support")),
    (state_trace, 1e-10, None, (InvariantViolation, "trace")),
    (povm_sum, 1e-9, None, (InvariantViolation, "povm_sum")),
    (channel_trace_preservation, 1e-9, None, (NotTracePreserving, None)),
    (ensemble_weights_sum, 1e-9, None, (InvariantViolation, "weights_sum")),
    (join_support, 1e-10, None, (SupportMismatch, None)),
]


@pytest.mark.parametrize(
    "build, threshold, below, above", BOUNDARIES, ids=[row[0].__name__ for row in BOUNDARIES]
)
def test_check_threshold_is_pinned(build, threshold, below, above):
    assert verdict(build, threshold * (1 - 1e-3)) == below
    assert verdict(build, threshold * (1 + 1e-3)) == above


def test_join_reports_a_leak_the_joint_would_reject_as_a_support_mismatch():
    # the join judges the trace it keeps as the rebuilt joint state does, so
    # a leak above INPUT_TOL is named as a support mismatch, not as a trace
    assert verdict(join_support, 5e-9) == (SupportMismatch, None)
