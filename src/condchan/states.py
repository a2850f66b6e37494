"""Density operators on an algebra and joint states on tensor products.

States are stored in embedded form (a full matrix supported on the block
diagonal) and validated eagerly at construction; pass ``check=False`` for
intermediate values that are fixed up before observation.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .algebra import AlgebraShape, block_mask, block_support_deviation, pair_support_deviation
from .errors import InvariantViolation, ShapeMismatch
from .matcore import _min_eigenvalue_unless_certified, as_matrix, partial_trace
from .tolerances import BLOCK_TOL, INPUT_TOL


@np.errstate(over="ignore", invalid="ignore")
def _validate_psd(stack: np.ndarray, block_dev: float, unit_trace: bool = False) -> None:
    """Hermitian-PSD checks on a (n, d, d) stack; a single matrix is a batch
    of one.  Invariants are checked in the order finite, overflow, hermitian,
    block_support, trace (unit trace of each matrix, when ``unit_trace``) and
    positive, each over the whole stack; ``block_dev`` is judged against
    ``BLOCK_TOL``, the rest against ``INPUT_TOL``.  Positivity is certified by
    one Cholesky factorization of the Hermitian part shifted by ``INPUT_TOL``;
    only a stack that fails it pays an eigvalsh call, whose lowest eigenvalue
    decides and is reported as the deviation.

    Finite entries near the float limit can overflow m + m† and the traces;
    numpy's warnings are off here, the Hermitian part that overflows raises
    ``overflow`` and every later test is NaN-safe."""
    adj = stack.conj().swapaxes(-1, -2)
    herm = (stack + adj) / 2
    if not np.isfinite(herm).all():
        if not np.isfinite(stack).all():
            raise InvariantViolation("finite", np.inf, "matrix has non-finite entries")
        raise InvariantViolation("overflow", np.inf)
    dev = float(np.abs(stack - adj).max())
    if dev > INPUT_TOL:
        raise InvariantViolation("hermitian", dev)
    if block_dev > BLOCK_TOL:
        raise InvariantViolation("block_support", block_dev)
    if unit_trace:
        traces = stack.trace(axis1=1, axis2=2).tolist()
        trace_dev = max(abs(t.real - 1.0) + abs(t.imag) for t in traces)
        if not trace_dev <= INPUT_TOL:
            raise InvariantViolation("trace", trace_dev)
    low = _min_eigenvalue_unless_certified(stack, herm, INPUT_TOL)
    if low is not None and not low >= -INPUT_TOL:
        raise InvariantViolation("positive", -low)


@dataclass(frozen=True, eq=False)
class State:
    """Positive unit-trace element of an algebra, in embedded form."""

    shape: AlgebraShape
    matrix: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        arr = as_matrix(self.matrix)
        d = self.shape.total_dim
        if arr.shape != (d, d):
            raise ShapeMismatch(f"matrix shape {arr.shape} does not match total dim {d}")
        object.__setattr__(self, "matrix", arr)
        if check:
            _validate_psd(arr[None], block_support_deviation(arr, self.shape), unit_trace=True)


def states_from_stack(shape: AlgebraShape, stack: np.ndarray) -> tuple[State, ...]:
    """Validate a (n, d, d) stack of density matrices with one shared check
    (one Cholesky factorization for the whole stack) and wrap each matrix as
    a State."""
    if len(stack):
        _validate_psd(stack, block_support_deviation(stack, shape), unit_trace=True)
    return tuple(State(shape, m, check=False) for m in stack)


@dataclass(frozen=True, eq=False)
class JointState:
    """State on the tensor product of two algebras, first factor slow."""

    shape_a: AlgebraShape
    shape_b: AlgebraShape
    matrix: np.ndarray

    def __post_init__(self):
        arr = as_matrix(self.matrix)
        d = self.shape_a.total_dim * self.shape_b.total_dim
        if arr.shape != (d, d):
            raise ShapeMismatch(f"matrix shape {arr.shape} does not match kron dim {d}")
        object.__setattr__(self, "matrix", arr)
        block_dev = pair_support_deviation(arr, self.shape_a, self.shape_b)
        _validate_psd(arr[None], block_dev, unit_trace=True)


def _side(keep: str) -> str:
    k = keep.lower()
    if k not in ("a", "b"):
        raise ShapeMismatch(f"side must be 'a' or 'b', got {keep!r}")
    return k


def _marginal(j: JointState, side: str) -> tuple[AlgebraShape, np.ndarray]:
    """Algebra and matrix of the reduced state of ``side`` ("a" or "b"): the
    partial trace over the other factor, pinched onto the algebra.  A valid
    joint may leave up to BLOCK_TOL on each entry off its pair blocks, and
    the partial trace sums the traced dimension of them; the pinching drops
    that sum."""
    da, db = j.shape_a.total_dim, j.shape_b.total_dim
    shape = j.shape_a if side == "a" else j.shape_b
    marg = partial_trace(j.matrix, da, db, keep="left" if side == "a" else "right")
    return shape, marg * block_mask(shape)


def reduce(j: JointState, keep: str) -> State:
    """Reduced state of one side: partial trace over the discarded factor,
    pinched onto the kept algebra."""
    return State(*_marginal(j, _side(keep)))
