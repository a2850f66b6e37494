"""Density operators on an algebra and joint states on tensor products.

States are stored in embedded form (a full matrix supported on the block
diagonal) and validated eagerly at construction; pass ``check=False`` for
intermediate values that are fixed up before observation.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .algebra import AlgebraShape, block_mask, support_index
from .errors import ShapeMismatch
from .matcore import as_matrix, partial_trace, validate_psd


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
            validate_psd(arr[None], *support_index(self.shape), unit_trace=True)


def states_from_stack(shape: AlgebraShape, stack: np.ndarray) -> tuple[State, ...]:
    """Validate a (n, d, d) stack of density matrices with one shared check
    (one stacked Cholesky factorization) and wrap each matrix as a State."""
    if len(stack):
        validate_psd(stack, *support_index(shape), unit_trace=True)
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
        validate_psd(arr[None], *support_index(self.shape_a, self.shape_b), unit_trace=True)


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
