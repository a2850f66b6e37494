"""Density operators on an algebra and joint states on tensor products.

States are stored in embedded form (a full matrix supported on the block diagonal).  A
constructor copies and judges its matrix and keeps ``floor``, λmin(Hermitian part) ≥ -floor;
a map whose output is valid by a bound builds it with ``_trusted`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraShape, layout
from .errors import ShapeMismatch
from .matcore import as_matrix, partial_trace, validate_psd


def _judge(obj, d: int, *shapes: AlgebraShape, unit_trace: bool = True) -> None:
    """Copy ``obj.matrix``, require it (d, d), judge it on ``shapes`` and keep its proved floor."""
    arr = as_matrix(obj.matrix)
    if arr.shape != (d, d):
        raise ShapeMismatch(f"matrix shape {arr.shape}, expected {(d, d)}")
    object.__setattr__(obj, "matrix", arr)
    object.__setattr__(obj, "floor", validate_psd(arr[None], layout(*shapes), unit_trace))


def _trusted(cls, *values, floor: float, **settled):
    """A ``cls`` of ``values`` taking over the last, a fresh array, unjudged, and ``settled``."""
    obj = object.__new__(cls)
    values[-1].setflags(write=False)
    attrs = obj.__dict__  # the fields, floor, then ``settled``: cheaper than one keyword update
    attrs.update(zip(cls.__match_args__, values))
    attrs["floor"] = floor
    if settled:
        attrs.update(settled)
    return obj


@dataclass(frozen=True, eq=False)
class State:
    """Positive unit-trace element of an algebra, in embedded form."""

    shape: AlgebraShape
    matrix: np.ndarray
    floor: float = field(init=False, repr=False)  # see ``apply``

    def __post_init__(self):
        _judge(self, self.shape.total_dim, self.shape)


def states_from_stack(shape: AlgebraShape, stack: np.ndarray) -> tuple[State, ...]:
    """Validate a fresh (n, d, d) stack of density matrices with one shared check
    (one stacked Cholesky factorization) and take each matrix over as a State."""
    floor = validate_psd(stack, layout(shape), unit_trace=True) if len(stack) else None
    return tuple(_trusted(State, shape, m, floor=floor) for m in stack)


@dataclass(frozen=True, eq=False)
class JointState:
    """State on the tensor product of two algebras, first factor slow."""

    shape_a: AlgebraShape
    shape_b: AlgebraShape
    matrix: np.ndarray
    floor: float = field(init=False, repr=False)  # see ``_condition``

    def __post_init__(self):
        _judge(self, self.shape_a.total_dim * self.shape_b.total_dim, self.shape_a, self.shape_b)


def _side(keep: str) -> str:
    if not isinstance(keep, str):
        raise ShapeMismatch(f"side must be 'a' or 'b', got {keep!r}")
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
    return shape, marg * layout(shape).mask


def reduce(j: JointState, keep: str) -> State:
    """Reduced state of one side: partial trace over the discarded factor,
    pinched onto the kept algebra."""
    return State(*_marginal(j, _side(keep)))
