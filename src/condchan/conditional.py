"""Conditional density operators: the quantum analog of a conditional
probability matrix.

A conditional ``out|in`` carries a conditioning ("in") algebra and a
conditioned ("out") algebra.  Its matrix lives on the kron space with the
conditioning factor SLOW, i.e. the same layout as a joint state on
in (x) out.  With that layout, building a conditional from a joint state
and rebuilding the joint from (marginal, conditional) are plain operator
sandwiches with no index shuffling; only Bayes inversion reorders factors.

The partial trace of a conditional over its conditioned side is a
projector (the support projector of the conditioning marginal when the
conditional came from a joint state), so its trace is an integer rank.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .algebra import (
    AlgebraShape,
    block_index,
    block_support_deviation,
    pair_support_deviation,
)
from .errors import InvariantViolation, ShapeMismatch, SupportMismatch
from .matcore import (
    EigenSystem,
    as_matrix,
    herm_deviation,
    herm_eig,
    mat_sqrt,
    max_abs,
    partial_trace,
    swap_factors,
)
from .states import JointState, State, _side, _validate_psd
from .tolerances import BLOCK_TOL, IDENTITY_TOL, INPUT_TOL, RANK_TOL


@dataclass(frozen=True, eq=False)
class ConditionalState:
    """Positive operator whose conditioning partial trace is a projector.

    ``shape_in`` is the conditioning system, ``shape_out`` the conditioned
    one; the label reads out|in.  The matrix lies on kron(in, out) with the
    conditioning factor slow.
    """

    shape_in: AlgebraShape
    shape_out: AlgebraShape
    matrix: np.ndarray
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        arr = as_matrix(self.matrix)
        d = self.shape_in.total_dim * self.shape_out.total_dim
        if arr.shape != (d, d):
            raise ShapeMismatch(f"matrix shape {arr.shape} does not match kron dim {d}")
        object.__setattr__(self, "matrix", arr)
        if check:
            self._validate(arr)

    def _validate(self, arr: np.ndarray) -> None:
        block_dev = pair_support_deviation(arr, self.shape_in, self.shape_out)
        _validate_psd(arr[None], block_dev)
        p = self.conditioning_support()
        proj_dev = max(max_abs(p @ p - p), herm_deviation(p))
        if proj_dev > IDENTITY_TOL:
            raise InvariantViolation("support_projector", proj_dev)
        trace = float(np.trace(p).real)
        rank_dev = abs(trace - round(trace))
        if rank_dev > RANK_TOL:
            raise InvariantViolation("integer_rank", rank_dev)

    def conditioning_support(self) -> np.ndarray:
        """Partial trace over the conditioned side; a projector on the
        conditioning algebra."""
        din, dout = self.shape_in.total_dim, self.shape_out.total_dim
        return partial_trace(self.matrix, din, dout, keep="left")

    @property
    def rank(self) -> int:
        """Trace of the conditioning support, rounded to the integer it is."""
        return int(round(float(np.trace(self.matrix).real)))


def _sandwich_on_first(factor: np.ndarray, matrix: np.ndarray, dim_other: int) -> np.ndarray:
    """kron(factor, I) @ matrix @ kron(factor, I), contracted on the slow index."""
    n = factor.shape[0]
    left = (factor @ matrix.reshape(n, -1)).reshape(n * dim_other, n, dim_other)
    # the right product on the slow column index is a batched matmul over rows
    return (left.swapaxes(1, 2) @ factor).swapaxes(1, 2).reshape(matrix.shape)


def _marginal_spectrum(marg: np.ndarray, shape: AlgebraShape) -> EigenSystem:
    """Spectrum of a joint's marginal, per block of ``shape``.  A valid joint
    leaks at most BLOCK_TOL per entry off its pair blocks, and the partial
    trace sums up to the traced dimension of those entries, so a marginal
    above BLOCK_TOL is decomposed whole."""
    blocks = block_index(shape)
    if blocks is not None and block_support_deviation(marg, shape) > BLOCK_TOL:
        blocks = None
    return herm_eig(marg, blocks)


def _condition(j: JointState, side: str) -> tuple[ConditionalState, EigenSystem]:
    """The conditional of ``j`` on ``side`` ("a" or "b") and the spectrum of
    that side's marginal, from which its generalized inverse root was taken."""
    da, db = j.shape_a.total_dim, j.shape_b.total_dim
    if side == "a":
        marg = _marginal_spectrum(partial_trace(j.matrix, da, db, keep="left"), j.shape_a)
        out = _sandwich_on_first(marg.inv_root(), j.matrix, db)
        return ConditionalState(shape_in=j.shape_a, shape_out=j.shape_b, matrix=out), marg
    marg = _marginal_spectrum(partial_trace(j.matrix, da, db, keep="right"), j.shape_b)
    out = _sandwich_on_first(marg.inv_root(), swap_factors(j.matrix, da, db), da)
    return ConditionalState(shape_in=j.shape_b, shape_out=j.shape_a, matrix=out), marg


def conditional_from_joint(j: JointState, condition_on: str = "a") -> ConditionalState:
    """Condition a joint state on one side.

    Sandwiches the joint with the generalized inverse square root of the
    conditioning marginal (tensored with the identity).  A rank-deficient
    marginal is handled by restriction to its support.
    """
    return _condition(j, _side(condition_on))[0]


def joint_from_conditional(marg: State, cond: ConditionalState) -> JointState:
    """Rebuild a joint state from a conditioning marginal and a conditional.

    The support of the conditional's conditioning projector must contain the
    support of the marginal, otherwise the reconstruction loses trace and a
    ``SupportMismatch`` is raised.
    """
    if marg.shape != cond.shape_in:
        raise ShapeMismatch("marginal shape does not match the conditioning algebra")
    root = mat_sqrt(marg.matrix)
    out = _sandwich_on_first(root, cond.matrix, cond.shape_out.total_dim)
    # the measure and threshold of the rebuilt joint's own unit-trace check
    trace = np.trace(out)
    trace_dev = abs(trace.real - 1.0) + abs(trace.imag)
    if trace_dev > INPUT_TOL:
        raise SupportMismatch(
            f"reconstructed joint state has trace deviation {trace_dev:.3e}; "
            "the marginal leaks outside the conditional's conditioning support"
        )
    return JointState(shape_a=cond.shape_in, shape_b=cond.shape_out, matrix=out)


def bayes_invert(cond_ab: ConditionalState, marg_a: State, marg_b: State) -> ConditionalState:
    """Turn a conditional of A given B into the conditional of B given A.

    ``cond_ab`` conditions on B (``shape_in`` = B, ``shape_out`` = A); the
    marginals must be the reduced states of the joint state inducing it.
    The conditioning marginal of the OUTPUT (``marg_b``) must be full rank.
    """
    if cond_ab.shape_out != marg_a.shape:
        raise ShapeMismatch("marg_a must live on the conditioned algebra of cond_ab")
    if cond_ab.shape_in != marg_b.shape:
        raise ShapeMismatch("marg_b must live on the conditioning algebra of cond_ab")
    spectrum_b = herm_eig(marg_b.matrix, block_index(marg_b.shape))
    if spectrum_b.rank < marg_b.shape.total_dim:
        raise SupportMismatch("marg_b is rank-deficient; Bayes inversion needs full rank")
    # kron(root_b, inv_a) sandwich, one factor at a time on the slow index,
    # with the factor swap in between that reorders the result to A-slow.
    da, db = marg_a.shape.total_dim, marg_b.shape.total_dim
    half = swap_factors(_sandwich_on_first(spectrum_b.root(), cond_ab.matrix, da), db, da)
    inv_a = herm_eig(marg_a.matrix, block_index(marg_a.shape)).inv_root()
    inverted = _sandwich_on_first(inv_a, half, db)
    return ConditionalState(shape_in=marg_a.shape, shape_out=marg_b.shape, matrix=inverted)
