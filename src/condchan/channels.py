"""Trace-preserving completely positive maps and their conditional-state form.

A channel is held canonically in Kraus form; the conditional-state (Choi)
form is computed on demand by letting the channel act on the conditioned
factor of the maximally entangled conditional of the input algebra.  Going
back, Kraus operators are extracted from the eigendecomposition of the
conditional with a relative eigenvalue cutoff and the project-wide phase
convention, which makes the minimal Kraus set deterministic.

For reducible input algebras the maximally entangled conditional is pinched
onto the block diagonal, which bakes the input pinching into the Choi form;
the action on algebra elements is unchanged.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .algebra import AlgebraShape, block_mask, block_projectors, pair_mask
from .conditional import ConditionalState
from .errors import (
    InvariantViolation,
    NotTracePreserving,
    ShapeMismatch,
)
from .matcore import RANK_TOL_FLOOR, herm_deviation, herm_eig, max_abs
from .states import State

CHANNEL_TP_TOL = 1e-9
CHANNEL_BLOCK_TOL = 1e-9
KRAUS_CUTOFF = 1e-10


def max_ent_matrix(shape: AlgebraShape) -> np.ndarray:
    """Unnormalized maximally entangled conditional matrix of an algebra,
    pinched onto the block diagonal (trace = total dimension)."""
    d = shape.total_dim
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for sl in shape.block_slices():
        v = np.zeros(d * d, dtype=np.complex128)
        for j in range(sl.start, sl.stop):
            v[j * d + j] = 1.0
        out += np.outer(v, v.conj())
    return out


def _choi_matrix(kraus: tuple[np.ndarray, ...], shape_in: AlgebraShape) -> np.ndarray:
    # (I ⊗ K) applied to the block vectors of the max-ent matrix is vec(K)
    # restricted to one input block (index j * dout + i holds K[i, j]), so the
    # Choi matrix is Σ_K vec(K) vec(K)† with the input block mask on the slow
    # index of its 4-index view.
    din, dout = shape_in.total_dim, kraus[0].shape[0]
    vecs = np.stack([k.T.reshape(-1) for k in kraus])
    full = (vecs.T @ vecs.conj()).reshape(din, dout, din, dout)
    return (full * block_mask(shape_in)[:, None, :, None]).reshape(din * dout, din * dout)


@dataclass(frozen=True, eq=False)
class Channel:
    """A CP map in Kraus form between two algebras.

    ``input_support`` is None for trace-preserving channels; for channels
    recovered from a conditional with deficient conditioning support it is
    the projector that the Kraus operators resolve instead of the identity.
    """

    shape_in: AlgebraShape
    shape_out: AlgebraShape
    kraus: tuple[np.ndarray, ...]
    input_support: np.ndarray | None = None
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        ops = tuple(np.array(k, dtype=np.complex128, copy=True) for k in self.kraus)
        if not ops:
            raise ShapeMismatch("a channel needs at least one Kraus operator")
        din, dout = self.shape_in.total_dim, self.shape_out.total_dim
        for k in ops:
            if k.shape != (dout, din):
                raise ShapeMismatch(f"Kraus operator shape {k.shape}, expected {(dout, din)}")
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        if self.input_support is not None:
            sup = np.array(self.input_support, dtype=np.complex128, copy=True)
            sup.setflags(write=False)
            object.__setattr__(self, "input_support", sup)
        if check:
            target = np.eye(din)
            if self.input_support is not None:
                target = self.input_support
                if target.shape != (din, din):
                    raise ShapeMismatch(f"input support shape {target.shape} does not fit {din}")
                proj_dev = max(max_abs(target @ target - target), herm_deviation(target))
                if proj_dev > CHANNEL_TP_TOL:
                    raise InvariantViolation("support_projector", proj_dev)
            tp_dev = max_abs(sum(k.conj().T @ k for k in ops) - target)
            if tp_dev > CHANNEL_TP_TOL:
                raise NotTracePreserving(
                    f"sum of K†K deviates from the required resolution by {tp_dev:.3e}"
                )
            choi = _choi_matrix(ops, self.shape_in)
            block_dev = max_abs(choi * ~pair_mask(self.shape_in, self.shape_out))
            if block_dev > CHANNEL_BLOCK_TOL:
                raise InvariantViolation("output_block_support", block_dev)


def apply_matrix(c: Channel, x: np.ndarray) -> np.ndarray:
    """Action of the channel on a raw matrix (no state validation)."""
    return sum(k @ x @ k.conj().T for k in c.kraus)


def apply(c: Channel, s: State) -> State:
    """Apply the channel to a state of the input algebra."""
    if s.shape != c.shape_in:
        raise ShapeMismatch("state does not live on the channel's input algebra")
    return State(c.shape_out, apply_matrix(c, s.matrix))


def identity_channel(shape: AlgebraShape) -> Channel:
    """The identity map on an algebra (block projectors as Kraus operators,
    so reducible algebras dephase between blocks exactly as the pinching does)."""
    return Channel(shape_in=shape, shape_out=shape, kraus=block_projectors(shape))


def max_ent_conditional(shape: AlgebraShape) -> ConditionalState:
    """Maximally entangled conditional of an algebra with itself.

    For an irreducible algebra of dimension d this is the rank-one operator
    built from the sum of |jj> over the construction basis (trace d); for
    general algebras it is the block-pinched variant, one such operator per
    block.
    """
    return ConditionalState(shape_in=shape, shape_out=shape, matrix=max_ent_matrix(shape))


def choi_conditional(c: Channel) -> ConditionalState:
    """Conditional-state form of a channel: act with the channel on the
    conditioned factor of the maximally entangled conditional."""
    return ConditionalState(
        shape_in=c.shape_in,
        shape_out=c.shape_out,
        matrix=_choi_matrix(c.kraus, c.shape_in),
    )


def apply_via_conditional(cond: ConditionalState, s: State) -> np.ndarray:
    """Channel action computed directly from the conditional as the partial
    trace of (max-ent-conditional ⊗ I) (input ⊗ conditional).

    This is the trace-formula route; it must agree with the Kraus route of
    ``channel_from_conditional`` and exists so that tests can require that
    agreement.  Returns the raw output matrix.
    """
    if s.shape != cond.shape_in:
        raise ShapeMismatch("state does not live on the conditional's conditioning algebra")
    din, dout = cond.shape_in.total_dim, cond.shape_out.total_dim
    # Contracting the max-ent factor leaves the pinched transpose of the input
    # on the conditioning index: out[o, r] = Σ ρ[q, p] C[q, o, p, r], p ~ q.
    pinched_t = s.matrix.T * block_mask(cond.shape_in)
    return np.einsum("pq,qopr->or", pinched_t, cond.matrix.reshape(din, dout, din, dout))


def channel_from_conditional(cond: ConditionalState, cutoff: float = KRAUS_CUTOFF) -> Channel:
    """Recover the channel from its conditional-state form.

    Kraus operators come from the eigendecomposition of the conditional,
    keeping eigenvalues above ``cutoff`` relative to the largest.  When the
    conditioning support is a proper projector rather than the identity, the
    returned channel is defined on that support subalgebra and carries it in
    ``input_support``.
    """
    din, dout = cond.shape_in.total_dim, cond.shape_out.total_dim
    support = cond.conditioning_support()
    proj_dev = max_abs(support @ support - support)
    if proj_dev > CHANNEL_TP_TOL:
        raise NotTracePreserving(
            f"conditioning partial trace deviates from a projector by {proj_dev:.3e}"
        )
    full = max_abs(support - np.eye(din)) <= CHANNEL_TP_TOL

    es = herm_eig(cond.matrix)
    top = max(float(es.eigenvalues[0]), 0.0) if es.eigenvalues.size else 0.0
    thresh = max(cutoff * top, RANK_TOL_FLOOR)
    kraus = []
    for lam, vec in zip(es.eigenvalues, es.eigenvectors.T):
        if lam <= thresh:
            continue
        # column index convention: vec[a * dout + b] -> K[b, a]
        kraus.append(np.sqrt(lam) * vec.reshape(din, dout).T)
    if not kraus:
        raise NotTracePreserving("conditional has no spectral weight above the cutoff")
    return Channel(
        shape_in=cond.shape_in,
        shape_out=cond.shape_out,
        kraus=tuple(kraus),
        input_support=None if full else support.T,
    )


def canonical_reduction(c: Channel) -> Channel:
    """Minimal deterministic Kraus set via the conditional-state round trip."""
    return channel_from_conditional(choi_conditional(c))


@dataclass(frozen=True, eq=False)
class ChannelReport:
    """Validation report: deviations rather than booleans, plus verdicts."""

    tp_deviation: float
    choi_min_eigenvalue: float
    block_support_deviation: float
    tol: float
    input_support_flagged: bool

    @property
    def is_trace_preserving(self) -> bool:
        return self.tp_deviation <= self.tol

    @property
    def is_completely_positive(self) -> bool:
        return self.choi_min_eigenvalue >= -self.tol

    @property
    def respects_output_algebra(self) -> bool:
        return self.block_support_deviation <= self.tol

    @property
    def ok(self) -> bool:
        return (
            self.is_trace_preserving
            and self.is_completely_positive
            and self.respects_output_algebra
        )


def validate_channel(c: Channel, tol: float = CHANNEL_TP_TOL) -> ChannelReport:
    """Measure trace preservation, complete positivity (via the minimum
    eigenvalue of the conditional form) and output block support."""
    din = c.shape_in.total_dim
    tp_dev = max_abs(sum(k.conj().T @ k for k in c.kraus) - np.eye(din))
    choi = _choi_matrix(c.kraus, c.shape_in)
    w = herm_eig(choi).eigenvalues
    block_dev = max_abs(choi * ~pair_mask(c.shape_in, c.shape_out))
    return ChannelReport(
        tp_deviation=float(tp_dev),
        choi_min_eigenvalue=float(w[-1]) if w.size else 0.0,
        block_support_deviation=float(block_dev),
        tol=tol,
        input_support_flagged=c.input_support is not None,
    )


def is_isometry(c: Channel, tol: float = 1e-9) -> bool:
    """True iff the conditional form has rank one: a single eigenvalue within
    tol of the trace and the rest within tol of zero."""
    w = herm_eig(choi_conditional(c).matrix).eigenvalues
    if not w.size:
        return False
    trace = float(np.sum(w))
    if abs(float(w[0]) - trace) > tol:
        return False
    return bool(np.all(np.abs(w[1:]) <= tol))
