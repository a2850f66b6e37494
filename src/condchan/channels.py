"""Trace-preserving completely positive maps and their conditional-state form.

A channel is held canonically in Kraus form, as one read-only
``(r, d_out, d_in)`` complex tensor of its r Kraus operators, and as its
superoperator Σ_K K ⊗ K̄: one read-only ``(d_in², d_out²)`` matrix of
16·(d_in·d_out)² bytes (64 KB at d = 8, 1 MB at d = 16), formed once at
construction.  The action on any matrix or stack is one product with it;
the conditional-state (Choi) form, the channel acting on the conditioned
factor of the maximally entangled conditional of the input algebra, is its
entries reordered under the input block mask.  Going back, Kraus operators
are extracted from the eigendecomposition of the conditional with the
project-wide support cutoff and phase convention (see ``matcore``), which
makes the minimal Kraus set deterministic.

For reducible input algebras the maximally entangled conditional is pinched
onto the block diagonal, which bakes the input pinching into the Choi form;
the action on algebra elements is unchanged.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .algebra import (
    AlgebraShape,
    block_index,
    block_mask,
    block_projectors,
    support_deviation,
)
from .conditional import ConditionalState
from .errors import InvariantViolation, ShapeMismatch
from .matcore import herm_eig, herm_eigvals, max_abs
from .states import State
from .tolerances import BLOCK_TOL, IDENTITY_TOL


def max_ent_matrix(shape: AlgebraShape) -> np.ndarray:
    """Unnormalized maximally entangled conditional matrix of an algebra,
    pinched onto the block diagonal (trace = total dimension)."""
    # Σ over blocks of v v† with v = Σ_j |jj> in the block: entry ((j, j), (k, k))
    # is 1 exactly when j and k share a block.
    d = shape.total_dim
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    out[:: d + 1, :: d + 1] = block_mask(shape)
    return out


def _kraus_gram(kraus: np.ndarray) -> np.ndarray:
    """Σ_K K†K over a Kraus tensor, as one product on its (r·d_out, d_in) view."""
    kf = kraus.reshape(-1, kraus.shape[2])
    return kf.conj().T @ kf


def _superoperator(kraus: np.ndarray) -> np.ndarray:
    """Σ_K K ⊗ K̄ as a read-only (d_in², d_out²) matrix: x.ravel() @ it is
    Σ_K K x K† raveled.  It is the unpinched Choi matrix Σ_K vec(K) vec(K)†,
    vec(K)[j * d_out + i] = K[i, j], with both input indices first."""
    r, dout, din = kraus.shape
    vecs = kraus.swapaxes(1, 2).reshape(r, din * dout)
    full = (vecs.T @ vecs.conj()).reshape(din, dout, din, dout)
    out = np.ascontiguousarray(full.transpose(0, 2, 1, 3)).reshape(din * din, dout * dout)
    out.setflags(write=False)
    return out


def _choi_matrix(c: Channel) -> np.ndarray:
    # the unpinched Choi matrix with the input block mask on its slow index
    din, dout = c.shape_in.total_dim, c.shape_out.total_dim
    masked = c._superop * block_mask(c.shape_in).reshape(-1, 1)
    return masked.reshape(din, din, dout, dout).transpose(0, 2, 1, 3).reshape(din * dout, -1)


@dataclass(frozen=True, eq=False)
class Channel:
    """A CP map in Kraus form between two algebras.

    ``kraus`` is one read-only ``(r, d_out, d_in)`` array; iterating it gives
    the Kraus operators, and ``_superop`` holds their superoperator (16 bytes
    per entry, formed also when ``check`` is False).  ``input_support`` is
    None for trace-preserving channels; for channels recovered from a
    conditional with deficient conditioning support it is the projector that
    the Kraus operators resolve instead of the identity.
    """

    shape_in: AlgebraShape
    shape_out: AlgebraShape
    kraus: np.ndarray
    input_support: np.ndarray | None = None
    check: InitVar[bool] = True
    _superop: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, check: bool):
        kraus = self.kraus
        try:
            if not isinstance(kraus, np.ndarray):
                kraus = list(kraus)
            ops = np.array(kraus, dtype=np.complex128, order="C")
        except (TypeError, ValueError) as exc:
            raise ShapeMismatch(f"Kraus operators do not stack into one tensor: {exc}") from exc
        if ops.shape[:1] == (0,):
            raise ShapeMismatch("a channel needs at least one Kraus operator")
        din, dout = self.shape_in.total_dim, self.shape_out.total_dim
        if ops.shape[1:] != (dout, din):
            raise ShapeMismatch(f"Kraus operator shape {ops.shape[1:]}, expected {(dout, din)}")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        if self.input_support is not None:
            sup = np.array(self.input_support, dtype=np.complex128, copy=True)
            sup.setflags(write=False)
            object.__setattr__(self, "input_support", sup)
        if check:
            if not np.isfinite(ops).all():
                raise InvariantViolation("finite", np.inf, "Kraus operators have non-finite entries")
            target = np.eye(din)
            if self.input_support is not None:
                target = self.input_support
                if target.shape != (din, din):
                    raise ShapeMismatch(f"input support shape {target.shape} does not fit {din}")
                proj_dev = max(max_abs(target @ target - target), max_abs(target - target.conj().T))
                if not proj_dev <= IDENTITY_TOL:
                    raise InvariantViolation("support_projector", proj_dev)
            # Finite Kraus operators can still overflow K†K; the deviation is
            # then inf or NaN, which the NaN-safe tests here reject.
            with np.errstate(over="ignore", invalid="ignore"):
                tp_dev = max_abs(_kraus_gram(ops) - target)
            if not tp_dev <= IDENTITY_TOL:
                raise InvariantViolation(
                    "trace_preserving", tp_dev,
                    f"sum of K†K deviates from the required resolution by {tp_dev:.3e}",
                )
        object.__setattr__(self, "_superop", _superoperator(ops))
        if check:
            rows, off = block_mask(self.shape_in).ravel(), ~block_mask(self.shape_out).ravel()
            block_dev = max_abs(self._superop[rows][:, off])  # Choi entries off the pair blocks
            if not block_dev <= IDENTITY_TOL:
                raise InvariantViolation("output_block_support", block_dev)


def apply_matrix(c: Channel, x: np.ndarray) -> np.ndarray:
    """Action of the channel on a raw matrix, or on each matrix of a stack
    (no state validation): one product with the held superoperator."""
    lead, dout = np.shape(x)[:-2], c.shape_out.total_dim
    return (np.reshape(x, (*lead, c._superop.shape[0])) @ c._superop).reshape(*lead, dout, dout)


def apply(c: Channel, s: State) -> State:
    """Apply the channel to a state of the input algebra."""
    if s.shape != c.shape_in:
        raise ShapeMismatch("state does not live on the channel's input algebra")
    return State(c.shape_out, apply_matrix(c, s.matrix))


def identity_channel(shape: AlgebraShape) -> Channel:
    """The identity map on an algebra (block projectors as Kraus operators,
    so reducible algebras dephase between blocks exactly as the pinching does)."""
    return Channel(shape_in=shape, shape_out=shape, kraus=block_projectors(shape))


def choi_conditional(c: Channel) -> ConditionalState:
    """Conditional-state form of a channel: act with the channel on the
    conditioned factor of the maximally entangled conditional."""
    return ConditionalState(
        shape_in=c.shape_in,
        shape_out=c.shape_out,
        matrix=_choi_matrix(c),
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


def channel_from_conditional(cond: ConditionalState) -> Channel:
    """Recover the channel from its conditional-state form.

    Kraus operators come from the eigendecomposition of the conditional,
    one per eigenvalue above its support cutoff; from ``BLOCKWISE_MIN_DIM``
    up it is decomposed per block of the tensor-product algebra, so each
    Kraus operator maps one input block into one output block.  A conditioning
    support other than the identity restricts the channel to its subalgebra and
    is carried in ``input_support``, which ``Channel`` checks is a projector.
    """
    din, dout = cond.shape_in.total_dim, cond.shape_out.total_dim
    support = cond.conditioning_support()
    full = max_abs(support - np.eye(din)) <= IDENTITY_TOL

    es = herm_eig(cond.matrix, block_index(cond.shape_in, cond.shape_out))
    keep = es.kept
    if not keep.any():
        raise InvariantViolation("spectral_weight", es.eigenvalues[0],
                                 "conditional has no spectral weight above the cutoff")
    # column index convention: vec[a * dout + b] -> K[b, a]
    vecs = es.eigenvectors.T[keep] * np.sqrt(es.eigenvalues[keep])[:, None]
    kraus = vecs.reshape(-1, din, dout).swapaxes(1, 2)
    return Channel(
        shape_in=cond.shape_in,
        shape_out=cond.shape_out,
        kraus=kraus,
        input_support=None if full else support.T,
    )


def canonical_reduction(c: Channel) -> Channel:
    """Minimal deterministic Kraus set via the conditional-state round trip."""
    return channel_from_conditional(choi_conditional(c))


@dataclass(frozen=True, eq=False)
class ChannelReport:
    """Validation report: deviations rather than booleans, and one verdict."""

    tp_deviation: float
    choi_min_eigenvalue: float
    block_support_deviation: float
    input_support_flagged: bool

    @property
    def ok(self) -> bool:
        """Trace preserving, completely positive and inside the output
        algebra, each within ``IDENTITY_TOL``."""
        return (
            self.tp_deviation <= IDENTITY_TOL
            and self.choi_min_eigenvalue >= -IDENTITY_TOL
            and self.block_support_deviation <= IDENTITY_TOL
        )


def _choi_spectrum(c: Channel) -> tuple[np.ndarray, float]:
    """Eigenvalues of the Choi matrix, descending, and its largest entry off
    the pair blocks.  The spectrum is taken per block unless that entry
    exceeds ``BLOCK_TOL`` (a channel accepts up to ``IDENTITY_TOL``); then
    the whole matrix is decomposed, leak included."""
    choi = _choi_matrix(c)
    leak = support_deviation(choi, c.shape_in, c.shape_out)
    blocks = block_index(c.shape_in, c.shape_out) if leak <= BLOCK_TOL else None
    return herm_eigvals(choi, blocks), leak


def validate_channel(c: Channel) -> ChannelReport:
    """Measure trace preservation, complete positivity (via the minimum
    eigenvalue of the conditional form) and output block support."""
    tp_dev = max_abs(_kraus_gram(c.kraus) - np.eye(c.shape_in.total_dim))
    w, block_dev = _choi_spectrum(c)
    return ChannelReport(
        tp_deviation=float(tp_dev),
        choi_min_eigenvalue=float(w[-1]) if w.size else 0.0,
        block_support_deviation=float(block_dev),
        input_support_flagged=c.input_support is not None,
    )


def is_isometry(c: Channel, tol: float = IDENTITY_TOL) -> bool:
    """True iff the conditional form has rank one: a single eigenvalue within
    tol of the trace and the rest within tol of zero."""
    w = _choi_spectrum(c)[0]
    if not w.size:
        return False
    trace = float(np.sum(w))
    if abs(float(w[0]) - trace) > tol:
        return False
    return bool(np.all(np.abs(w[1:]) <= tol))
