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

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraShape, block_projectors, choi_leak_index, layout
from .conditional import ConditionalState, _restricted_support
from .errors import InvariantViolation, ShapeMismatch
from .matcore import _as_stack, _valid_eig, as_matrix, herm_eig, identity, max_abs, projector_deviation
from .states import State, _trusted
from .tolerances import BLOCK_TOL, IDENTITY_TOL, INPUT_TOL, _apply_rounding


def max_ent_matrix(shape: AlgebraShape) -> np.ndarray:
    """Unnormalized maximally entangled conditional matrix of an algebra,
    pinched onto the block diagonal (trace = total dimension)."""
    # Σ over blocks of v v† with v = Σ_j |jj> in the block: entry ((j, j), (k, k))
    # is 1 exactly when j and k share a block.
    d = shape.total_dim
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    out[:: d + 1, :: d + 1] = layout(shape).mask
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
    masked = c._superop * layout(c.shape_in).mask.reshape(-1, 1)
    return masked.reshape(din, din, dout, dout).transpose(0, 2, 1, 3).reshape(din * dout, -1)


@dataclass(frozen=True, eq=False)
class Channel:
    """A TPCP map in Kraus form between two algebras, valid by construction.

    ``kraus`` is one read-only ``(r, d_out, d_in)`` array; iterating it gives
    the Kraus operators, and ``_superop`` holds their superoperator (16 bytes
    per entry).  ``input_support`` is None for trace-preserving channels; for
    channels recovered from a conditional with deficient conditioning support
    it is the projector that the Kraus operators resolve instead of the
    identity.  The constructor measures what makes the map valid and raises
    ``InvariantViolation`` on non-finite entries, on an input support that is
    not a projector, on Σ K†K off the identity or the support
    (``trace_preserving``) and on Choi entries off the pair blocks
    (``output_block_support``), each deviation judged at ``IDENTITY_TOL``.  A
    Kraus form is CP, so its Choi matrix is PSD but for rounding.
    """

    shape_in: AlgebraShape
    shape_out: AlgebraShape
    kraus: np.ndarray
    input_support: np.ndarray | None = None
    _superop: np.ndarray = field(init=False, repr=False)
    _certifies = False  # whether ``apply`` and ``choi_conditional`` may skip judging their outputs

    def __post_init__(self):
        try:
            ops = _as_stack(self.kraus)
        except (TypeError, ValueError) as exc:
            raise ShapeMismatch(f"Kraus operators do not stack into one tensor: {exc}") from exc
        if ops.shape[:1] == (0,):
            raise ShapeMismatch("a channel needs at least one Kraus operator")
        din, dout = self.shape_in.total_dim, self.shape_out.total_dim
        if ops.shape[1:] != (dout, din):
            raise ShapeMismatch(f"Kraus operator shape {ops.shape[1:]}, expected {(dout, din)}")
        if not np.isfinite(ops).all():
            raise InvariantViolation("finite", np.inf, "Kraus operators have non-finite entries")
        if (support := self.input_support) is not None:
            support = as_matrix(support)
            if support.shape != (din, din):
                raise ShapeMismatch(f"input support shape {support.shape} does not fit {din}")
            if not np.isfinite(support).all():
                raise InvariantViolation("finite", np.inf, "input support has non-finite entries")
            if not (proj_dev := projector_deviation(support)) <= IDENTITY_TOL:
                raise InvariantViolation("support_projector", proj_dev)
        self._measure(ops, support)

    def _measure(self, ops: np.ndarray, support: np.ndarray | None) -> None:
        """Take over fresh read-only ``ops`` and ``support``, and measure all the certificate reads:
        Σ K†K (``trace_preserving``), the superoperator, its Choi leak (``output_block_support``)."""
        din, dout = self.shape_in.total_dim, self.shape_out.total_dim
        # finite Kraus operators can still overflow K†K, to inf or NaN, which the tests here reject
        with np.errstate(over="ignore", invalid="ignore"):
            tp_dev = max_abs(_kraus_gram(ops) - (identity(din) if support is None else support))
        if not tp_dev <= IDENTITY_TOL:
            raise InvariantViolation("trace_preserving", tp_dev,
                                     f"sum of K†K deviates from the required resolution by {tp_dev:.3e}")
        # attribute by attribute, as ``__init__`` sets them: a materialized ``__dict__`` slows every read
        for name, value in ("kraus", ops), ("input_support", support), ("_superop", _superoperator(ops)):
            object.__setattr__(self, name, value)
        leak = choi_leak_index(self.shape_in, self.shape_out)
        block_dev = 0.0 if leak is None else max_abs(self._superop.take(leak))
        if not block_dev <= IDENTITY_TOL:
            raise InvariantViolation("output_block_support", block_dev)
        if (support is None and din * tp_dev <= INPUT_TOL / 4  # see ``apply``
                and din * din * block_dev <= BLOCK_TOL / 4
                and _apply_rounding(din, dout, len(ops)) <= INPUT_TOL / 4):
            object.__setattr__(self, "_certifies", True)


def apply_matrix(c: Channel, x: np.ndarray) -> np.ndarray:
    """Action of the channel on a raw matrix, or on each matrix of a stack
    (no state validation): one product with the held superoperator."""
    x = np.asarray(x)
    lead, dout = x.shape[:-2], c.shape_out.total_dim
    return (x.reshape(*lead, c._superop.shape[0]) @ c._superop).reshape(*lead, dout, dout)


def apply(c: Channel, s: State) -> State:
    """Apply the channel to a state of the input algebra.

    The output is judged as any state is, unless the state's floor is 0.0, proved definite
    by the compiled scalar proof (``matcore._proves_definite``, d_in ≤ ``SCALAR_MAX_DIM`` = 6),
    and the channel has no input support, d_in·tp_dev ≤ INPUT_TOL/4, d_in²·(Choi leak) ≤
    BLOCK_TOL/4 and the rounding bound ``tolerances._apply_rounding`` ≤ INPUT_TOL/4.  The
    output then passes the judge: Hermitian but for rounding, trace within tdev + d_in·tp_dev
    + rounding, leak within BLOCK_TOL/4, and Φ(ρ) ≽ λmin(ρ)·Φ(I) ≽ 0 (a Kraus form is CP).
    It is then built by ``_trusted`` with floor inf, so an ``apply`` to it judges it."""
    if s.shape is not c.shape_in and s.shape != c.shape_in:
        raise ShapeMismatch("state does not live on the channel's input algebra")
    dout = c.shape_out.total_dim  # ``apply_matrix``'s product, without its leading-axis handling
    out = (s.matrix.ravel() @ c._superop).reshape(dout, dout)
    if c._certifies and s.floor == 0.0:
        return _trusted(State, c.shape_out, out, floor=np.inf)
    return State(c.shape_out, out)


def identity_channel(shape: AlgebraShape) -> Channel:
    """The identity map on an algebra (block projectors as Kraus operators,
    so reducible algebras dephase between blocks exactly as the pinching does)."""
    return Channel(shape_in=shape, shape_out=shape, kraus=block_projectors(shape))


def choi_conditional(c: Channel) -> ConditionalState:
    """Conditional-state form of a channel: act with the channel on the
    conditioned factor of the maximally entangled conditional.

    Built by ``_trusted``, floor inf, for a certified channel, at any size:
    C = mask∘Σ vec(K) vec(K)† is PSD but for rounding ‖E‖₂ ≤ γ_r·tr(Σ K†K) ≤
    ``_apply_rounding`` ≤ INPUT_TOL/4, so C is Hermitian within that and λmin(C) ≥ -INPUT_TOL/4,
    which the judged path accepts; its leak is the Choi leak, ≤ BLOCK_TOL/(4·d_in²); its
    support (Σ K†K)ᵀ∘mask is within INPUT_TOL/(2·d_in) ≤ IDENTITY_TOL of I: unrestricted."""
    choi = _choi_matrix(c)
    if c._certifies:
        return _trusted(ConditionalState, c.shape_in, c.shape_out, choi, floor=np.inf,
                        _restricted=None)
    return ConditionalState(c.shape_in, c.shape_out, choi)


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
    pinched_t = s.matrix.T * layout(cond.shape_in).mask
    return np.einsum("pq,qopr->or", pinched_t, cond.matrix.reshape(din, dout, din, dout))


def channel_from_conditional(cond: ConditionalState) -> Channel:
    """Recover the channel from its conditional-state form.

    Kraus operators come from the eigendecomposition of the conditional, judged or proved valid
    when built and not judged again, one per eigenvalue above its support cutoff; from
    ``BLOCKWISE_MIN_DIM`` up it is decomposed per block of the tensor-product algebra, so each
    Kraus operator maps one input block into one output block.  A conditioning support other
    than the identity restricts the channel to its subalgebra and is carried in ``input_support``.
    The channel is built as ``_trusted`` builds: its Kraus tensor is finite and fits, and its
    support passed the projector test (here, if built unchecked), so only ``Channel._measure`` runs.
    """
    din, dout = cond.shape_in.total_dim, cond.shape_out.total_dim
    support = _restricted_support(cond)
    if support is not None and "_support" not in vars(cond):  # built unchecked: test it here
        cond._require_projector_support()
    es = _valid_eig(cond.matrix, layout(cond.shape_in, cond.shape_out))
    rank = es.rank  # the spectrum descends: the kept eigenvalues come first
    if not rank:
        raise InvariantViolation("spectral_weight", es.eigenvalues[0],
                                 "conditional has no spectral weight above the cutoff")
    # column index convention: vec[a * dout + b] -> K[b, a]
    vecs = es.eigenvectors.T[:rank] * np.sqrt(es.eigenvalues[:rank])[:, None]
    channel = object.__new__(Channel)  # as ``_trusted`` builds: the spectrum proves the inputs
    object.__setattr__(channel, "shape_in", cond.shape_in)
    object.__setattr__(channel, "shape_out", cond.shape_out)
    kraus = _as_stack(vecs.reshape(-1, din, dout).swapaxes(1, 2))
    channel._measure(kraus, None if support is None else as_matrix(support.T))
    return channel


def canonical_reduction(c: Channel) -> Channel:
    """Minimal deterministic Kraus set via the conditional-state round trip."""
    return channel_from_conditional(choi_conditional(c))


def is_isometry(c: Channel) -> bool:
    """True iff the Choi matrix has rank one: of the eigenvalues of one ``herm_eig``
    of the whole matrix, the largest is within ``IDENTITY_TOL`` of their sum and
    the rest within it of zero.  A channel on a reducible input algebra is never
    an isometry: its pinched Choi matrix has rank at least one per input block."""
    w = herm_eig(_choi_matrix(c)).eigenvalues  # judged: a Choi matrix that no constructor built
    top_dev, rest_dev = abs(float(w[0]) - float(np.sum(w))), max_abs(w[1:])
    return top_dev <= IDENTITY_TOL and rest_dev <= IDENTITY_TOL
