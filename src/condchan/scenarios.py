"""Executable scenarios tying the pieces together.

Two operational readings of the channel/conditional correspondence are made
runnable here:

* ``verify_theorem`` checks that local measurements on a joint state give
  the same outcome statistics as a prepare-evolve-measure experiment built
  from the transposed marginal and the reconstructed channel;
* ``teleport`` / ``teleport_classical`` run noisy-gate teleportation with a
  maximally entangled measurement, including the classical-bit degeneration
  where grouping parity outcomes doubles the success probability and the
  protocol becomes a one-time pad.  The generalized Bell basis is never
  formed: every effect is rank one, and what it leaves on the resource's
  input half is a rolled and phased copy of the transposed input, so all
  d² reductions take O(d⁴) memory.  An explicit basis is validated as a
  ``POVM`` and contracted with the input in one product.  The branch states
  (and the identity channel's corrected states) are normalized and
  validated as one stack, and the channel's conditional form is built and
  validated once per run.

Also home to the seeded random generators for states, channels, POVMs and
unitaries used by the test suites and the CLI selftest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraShape, block_mask, block_projectors, pair_mask
from .channels import (
    Channel,
    apply_matrix,
    channel_from_conditional,
    choi_conditional,
    max_ent_matrix,
)
from .conditional import ConditionalState, _condition
from .errors import BasisNotPOVM, DimensionMismatch, ShapeMismatch
from .matcore import _fix_phases, gen_inv_sqrt, hermitize, kron, max_abs
from .povm import POVM
from .states import JointState, State, states_from_stack
from .tolerances import IDENTITY_TOL, NEGLIGIBLE


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Both joint outcome distributions and their largest disagreement."""

    lhs: np.ndarray
    rhs: np.ndarray
    max_deviation: float
    support_restricted: bool

    def distributions_valid(self, tol: float = IDENTITY_TOL) -> bool:
        # written so that a NaN entry fails both tests
        for mat in (self.lhs, self.rhs):
            if not float(mat.min()) >= -tol:
                return False
            if not abs(float(mat.sum()) - 1.0) <= tol:
                return False
        return True


@dataclass(frozen=True, eq=False)
class TeleportReport:
    """Outcome statistics and Bob's conditional states, per branch."""

    success_probability: float
    outcome_probabilities: np.ndarray
    success_index: int
    bob_state_on_success: State
    branch_states: tuple[State | None, ...]
    corrected_states: tuple[State | None, ...] | None
    grouping_used: bool


def verify_theorem(j: JointState, n: POVM, m: POVM) -> TheoremReport:
    """Compare local-measurement statistics against the prepare-and-measure
    reconstruction.

    The left side measures n (x) m on the joint state directly.  The right
    side reduces the joint state, conditions on that side, rebuilds the
    channel, and runs an n-transpose preparation of the transposed marginal
    through it before measuring m.  Transposes are entry-wise in the fixed
    embedding basis, the same basis the correspondence itself uses.
    """
    if n.shape != j.shape_a:
        raise ShapeMismatch("POVM n must live on the first factor of the joint state")
    if m.shape != j.shape_b:
        raise ShapeMismatch("POVM m must live on the second factor of the joint state")
    da, db = j.shape_a.total_dim, j.shape_b.total_dim
    ns, ms = np.stack(n.elements), np.stack(m.elements)
    # Tr((N_j ⊗ M_k) ρ) for all pairs: Σ N_j[a, x] ρ[x, y, a, b] M_k[b, y], two products
    rho = j.matrix.reshape(da, db, da, db).transpose(2, 0, 3, 1).reshape(da * da, db * db)
    lhs = (ns.reshape(len(ns), -1) @ rho @ ms.reshape(len(ms), -1).T).real

    cond, marg_a = _condition(j, "a")
    chan = channel_from_conditional(cond)
    root_t = marg_a.root().T  # the root of the transposed marginal
    # prepare with every N_j transposed, evolve the stack, then Tr(M_k ·) per pair
    evolved = apply_matrix(chan, root_t @ ns.swapaxes(1, 2) @ root_t)
    rhs = np.trace(ms @ evolved[:, None], axis1=2, axis2=3).real

    return TheoremReport(
        lhs=lhs,
        rhs=rhs,
        max_deviation=float(np.max(np.abs(lhs - rhs))),
        support_restricted=chan.input_support is not None,
    )


def _weyl_operators(dim: int) -> np.ndarray:
    """All dim^2 shift-and-phase unitaries X^a Z^b on C^dim as one
    (dim^2, dim, dim) stack, indexed a * dim + b."""
    j = np.arange(dim)
    # X^a[i, j] = 1 exactly when i = j + a (mod dim); Z^b = diag(ω^(b j))
    shifts = np.eye(dim)[(j[None, :] - j[:, None]) % dim]
    phases = np.exp(2j * np.pi * (np.outer(j, j) % dim) / dim)
    return (shifts[:, None] * phases[None, :, None, :]).reshape(dim * dim, dim, dim)


def bell_basis(dim: int) -> tuple[np.ndarray, ...]:
    """The dim^2 maximally entangled rank-one effects, ordered so that the
    plain maximally entangled projector comes first."""
    # (I ⊗ W) Σ_j |jj> / √d has entry W[i, j] / √d at index j * dim + i
    vecs = _weyl_operators(dim).swapaxes(1, 2).reshape(dim * dim, -1) / np.sqrt(dim)
    return tuple(vecs[:, :, None] * vecs[:, None, :].conj())


def _bell_reduced(rho: np.ndarray) -> np.ndarray:
    """What each Bell effect leaves on the resource's input half: the
    operators F_ab = W_ab ρᵀ W_ab† / d, one flattened (d, d) operator per row
    of a (d², d²) array, indexed a * d + b as ``bell_basis``.

    Entry-wise F_ab[i, j] = ω^(b(i−j)) ρᵀ[i−a, j−a] / d, so each row is a
    roll of ρᵀ times a phase: O(d⁴) memory, and no effect is formed."""
    d = rho.shape[0]
    j = np.arange(d)
    back = (j - j[:, None]) % d  # back[a, i] = i − a (mod d)
    rolled = rho.T[back[:, :, None], back[:, None, :]]
    omega = np.exp(2j * np.pi * j / d) / d
    phases = omega[j[:, None, None] * back.T % d]  # [b, i, j]: ω^(b(i−j)) / d
    return (rolled[:, None] * phases).reshape(d * d, d * d)


def _success_index(effects: np.ndarray, d: int) -> int:
    """Index of the first effect within ``IDENTITY_TOL`` of the normalized
    maximally entangled projector on C^d ⊗ C^d."""
    target = max_ent_matrix(AlgebraShape((d,))) / d
    matches = np.flatnonzero(np.abs(effects - target).max(axis=(1, 2)) <= IDENTITY_TOL)
    if not matches.size:
        raise BasisNotPOVM("basis does not contain the maximally entangled success effect")
    return int(matches[0])


def _groups_outcomes(effects: np.ndarray) -> bool:
    """Whether some effect has rank above one: Tr(E)² > Tr(E²) beyond
    rounding, which holds for a positive E exactly when it is not rank one."""
    traces = np.trace(effects, axis1=1, axis2=2).real
    squares = (effects.real**2 + effects.imag**2).sum(axis=(1, 2))
    return bool(np.any(traces**2 - squares > NEGLIGIBLE * traces**2))


def _run_branches(reduced: np.ndarray, resource_matrix: np.ndarray, shape_out: AlgebraShape):
    # each row of ``reduced`` is an operator F on the resource's input half;
    # the branch is Σ F[a, b] R[b, o, a, r], one product on a reordered view
    dim_out = shape_out.total_dim
    d = resource_matrix.shape[0] // dim_out
    resource = resource_matrix.reshape(d, dim_out, d, dim_out).transpose(2, 0, 1, 3)
    unnormalized = (reduced @ resource.reshape(d * d, -1)).reshape(-1, dim_out, dim_out)
    probs = np.trace(unnormalized, axis1=1, axis2=2).real
    kept = probs > NEGLIGIBLE
    branches = hermitize(unnormalized[kept] / probs[kept, None, None])
    return probs, _states_where(kept, shape_out, branches)


def _states_where(kept, shape: AlgebraShape, matrices: np.ndarray) -> list[State | None]:
    """One State per kept position, validated as one stack; None elsewhere."""
    states = iter(states_from_stack(shape, matrices))
    return [next(states) if k else None for k in kept]


def _acts_as_identity(cond: ConditionalState) -> bool:
    if cond.shape_in != cond.shape_out:
        return False
    return max_abs(cond.matrix - max_ent_matrix(cond.shape_in)) <= IDENTITY_TOL


def _run_protocol(
    cond: ConditionalState, reduced: np.ndarray, success: int, grouping_used: bool
) -> TeleportReport:
    """Contract the input-side reductions with the resource built from the
    channel's conditional form; report every branch."""
    if not 0 <= success < len(reduced):
        raise BasisNotPOVM(f"success index {success} out of range")
    resource = cond.matrix / cond.shape_in.total_dim
    probs, branches = _run_branches(reduced, resource, cond.shape_out)
    bob = branches[success]
    if bob is None:
        raise BasisNotPOVM("success outcome has vanishing probability")
    return TeleportReport(
        success_probability=float(probs[success]),
        outcome_probabilities=probs,
        success_index=success,
        bob_state_on_success=bob,
        branch_states=tuple(branches),
        corrected_states=None,
        grouping_used=grouping_used,
    )


def _corrected(report: TeleportReport, unitaries: np.ndarray, shape: AlgebraShape):
    """``report`` with each kept branch conjugated by its correction unitary,
    validated as one stack."""
    kept = [b is not None for b in report.branch_states]
    u = unitaries[kept]
    branches = np.stack([b.matrix for b in report.branch_states if b is not None])
    corrected = hermitize(u @ branches @ u.conj().swapaxes(1, 2))
    return replace(report, corrected_states=tuple(_states_where(kept, shape, corrected)))


def _check_input(c: Channel, input_state: State) -> None:
    if input_state.shape != c.shape_in:
        raise ShapeMismatch("input state does not live on the channel's input algebra")


def teleport(
    c: Channel,
    input_state: State,
    measurement_basis=None,
    success_index: int | None = None,
) -> TeleportReport:
    """Noisy-gate teleportation: measure the input together with the input
    half of the resource, the joint state of the channel's conditional form
    and a maximally mixed marginal.

    The default basis is the generalized Bell basis, on an irreducible input
    algebra; its effects are never formed (``_bell_reduced``).  Its success
    outcome, index 0, has probability 1/d^2 whatever the channel and input,
    and leaves Bob with the channel applied to the input.  For the identity
    channel every outcome's correction is applied (``corrected_states``).

    An explicit ``measurement_basis`` works over any input algebra and is
    validated as a ``POVM`` on the input pair.  ``success_index`` defaults
    to its first effect within ``IDENTITY_TOL`` of the normalized maximally
    entangled projector; ``grouping_used`` says whether an effect has rank
    above one.
    """
    _check_input(c, input_state)
    d = c.shape_in.total_dim
    canonical = measurement_basis is None
    if canonical:
        if not c.shape_in.is_irreducible:
            raise ShapeMismatch("the Bell basis needs an irreducible input algebra; pass a basis")
        reduced, grouping_used = _bell_reduced(input_state.matrix), False
    else:
        effects = np.stack(POVM(AlgebraShape((d * d,)), tuple(measurement_basis)).elements)
        n = len(effects)
        # F_i[a, b] = Σ E_i[x, a, y, b] ρ[y, x], one product on a reordered view
        stacked = effects.reshape(n, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(n * d * d, -1)
        reduced = (stacked @ input_state.matrix.T.ravel()).reshape(n, d * d)
        grouping_used = _groups_outcomes(effects)
    if success_index is not None:
        success = int(success_index)
    else:
        success = 0 if canonical else _success_index(effects, d)
    cond = choi_conditional(c)
    report = _run_protocol(cond, reduced, success, grouping_used)

    if canonical and _acts_as_identity(cond):
        # outcome a * d + b is undone by W_ab^T, the conjugate of its Weyl operator
        return _corrected(report, _weyl_operators(d).swapaxes(1, 2), c.shape_out)
    return report


CLASSICAL_BIT = AlgebraShape((1, 1))


def teleport_classical(c: Channel, input_state: State) -> TeleportReport:
    """Teleportation over the classical bit algebra with parity grouping.

    The four maximally entangled effects collapse pairwise under the block
    pinching, so Alice's measurement degenerates to a parity check with two
    outcomes of probability 1/2 each: the Bell outcomes grouped by their
    shift a.  The success branch outputs the channel applied to the input;
    for the identity channel the failure branch is corrected by a bit flip,
    which is exactly one-time-pad decryption.
    """
    if c.shape_in != CLASSICAL_BIT:
        raise ShapeMismatch("teleport_classical needs the two-block classical bit algebra")
    _check_input(c, input_state)
    cond = choi_conditional(c)
    reduced = _bell_reduced(input_state.matrix).reshape(2, 2, 4).sum(1)
    report = _run_protocol(cond, reduced, 0, grouping_used=True)
    if _acts_as_identity(cond):
        # outcome a is undone by the bit flip X^a: one-time-pad decryption
        return _corrected(report, _weyl_operators(2)[::2], c.shape_out)
    return report


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------


def _gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-style random unitary: QR of a Gaussian matrix with each column's
    phase fixed by the project-wide convention."""
    q, r = np.linalg.qr(_gaussian_matrix(rng, dim, dim))
    return _fix_phases(q * (np.diag(r) / np.abs(np.diag(r))))


def random_block_unitary(shape: AlgebraShape, rng: np.random.Generator) -> np.ndarray:
    """Unitary inside the algebra: an independent random unitary per block."""
    d = shape.total_dim
    out = np.zeros((d, d), dtype=np.complex128)
    for sl in shape.block_slices():
        out[sl, sl] = random_unitary(sl.stop - sl.start, rng)
    return out


def random_state(shape: AlgebraShape, rng: np.random.Generator) -> State:
    """Wishart-style state pinched onto the algebra and renormalized."""
    d = shape.total_dim
    g = _gaussian_matrix(rng, d, d)
    rho = hermitize((g @ g.conj().T) * block_mask(shape))
    return State(shape, rho / np.trace(rho).real)


def random_support_projector(
    shape: AlgebraShape, rank: int, rng: np.random.Generator
) -> np.ndarray:
    """Rank-``rank`` projector inside the algebra (block-diagonal)."""
    d = shape.total_dim
    if not 1 <= rank <= d:
        raise DimensionMismatch(f"rank must lie in [1, {d}], got {rank}")
    u = random_block_unitary(shape, rng)
    picked = rng.choice(d, size=rank, replace=False)
    diag = np.zeros(d)
    diag[picked] = 1.0
    return hermitize((u * diag) @ u.conj().T)


def random_joint_state(
    shape_a: AlgebraShape,
    shape_b: AlgebraShape,
    rng: np.random.Generator,
    rank_a: int | None = None,
) -> JointState:
    """Random state on the tensor algebra; ``rank_a`` caps the rank of the
    first marginal by sandwiching with a random support projector."""
    d = shape_a.total_dim * shape_b.total_dim
    g = _gaussian_matrix(rng, d, d)
    rho = hermitize((g @ g.conj().T) * pair_mask(shape_a, shape_b))
    if rank_a is not None:
        proj = kron(
            random_support_projector(shape_a, rank_a, rng), np.eye(shape_b.total_dim)
        )
        rho = hermitize(proj @ rho @ proj)
    return JointState(shape_a, shape_b, rho / np.trace(rho).real)


def random_channel(
    shape_in: AlgebraShape,
    shape_out: AlgebraShape,
    env_dim: int,
    rng: np.random.Generator,
) -> Channel:
    """Random channel from an isometry into output (x) environment, with the
    environment traced out and the output pinched onto its algebra."""
    d_in, d_out = shape_in.total_dim, shape_out.total_dim
    if d_out * env_dim < d_in:
        raise DimensionMismatch(
            f"output dim {d_out} x environment {env_dim} cannot fit input dim {d_in}"
        )
    g = _gaussian_matrix(rng, d_out * env_dim, d_in)
    isometry, r = np.linalg.qr(g)
    isometry = isometry * (np.diag(r) / np.abs(np.diag(r)))
    kraus = []
    for e in range(env_dim):
        block = isometry.reshape(d_out, env_dim, d_in)[:, e, :]
        for p in block_projectors(shape_out):
            kraus.append(p @ block)
    return Channel(shape_in=shape_in, shape_out=shape_out, kraus=tuple(kraus))


def random_povm(shape: AlgebraShape, k: int, rng: np.random.Generator) -> POVM:
    """Random POVM with ``k`` outcomes: normalize random PSD algebra elements
    by the inverse square root of their sum."""
    if k < 1:
        raise DimensionMismatch("a POVM needs at least one element")
    d = shape.total_dim
    mask = block_mask(shape)
    raw = []
    for _ in range(k):
        g = _gaussian_matrix(rng, d, d)
        wishart = hermitize((g @ g.conj().T) * mask)
        # small ridge keeps the sum well conditioned for the inverse root
        raw.append(wishart + (0.05 * np.trace(wishart).real / d) * np.eye(d))
    inv = gen_inv_sqrt(sum(raw))
    elements = [inv @ a @ inv for a in raw]
    slack = np.eye(d) - sum(elements)
    if max_abs(slack) > NEGLIGIBLE:
        elements[-1] = elements[-1] + slack
    return POVM(shape=shape, elements=tuple(elements))
