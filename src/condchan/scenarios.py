"""Executable scenarios tying the pieces together.

Two operational readings of the channel/conditional correspondence are made
runnable here:

* ``verify_theorem`` checks that local measurements on a joint state give
  the same outcome statistics as a preparation from the transposed marginal,
  evolved by the conditional's Jamiołkowski action (the transposes cancel);
* ``teleport`` runs noisy-gate teleportation with the maximally entangled
  measurement its input algebra picks: the Bell basis on an irreducible
  algebra, and on the classical bit the parity route, where the Bell
  outcomes grouped by their shift double the success probability and the
  protocol becomes a one-time pad.  The generalized Bell basis is never
  formed: every effect is rank one, and what it leaves on the resource's
  input half is a rolled and phased copy of the transposed input, so all
  d² reductions take O(d⁴) memory.  An explicit basis is validated as a
  ``POVM`` and contracted with the input in one product.  Only the success
  branch is built and judged as a state (the identity channel's corrected
  states as one stack), and the channel's conditional form is built once
  per run, validated unless the channel certifies.

Also home to the seeded random generators for states, channels, POVMs and
unitaries used by the test suites and the CLI selftest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AlgebraShape, block_projectors, is_integer, layout
from .channels import Channel, choi_conditional, max_ent_matrix
from .conditional import ConditionalState, _condition, _restricted_support
from .errors import InvariantViolation, ShapeMismatch
from .matcore import _fix_phases, herm_eig, hermitize, kron, max_abs
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

    def distributions_valid(self) -> bool:
        # judged at IDENTITY_TOL, written so that a NaN entry fails both tests
        for mat in (self.lhs, self.rhs):
            if not float(mat.min()) >= -IDENTITY_TOL:
                return False
            if not abs(float(mat.sum()) - 1.0) <= IDENTITY_TOL:
                return False
        return True


@dataclass(frozen=True, eq=False)
class TeleportReport:
    """Outcome statistics, Bob's state on success and the identity channel's corrected states."""

    success_probability: float
    outcome_probabilities: np.ndarray
    success_index: int
    bob_state_on_success: State
    corrected_states: tuple[State | None, ...] | None
    grouping_used: bool


def _pair_expectations(xs: np.ndarray, matrix: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Tr((X_j ⊗ M_k) C) for all pairs of two stacks, C on kron(a, b) with a slow:
    Σ X_j[a, x] C[x, y, a, b] M_k[b, y], two products on a reordered view of C."""
    da, db = xs.shape[1], ms.shape[1]
    c = matrix.reshape(da, db, da, db).transpose(2, 0, 3, 1).reshape(da * da, db * db)
    return (xs.reshape(len(xs), -1) @ c @ ms.reshape(len(ms), -1).T).real


def verify_theorem(j: JointState, n: POVM, m: POVM) -> TheoremReport:
    """Compare local-measurement statistics against the prepare-and-measure
    reconstruction.

    The left side measures n (x) m on the joint state.  The right side prepares
    σ_j = √ρ_Aᵀ N_jᵀ √ρ_Aᵀ from the transposed marginal, evolves it by the
    Jamiołkowski action E(σ) = Tr_A[(σᵀ ⊗ I) ρ_{B|A}] of the conditional on A, and
    measures m.  Both transposes are entry-wise in the fixed embedding basis and
    cancel: the right side is the left side's contraction with (√ρ_A N_j √ρ_A,
    ρ_{B|A}) in place of (N_j, ρ_AB).  ρ_{B|A} may skip its judge (``_condition``).
    """
    if n.shape != j.shape_a:
        raise ShapeMismatch("POVM n must live on the first factor of the joint state")
    if m.shape != j.shape_b:
        raise ShapeMismatch("POVM m must live on the second factor of the joint state")
    lhs = _pair_expectations(n.elements, j.matrix, m.elements)
    cond, marg_a = _condition(j, "a")
    root = marg_a.root()
    rhs = _pair_expectations(root @ n.elements @ root, cond.matrix, m.elements)
    return TheoremReport(
        lhs=lhs,
        rhs=rhs,
        max_deviation=float(np.max(np.abs(lhs - rhs))),
        support_restricted=_restricted_support(cond) is not None,
    )


def _weyl_operators(dim: int) -> np.ndarray:
    """All dim^2 shift-and-phase unitaries X^a Z^b on C^dim as one
    (dim^2, dim, dim) stack, indexed a * dim + b."""
    j = np.arange(dim)
    # X^a[i, j] = 1 exactly when i = j + a (mod dim); Z^b = diag(ω^(b j))
    shifts = np.eye(dim)[(j[None, :] - j[:, None]) % dim]
    phases = np.exp(2j * np.pi * (np.outer(j, j) % dim) / dim)
    return (shifts[:, None] * phases[None, :, None, :]).reshape(dim * dim, dim, dim)


@lru_cache(maxsize=16)
def _bell_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The index and phase tables of ``_bell_reduced`` on C^d (cached, read-only)."""
    j = np.arange(d)
    back = (j - j[:, None]) % d  # back[a, i] = i − a (mod d)
    rolled = back[:, None, :] * d + back[:, :, None]  # [a, i, j]: where ρᵀ[i−a, j−a] is in ρ
    omega = np.exp(2j * np.pi * j / d) / d
    phases = omega[j[:, None, None] * back.T % d]  # [b, i, j]: ω^(b(i−j)) / d
    for table in (rolled, phases):
        table.setflags(write=False)
    return rolled, phases


def _bell_reduced(rho: np.ndarray) -> np.ndarray:
    """What each Bell effect leaves on the resource's input half: the
    operators F_ab = W_ab ρᵀ W_ab† / d, one flattened (d, d) operator per row
    of a (d², d²) array, indexed a * d + b as ``_weyl_operators``.

    Entry-wise F_ab[i, j] = ω^(b(i−j)) ρᵀ[i−a, j−a] / d, so each row is a
    roll of ρᵀ times a phase: O(d⁴) memory, and no effect is formed."""
    d = rho.shape[0]
    rolled, phases = _bell_tables(d)
    return (rho.ravel().take(rolled)[:, None] * phases).reshape(d * d, d * d)


def _success_index(effects: np.ndarray, d: int) -> int:
    """Index of the first effect within ``IDENTITY_TOL`` of the normalized
    maximally entangled projector on C^d ⊗ C^d."""
    target = max_ent_matrix(AlgebraShape((d,))) / d
    distances = np.abs(effects - target).max(axis=(1, 2))
    matches = np.flatnonzero(distances <= IDENTITY_TOL)
    if not matches.size:
        raise InvariantViolation("success_effect", distances.min(),
                                 "basis does not contain the maximally entangled success effect")
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
    return probs, probs > NEGLIGIBLE, unnormalized


def _acts_as_identity(cond: ConditionalState) -> bool:
    # max_ent_matrix is 1 at (0, 0), a test that settles most channels without building it
    if cond.shape_in != cond.shape_out or not abs(cond.matrix[0, 0] - 1.0) <= IDENTITY_TOL:
        return False
    return max_abs(cond.matrix - max_ent_matrix(cond.shape_in)) <= IDENTITY_TOL


CLASSICAL_BIT = AlgebraShape((1, 1))


def teleport(
    c: Channel,
    input_state: State,
    measurement_basis=None,
    success_index: int | None = None,
) -> TeleportReport:
    """Noisy-gate teleportation: measure the input together with the input
    half of the resource, the joint state of the channel's conditional form
    and a maximally mixed marginal.

    With no basis the input algebra picks the measurement.  On an
    irreducible algebra it is the generalized Bell basis, never formed
    (``_bell_reduced``), whose success outcome 0 has probability 1/d^2.  On
    the classical bit the four effects collapse pairwise under the block
    pinching into the parity route: the Bell outcomes grouped by their shift
    a, of probability 1/2 each (``grouping_used``).  The success outcome
    leaves Bob with the channel applied to the input, the one branch judged as a
    state.  For the identity channel every outcome's correction is applied
    (``corrected_states``); on the bit it is the flip X^a, one-time-pad decryption.

    An explicit ``measurement_basis`` works over any input algebra and is
    validated as a ``POVM`` on the input pair.  ``success_index`` defaults
    to its first effect within ``IDENTITY_TOL`` of the normalized maximally
    entangled projector; an index that is not an integer (a float, a bool)
    raises ``ShapeMismatch``.  ``grouping_used`` says whether an effect has
    rank above one.
    """
    if input_state.shape != c.shape_in:
        raise ShapeMismatch("input state does not live on the channel's input algebra")
    d = c.shape_in.total_dim
    canonical = measurement_basis is None
    if canonical:
        grouping_used = c.shape_in == CLASSICAL_BIT
        if not (grouping_used or c.shape_in.is_irreducible):
            raise ShapeMismatch("the canonical measurement needs an irreducible input algebra "
                                "or the classical bit; pass a basis")
        reduced = _bell_reduced(input_state.matrix)
        if grouping_used:  # the parity check: outcome a sums the Bell outcomes a * d + b
            reduced = reduced.reshape(d, d, -1).sum(1)
    else:
        effects = POVM(AlgebraShape((d * d,)), measurement_basis).elements
        n = len(effects)
        # F_i[a, b] = Σ E_i[x, a, y, b] ρ[y, x], one product on a reordered view
        stacked = effects.reshape(n, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(n * d * d, -1)
        reduced = (stacked @ input_state.matrix.T.ravel()).reshape(n, d * d)
        grouping_used = _groups_outcomes(effects)
    if success_index is None:
        success = 0 if canonical else _success_index(effects, d)
    elif not is_integer(success_index):
        raise ShapeMismatch(f"success index must be an integer, got {success_index!r}")
    else:
        success = operator.index(success_index)
    cond = choi_conditional(c)
    if not 0 <= success < len(reduced):
        raise ShapeMismatch(f"success index {success} out of range")
    probs, kept, branches = _run_branches(reduced, cond.matrix / d, c.shape_out)
    if not kept[success]:
        raise InvariantViolation("success_probability", probs[success],
                                 "success outcome has vanishing probability")
    # normalized where read: a tiny probability amplifies its branch's rounding
    bob = states_from_stack(c.shape_out, hermitize(branches[[success]] / probs[success]))[0]
    corrected = None
    if canonical and _acts_as_identity(cond):
        # outcome a * d + b is undone by W_ab^T, the conjugate of its Weyl
        # operator; the grouped outcome a by every d-th of them, X^a
        u = _weyl_operators(d).swapaxes(1, 2)[::d if grouping_used else 1][kept]
        stack = hermitize(branches[kept] / probs[kept, None, None])
        fixed = iter(states_from_stack(c.shape_out, hermitize(u @ stack @ u.conj().swapaxes(1, 2))))
        corrected = tuple(next(fixed) if k else None for k in kept)
    return TeleportReport(
        success_probability=float(probs[success]),
        outcome_probabilities=probs,
        success_index=success,
        bob_state_on_success=bob,
        corrected_states=corrected,
        grouping_used=grouping_used,
    )


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
    rho = hermitize((g @ g.conj().T) * layout(shape).mask)
    return State(shape, rho / np.trace(rho).real)


def random_support_projector(
    shape: AlgebraShape, rank: int, rng: np.random.Generator
) -> np.ndarray:
    """Rank-``rank`` projector inside the algebra (block-diagonal)."""
    d = shape.total_dim
    if not is_integer(rank) or not 1 <= rank <= d:
        raise ShapeMismatch(f"rank must be an integer in [1, {d}], got {rank!r}")
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
    rho = hermitize((g @ g.conj().T) * layout(shape_a, shape_b).mask)
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
    if not is_integer(env_dim) or d_out * env_dim < d_in:
        raise ShapeMismatch(f"environment dim {env_dim!r} must be an integer with {d_out}·it ≥ {d_in}")
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
    if not is_integer(k) or k < 1:
        raise ShapeMismatch(f"a POVM needs an integer count of at least one element, got {k!r}")
    d = shape.total_dim
    mask = layout(shape).mask
    raw = []
    for _ in range(k):
        g = _gaussian_matrix(rng, d, d)
        wishart = hermitize((g @ g.conj().T) * mask)
        # small ridge keeps the sum well conditioned for the inverse root
        raw.append(wishart + (0.05 * np.trace(wishart).real / d) * np.eye(d))
    inv = herm_eig(sum(raw)).inv_root()  # judged: a raw sum, of no validated object
    elements = [inv @ a @ inv for a in raw]
    slack = np.eye(d) - sum(elements)
    if max_abs(slack) > NEGLIGIBLE:
        elements[-1] = elements[-1] + slack
    return POVM(shape=shape, elements=tuple(elements))
