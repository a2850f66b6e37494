"""Executable scenarios tying the pieces together.

Two operational readings of the channel/conditional correspondence are made
runnable here:

* ``verify_theorem`` checks that local measurements on a joint state give
  the same outcome statistics as a prepare-evolve-measure experiment built
  from the transposed marginal and the reconstructed channel;
* ``teleport`` / ``teleport_classical`` run noisy-gate teleportation with a
  maximally entangled measurement, including the classical-bit degeneration
  where grouping parity outcomes doubles the success probability and the
  protocol becomes a one-time pad.

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
from .conditional import conditional_from_joint
from .errors import BasisNotPOVM, DimensionMismatch, ShapeMismatch
from .matcore import _fix_phases, gen_inv_sqrt, hermitize, kron, mat_sqrt, max_abs
from .povm import POVM
from .states import JointState, State, reduce

THEOREM_TOL = 1e-9
EFFECT_MATCH_TOL = 1e-9
BRANCH_PROB_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Both joint outcome distributions and their largest disagreement."""

    lhs: np.ndarray
    rhs: np.ndarray
    max_deviation: float
    support_restricted: bool

    def distributions_valid(self, tol: float = THEOREM_TOL) -> bool:
        for mat in (self.lhs, self.rhs):
            if float(mat.min()) < -tol:
                return False
            if abs(float(mat.sum()) - 1.0) > tol:
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
    # Tr((N_j ⊗ M_k) ρ) for all pairs at once on the 4-index view of ρ.
    lhs = np.einsum(
        "jax,kby,xyab->jk",
        np.stack(n.elements),
        np.stack(m.elements),
        j.matrix.reshape(da, db, da, db),
        optimize=True,
    ).real

    rho_a = reduce(j, "a")
    cond = conditional_from_joint(j, "a")
    chan = channel_from_conditional(cond)
    root_t = mat_sqrt(rho_a.matrix.T)
    rhs = np.empty_like(lhs)
    for jj, nj in enumerate(n.elements):
        prepared = root_t @ nj.T @ root_t
        evolved = apply_matrix(chan, prepared)
        for kk, mk in enumerate(m.elements):
            rhs[jj, kk] = float(np.trace(mk @ evolved).real)

    return TheoremReport(
        lhs=lhs,
        rhs=rhs,
        max_deviation=float(np.max(np.abs(lhs - rhs))),
        support_restricted=chan.input_support is not None,
    )


def _weyl(dim: int, a: int, b: int) -> np.ndarray:
    """Shift-and-phase unitary X^a Z^b on C^dim."""
    omega = np.exp(2j * np.pi / dim)
    z = np.diag(omega ** np.arange(dim))
    x = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        x[(j + a) % dim, j] = 1.0
    return x @ np.linalg.matrix_power(z, b)


def bell_basis(dim: int) -> tuple[np.ndarray, ...]:
    """The dim^2 maximally entangled rank-one effects, ordered so that the
    plain maximally entangled projector comes first."""
    effects = []
    for a in range(dim):
        for b in range(dim):
            # (I ⊗ W) Σ_j |jj> / √d has entry W[i, j] / √d at index j * dim + i
            vec = _weyl(dim, a, b).T.reshape(-1) / np.sqrt(dim)
            effects.append(np.outer(vec, vec.conj()))
    return tuple(effects)


def _validate_effects(effects, dim: int, tol: float) -> list[np.ndarray]:
    ops = [np.asarray(e, dtype=np.complex128) for e in effects]
    for e in ops:
        if e.shape != (dim, dim):
            raise BasisNotPOVM(f"effect shape {e.shape}, expected {(dim, dim)}")
        if max_abs(e - e.conj().T) > 1e-9:
            raise BasisNotPOVM("effect is not Hermitian")
        w = np.linalg.eigvalsh(hermitize(e))
        if w.size and w[0] < -1e-9:
            raise BasisNotPOVM(f"effect has negative eigenvalue {w[0]:.3e}")
    if max_abs(sum(ops) - np.eye(dim)) > tol:
        raise BasisNotPOVM("effects do not sum to the identity")
    return ops


def _run_branches(
    input_matrix: np.ndarray,
    resource_matrix: np.ndarray,
    effects: list[np.ndarray],
    dim_out: int,
    shape_out: AlgebraShape,
):
    # Tr_pair((E_i ⊗ I)(ρ ⊗ R)): first F_i[a, b] = Σ E_i[x, a, y, b] ρ[y, x],
    # then Σ F_i[a, b] R[b, o, a, r] on the 4-index view of the resource.
    d = input_matrix.shape[0]
    stacked = np.stack(effects).reshape(len(effects), d, d, d, d)
    reduced = np.einsum("ixayb,yx->iab", stacked, input_matrix)
    resource = resource_matrix.reshape(d, dim_out, d, dim_out)
    unnormalized = np.einsum("iab,boar->ior", reduced, resource, optimize=True)
    probs = np.trace(unnormalized, axis1=1, axis2=2).real
    branches: list[State | None] = []
    for p, branch in zip(probs, unnormalized):
        if p > BRANCH_PROB_FLOOR:
            branches.append(State(shape_out, hermitize(branch / p)))
        else:
            branches.append(None)
    return probs, branches


def _acts_as_identity(c: Channel, tol: float = 1e-9) -> bool:
    if c.shape_in != c.shape_out:
        return False
    return max_abs(choi_conditional(c).matrix - max_ent_matrix(c.shape_in)) <= tol


def teleport_general(
    c: Channel,
    input_state: State,
    measurement_basis,
    success_index: int,
    grouping_used: bool = False,
    tol: float = EFFECT_MATCH_TOL,
) -> TeleportReport:
    """Run the teleportation experiment with an explicit measurement basis.

    No closed-form success probability is asserted; the measured outcome
    statistics are reported as-is.  The resource is the normalized joint
    state built from the channel's conditional form with a maximally mixed
    marginal; the basis measures the input system together with the
    resource's input-side half.
    """
    if input_state.shape != c.shape_in:
        raise ShapeMismatch("input state does not live on the channel's input algebra")
    d_in = c.shape_in.total_dim
    d_out = c.shape_out.total_dim
    effects = _validate_effects(measurement_basis, d_in * d_in, tol)
    if not 0 <= int(success_index) < len(effects):
        raise BasisNotPOVM(f"success index {success_index} out of range")
    resource = choi_conditional(c).matrix / d_in
    probs, branches = _run_branches(input_state.matrix, resource, effects, d_out, c.shape_out)
    success = int(success_index)
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


def teleport(
    c: Channel,
    input_state: State,
    measurement_basis=None,
    tol: float = EFFECT_MATCH_TOL,
) -> TeleportReport:
    """Noisy-gate teleportation over an irreducible input algebra.

    The measurement basis must be a POVM on the input-pair space containing
    the normalized maximally entangled projector; by default the full
    maximally entangled (generalized Bell) basis is used.  The probability
    of the successful outcome is 1/d^2 independent of channel and input, and
    Bob's state on success is the channel applied to the input.  For the
    identity channel measured in the default basis, the per-outcome
    correction unitaries are applied and reported as ``corrected_states``.
    """
    if not c.shape_in.is_irreducible:
        raise ShapeMismatch(
            "teleport needs an irreducible input algebra; see teleport_general/teleport_classical"
        )
    d = c.shape_in.total_dim
    canonical = measurement_basis is None
    effects = list(bell_basis(d)) if canonical else list(measurement_basis)
    target = max_ent_matrix(c.shape_in) / d
    success_index = None
    for i, e in enumerate(effects):
        if np.asarray(e).shape == target.shape and max_abs(np.asarray(e) - target) <= tol:
            success_index = i
            break
    if success_index is None:
        raise BasisNotPOVM("basis does not contain the maximally entangled success effect")
    report = teleport_general(c, input_state, effects, success_index, tol=tol)

    if canonical and _acts_as_identity(c):
        corrected: list[State | None] = []
        for idx, branch in enumerate(report.branch_states):
            if branch is None:
                corrected.append(None)
                continue
            a, b = divmod(idx, d)
            u = _weyl(d, a, b).T
            corrected.append(State(c.shape_out, hermitize(u @ branch.matrix @ u.conj().T)))
        report = replace(report, corrected_states=tuple(corrected), grouping_used=False)
    return report


CLASSICAL_BIT = AlgebraShape((1, 1))


def teleport_classical(c: Channel, input_state: State) -> TeleportReport:
    """Teleportation over the classical bit algebra with parity grouping.

    The four maximally entangled effects collapse pairwise under the block
    pinching, so Alice's measurement degenerates to a parity check with two
    outcomes of probability 1/2 each.  The success branch outputs the
    channel applied to the input; for the identity channel the failure
    branch is corrected by a bit flip, which is exactly one-time-pad
    decryption.
    """
    if c.shape_in != CLASSICAL_BIT:
        raise ShapeMismatch("teleport_classical needs the two-block classical bit algebra")
    even = np.diag(np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128))
    odd = np.diag(np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128))
    report = teleport_general(c, input_state, [even, odd], 0, grouping_used=True)

    corrected = None
    if c.shape_out == CLASSICAL_BIT and _acts_as_identity(c):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        branch_even, branch_odd = report.branch_states
        corrected = (
            branch_even,
            None
            if branch_odd is None
            else State(c.shape_out, flip @ branch_odd.matrix @ flip),
        )
    return replace(report, corrected_states=corrected)


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
    if max_abs(slack) > 1e-12:
        elements[-1] = elements[-1] + slack
    return POVM(shape=shape, elements=tuple(elements))
