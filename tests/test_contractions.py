"""Index contractions against the materialized-kron formulas they replace.

Each oracle below is the explicit ``np.kron`` construction of the same
quantity, kept here (and only here) so that every contraction in the
library is pinned to it within 1e-12 on irreducible, classical and mixed
algebras of dimension 2 to 8, rank-deficient first marginals included.
"""

import numpy as np
import pytest

from condchan import (
    AlgebraShape,
    Channel,
    apply_via_conditional,
    bayes_invert,
    bell_basis,
    choi_conditional,
    conditional_from_joint,
    joint_from_conditional,
    partial_trace,
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
    random_unitary,
    reduce,
    swap_factors,
    teleport_classical,
    teleport_general,
    verify_theorem,
)
from condchan.channels import max_ent_matrix
from condchan.matcore import gen_inv_sqrt, hermitize, mat_sqrt
from condchan.scenarios import CLASSICAL_BIT, _weyl

ATOL = 1e-12
MIXED_BY_DIM = {3: (2, 1), 4: (2, 1, 1), 5: (3, 2), 6: (3, 2, 1), 7: (4, 2, 1), 8: (4, 2, 1, 1)}
SHAPES = (
    [AlgebraShape((d,)) for d in range(2, 9)]
    + [AlgebraShape((1,) * d) for d in range(2, 9)]
    + [AlgebraShape(dims) for dims in MIXED_BY_DIM.values()]
)
SMALL_SHAPES = [s for s in SHAPES if s.total_dim <= 6]


def shape_id(shape):
    return "x".join(map(str, shape.block_dims))


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=ATOL)


# -- oracles: the materialized kron formulas --------------------------------


def oracle_choi(kraus, shape_in):
    eye = np.eye(shape_in.total_dim)
    base = max_ent_matrix(shape_in)
    return sum(np.kron(eye, k) @ base @ np.kron(eye, k).conj().T for k in kraus)


def oracle_sandwich_on_first(factor, matrix, dim_other):
    op = np.kron(factor, np.eye(dim_other))
    return op @ matrix @ op


def oracle_conditional(j, side):
    da, db = j.shape_a.total_dim, j.shape_b.total_dim
    if side == "a":
        inv = gen_inv_sqrt(partial_trace(j.matrix, da, db, keep="left"))
        return oracle_sandwich_on_first(inv, j.matrix, db)
    inv = gen_inv_sqrt(partial_trace(j.matrix, da, db, keep="right"))
    return oracle_sandwich_on_first(inv, swap_factors(j.matrix, da, db), da)


def oracle_bayes(cond_ab, marg_a, marg_b):
    op = np.kron(mat_sqrt(marg_b.matrix), gen_inv_sqrt(marg_a.matrix))
    da, db = marg_a.shape.total_dim, marg_b.shape.total_dim
    return swap_factors(op @ cond_ab.matrix @ op, db, da)


def oracle_apply_via_conditional(cond, s):
    din, dout = cond.shape_in.total_dim, cond.shape_out.total_dim
    left = np.kron(max_ent_matrix(cond.shape_in), np.eye(dout))
    right = np.kron(s.matrix, cond.matrix)
    return partial_trace(left @ right, din * din, dout, keep="right")


def oracle_theorem_lhs(j, n, m):
    return np.array(
        [[np.trace(np.kron(nj, mk) @ j.matrix).real for mk in m.elements] for nj in n.elements]
    )


def oracle_bell_basis(dim):
    phi = np.zeros(dim * dim, dtype=complex)
    phi[:: dim + 1] = 1 / np.sqrt(dim)
    vecs = [np.kron(np.eye(dim), _weyl(dim, a, b)) @ phi for a in range(dim) for b in range(dim)]
    return [np.outer(v, v.conj()) for v in vecs]


def oracle_branches(input_matrix, resource, effects, dim_out):
    """Outcome probabilities and unnormalized branch matrices of
    Tr_pair((E ⊗ I)(input ⊗ resource))."""
    total = np.kron(input_matrix, resource)
    dim_pair = effects[0].shape[0]
    probs, branches = [], []
    for e in effects:
        op = np.kron(e, np.eye(dim_out)) @ total
        probs.append(np.trace(op).real)
        branches.append(partial_trace(op, dim_pair, dim_out, keep="right"))
    return np.array(probs), branches


def oracle_random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    for j in range(dim):
        col = q[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))
        pivot = col[nz[0]]
        q[:, j] = col * (pivot.conjugate() / abs(pivot))
    return q


def check_branches(report, c, s, effects):
    """Compare a teleport report with the oracle; return the oracle's branches."""
    resource = oracle_choi(c.kraus, c.shape_in) / c.shape_in.total_dim
    probs, branches = oracle_branches(s.matrix, resource, effects, c.shape_out.total_dim)
    close(report.outcome_probabilities, probs)
    for state, p, branch in zip(report.branch_states, probs, branches, strict=True):
        if state is not None:
            close(state.matrix, hermitize(branch / p))
    return [hermitize(branch / p) for p, branch in zip(probs, branches)]


def check_teleport_general(c, s, effects):
    check_branches(teleport_general(c, s, effects, 0), c, s, effects)


# -- tests -----------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_choi_matches_kron_oracle(rng, shape):
    for shape_out in (shape, AlgebraShape((2, 1))):
        c = random_channel(shape, shape_out, shape.total_dim, rng)
        close(choi_conditional(c).matrix, oracle_choi(c.kraus, shape))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_conditioning_and_joining_match_kron_oracle(rng, shape):
    other = AlgebraShape((2,))
    full = random_joint_state(shape, other, rng)
    deficient = random_joint_state(shape, other, rng, rank_a=max(1, shape.total_dim // 2))
    for j in (full, deficient):
        for side in ("a", "b"):
            close(conditional_from_joint(j, side).matrix, oracle_conditional(j, side))
        cond = conditional_from_joint(j, "a")
        marg = reduce(j, "a")
        expected = oracle_sandwich_on_first(mat_sqrt(marg.matrix), cond.matrix, other.total_dim)
        close(joint_from_conditional(marg, cond).matrix, expected)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_bayes_invert_matches_kron_oracle(rng, shape):
    j = random_joint_state(shape, AlgebraShape((1, 2)), rng)
    cond_ab = conditional_from_joint(j, "b")
    marg_a, marg_b = reduce(j, "a"), reduce(j, "b")
    close(bayes_invert(cond_ab, marg_a, marg_b).matrix, oracle_bayes(cond_ab, marg_a, marg_b))
    # and with the roles of the two factors exchanged
    cond_ba = conditional_from_joint(j, "a")
    close(bayes_invert(cond_ba, marg_b, marg_a).matrix, oracle_bayes(cond_ba, marg_b, marg_a))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_apply_via_conditional_matches_kron_oracle(rng, shape):
    c = random_channel(shape, AlgebraShape((2, 1)), shape.total_dim, rng)
    cond = choi_conditional(c)
    s = random_state(shape, rng)
    close(apply_via_conditional(cond, s), oracle_apply_via_conditional(cond, s))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_theorem_lhs_matches_kron_oracle(rng, shape):
    for rank_a in (None, max(1, shape.total_dim // 2)):
        j = random_joint_state(shape, shape, rng, rank_a=rank_a)
        n, m = random_povm(shape, 4, rng), random_povm(shape, 3, rng)
        report = verify_theorem(j, n, m)
        close(report.lhs, oracle_theorem_lhs(j, n, m))
        assert report.max_deviation < 1e-9


@pytest.mark.parametrize("dim", range(2, 9))
def test_bell_basis_matches_kron_oracle(dim):
    for effect, expected in zip(bell_basis(dim), oracle_bell_basis(dim), strict=True):
        close(effect, expected)


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
def test_teleport_branches_match_kron_oracle(rng, shape):
    d = shape.total_dim
    for shape_out in (AlgebraShape((d,)), AlgebraShape((2, 1))):
        c = random_channel(shape, shape_out, 2, rng)
        check_teleport_general(c, random_state(shape, rng), list(bell_basis(d)))


@pytest.mark.parametrize("shape", [AlgebraShape((8,)), AlgebraShape((4, 2, 1, 1))], ids=shape_id)
def test_teleport_branches_match_kron_oracle_at_dim_8(rng, shape):
    # a two-outcome basis keeps the 512 x 512 oracle products affordable
    success = bell_basis(8)[0]
    c = random_channel(shape, AlgebraShape((8,)), 2, rng)
    check_teleport_general(c, random_state(shape, rng), [success, np.eye(64) - success])


def test_teleport_classical_matches_kron_oracle(rng):
    even = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    odd = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    identity = Channel(CLASSICAL_BIT, CLASSICAL_BIT, (np.diag([1.0, 0]), np.diag([0, 1.0])))
    for c in (identity, random_channel(CLASSICAL_BIT, AlgebraShape((2,)), 2, rng)):
        s = random_state(CLASSICAL_BIT, rng)
        report = teleport_classical(c, s)
        branch_even, branch_odd = check_branches(report, c, s, [even, odd])
        close(report.bob_state_on_success.matrix, branch_even)
        if c is identity:
            close(report.corrected_states[1].matrix, flip @ branch_odd @ flip)


@pytest.mark.parametrize("dim", range(1, 9))
def test_random_unitary_is_bit_identical_to_inline_phase_fix(dim):
    got = random_unitary(dim, np.random.default_rng(dim))
    np.testing.assert_array_equal(got, oracle_random_unitary(dim, np.random.default_rng(dim)))
