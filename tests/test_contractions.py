"""Index contractions against the materialized-kron formulas they replace.

Each oracle below is the explicit ``np.kron`` construction of the same
quantity, kept here (and only here) so that every contraction in the
library is pinned to it within 1e-12 on irreducible, classical and mixed
algebras of dimension 2 to 8, rank-deficient first marginals included.
The same holds for the batched forms of per-item loops: products over the
stacked Kraus tensor, the cached support masks and the vectorized phase
convention (the last two bit for bit), and the stacked teleport and
preparation paths, whose eigendecomposition counts are pinned as well.
The Cholesky positivity certificate is pinned to the eigvalsh verdict it
replaced: the same acceptance, exception, invariant and deviation, also
where it certifies a joint or conditional per block, against the verdict
of the whole matrix.  The single products on the held superoperator and on
reordered 4-index views are pinned to the per-Kraus sums and einsum
contractions they replaced, the superoperator is formed once per channel,
and the closed-form Bell reductions are pinned to the effect contraction
over the kron-built basis, which no teleport call forms.
The isometry and channel checks read the Choi spectrum from one eigvalsh,
pinned to the verdicts of the full eigendecomposition.  Every public
correspondence map decomposes each distinct matrix (a matrix and its
transpose counted as one) at most once per call.  Spectra taken per algebra
block agree with the whole-matrix decomposition within 1e-12 (by Choi
matrix where a degenerate eigenspace may change the Kraus basis), their
eigenvectors are exactly zero off their block, a matrix below
``BLOCKWISE_MIN_DIM`` is decomposed whole, and off-block weight above
``BLOCK_TOL`` is rejected rather than dropped, except in a derived matrix
that may carry it (a joint's marginal, a checked channel's Choi matrix),
which is decomposed whole.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import condchan.channels as channels_module
from condchan import (
    POVM,
    AlgebraShape,
    Channel,
    CondChanError,
    ConditionalState,
    InvariantViolation,
    JointState,
    State,
    apply,
    apply_via_conditional,
    bayes_invert,
    choi_conditional,
    conditional_from_joint,
    identity_channel,
    joint_from_conditional,
    measure,
    partial_trace,
    povm_from_ensemble,
    prepare,
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
    random_unitary,
    reduce,
    swap_factors,
    teleport,
    teleport_classical,
    verify_theorem,
)
from condchan.algebra import (
    block_index,
    block_mask,
    pair_mask,
    support_deviation,
    support_index,
)
from condchan.channels import (
    _kraus_gram,
    apply_matrix,
    channel_from_conditional,
    is_isometry,
    max_ent_matrix,
    validate_channel,
)
from condchan.errors import NoConvergence
from condchan.matcore import (
    BLOCKWISE_MIN_DIM,
    _fix_phases,
    herm_eig,
    herm_eigvals,
    hermitize,
    validate_psd,
)
from condchan.scenarios import (
    CLASSICAL_BIT,
    _bell_reduced,
    _bell_tables,
    _run_branches,
    _weyl_operators,
    random_block_unitary,
    random_support_projector,
)
from condchan.states import states_from_stack
from condchan.tolerances import BLOCK_TOL, IDENTITY_TOL, INPUT_TOL, NEGLIGIBLE

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
        inv = herm_eig(partial_trace(j.matrix, da, db, keep="left")).inv_root()
        return oracle_sandwich_on_first(inv, j.matrix, db)
    inv = herm_eig(partial_trace(j.matrix, da, db, keep="right")).inv_root()
    return oracle_sandwich_on_first(inv, swap_factors(j.matrix, da, db), da)


def oracle_bayes(cond_ab, marg_a, marg_b):
    op = np.kron(herm_eig(marg_b.matrix).root(), herm_eig(marg_a.matrix).inv_root())
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


def oracle_weyl(dim, a, b):
    """Shift-and-phase unitary X^a Z^b on C^dim, one operator at a time."""
    omega = np.exp(2j * np.pi / dim)
    z = np.diag(omega ** np.arange(dim))
    x = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        x[(j + a) % dim, j] = 1.0
    return x @ np.linalg.matrix_power(z, b)


def bell_basis(dim):
    """The dim^2 maximally entangled rank-one effects from the library's Weyl
    operators, ordered so that the plain maximally entangled projector comes
    first: the explicit basis the teleport tests pass."""
    # (I ⊗ W) Σ_j |jj> / √d has entry W[i, j] / √d at index j * dim + i
    vecs = _weyl_operators(dim).swapaxes(1, 2).reshape(dim * dim, -1) / np.sqrt(dim)
    return tuple(vecs[:, :, None] * vecs[:, None, :].conj())


def bad_bell_basis(kind, position):
    """The qubit Bell basis with one effect at ``position`` made invalid."""
    effects = [np.array(e) for e in bell_basis(2)]
    other = 1 if position == 0 else 0
    if kind == "shape":
        effects[position] = np.eye(3, dtype=complex)
    elif kind == "hermitian":
        effects[position][0, 1] += 1e-6
    elif kind == "negative":
        # keeps the sum at the identity: the other effect takes the weight
        effects[position] = effects[position] - 0.1 * effects[other]
        effects[other] = 1.1 * effects[other]
    elif kind == "non_finite":
        effects[position][0, 0] = np.nan
    return effects


def oracle_bell_basis(dim):
    phi = np.zeros(dim * dim, dtype=complex)
    phi[:: dim + 1] = 1 / np.sqrt(dim)
    weyls = [oracle_weyl(dim, a, b) for a in range(dim) for b in range(dim)]
    vecs = [np.kron(np.eye(dim), w) @ phi for w in weyls]
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
    """Compare a teleport report with the per-effect validator, the kron
    formula and the per-branch State loop (None at or below the floor);
    return the oracle's branch states."""
    d = c.shape_in.total_dim
    ops = oracle_povm_effects(effects, d * d)
    resource = oracle_choi(c.kraus, c.shape_in) / d
    probs, branches = oracle_branches(s.matrix, resource, ops, c.shape_out.total_dim)
    states = [
        State(c.shape_out, hermitize(branch / p)) if p > NEGLIGIBLE else None
        for p, branch in zip(probs, branches)
    ]
    close(report.outcome_probabilities, probs)
    assert [b is None for b in report.branch_states] == [b is None for b in states]
    for got, want in zip(report.branch_states, states):
        if want is not None:
            close(got.matrix, want.matrix)
    close(report.bob_state_on_success.matrix, states[report.success_index].matrix)
    return states


def check_explicit_basis(c, s, effects):
    check_branches(teleport(c, s, effects, 0), c, s, effects)


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
        expected = oracle_sandwich_on_first(herm_eig(marg.matrix).root(), cond.matrix, other.total_dim)
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
    # measuring which basis state the input is in: on the pure first basis
    # state every outcome past the first is a branch below the floor
    which_input = [np.kron(np.diag(np.eye(d)[k]), np.eye(d)) for k in range(d)]
    for shape_out in output_classes(d):
        c = random_channel(shape, shape_out, 2, rng)
        check_explicit_basis(c, random_state(shape, rng), list(bell_basis(d)))
        report = teleport(c, pure_first(shape), which_input, 0)
        assert all(branch is None for branch in report.branch_states[1:])
        check_branches(report, c, pure_first(shape), which_input)


@pytest.mark.parametrize("shape", [AlgebraShape((8,)), AlgebraShape((4, 2, 1, 1))], ids=shape_id)
def test_teleport_branches_match_kron_oracle_at_dim_8(rng, shape):
    # a two-outcome basis keeps the 512 x 512 oracle products affordable
    success = bell_basis(8)[0]
    c = random_channel(shape, AlgebraShape((8,)), 2, rng)
    check_explicit_basis(c, random_state(shape, rng), [success, np.eye(64) - success])


def test_teleport_classical_matches_kron_oracle(rng):
    even = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    odd = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    identity = Channel(CLASSICAL_BIT, CLASSICAL_BIT, (np.diag([1.0, 0]), np.diag([0, 1.0])))
    outputs = (CLASSICAL_BIT, AlgebraShape((2,)), AlgebraShape((2, 1)))
    for c in (identity, *(random_channel(CLASSICAL_BIT, out, 2, rng) for out in outputs)):
        for s in (random_state(CLASSICAL_BIT, rng), pure_first(CLASSICAL_BIT)):
            report = teleport_classical(c, s)
            _, branch_odd = check_branches(report, c, s, [even, odd])
            if c is identity:
                close(report.corrected_states[1].matrix, flip @ branch_odd.matrix @ flip)


@pytest.mark.parametrize("dim", range(1, 9))
def test_random_unitary_is_bit_identical_to_inline_phase_fix(dim):
    got = random_unitary(dim, np.random.default_rng(dim))
    np.testing.assert_array_equal(got, oracle_random_unitary(dim, np.random.default_rng(dim)))


# -- oracles: the per-item loops the batched forms replace ------------------


def oracle_apply_matrix(kraus, x):
    return sum(k @ x @ k.conj().T for k in kraus)


def oracle_kraus_gram(kraus):
    return sum(k.conj().T @ k for k in kraus)


def oracle_kraus_from_conditional(cond, cutoff=1e-10, blocks=True):
    din, dout = cond.shape_in.total_dim, cond.shape_out.total_dim
    es = herm_eig(cond.matrix, block_index(cond.shape_in, cond.shape_out) if blocks else None)
    thresh = max(cutoff * max(float(es.eigenvalues[0]), 0.0), 1e-14)
    return [
        np.sqrt(lam) * vec.reshape(din, dout).T
        for lam, vec in zip(es.eigenvalues, es.eigenvectors.T)
        if lam > thresh
    ]


def oracle_block_mask(shape):
    d = shape.total_dim
    mask = np.zeros((d, d), dtype=bool)
    for sl in shape.block_slices():
        mask[sl, sl] = True
    return mask


def oracle_fix_phases(vectors):
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        scale = np.max(np.abs(col))
        if scale == 0.0:
            continue
        nz = np.flatnonzero(np.abs(col) > NEGLIGIBLE * scale)
        if nz.size == 0:
            continue
        pivot = col[nz[0]]
        out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


# -- tests: stacked Kraus tensor --------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_stacked_kraus_products_match_loop_oracle(rng, shape):
    for shape_out in (shape, AlgebraShape((2, 1))):
        c = random_channel(shape, shape_out, shape.total_dim, rng)
        x = random_state(shape, rng).matrix
        close(apply_matrix(c, x), oracle_apply_matrix(c.kraus, x))
        stack = np.stack([random_state(shape, rng).matrix for _ in range(3)])
        close(apply_matrix(c, stack), np.stack([oracle_apply_matrix(c.kraus, m) for m in stack]))
        gram = oracle_kraus_gram(c.kraus)
        close(_kraus_gram(c.kraus), gram)
        tp_dev = np.max(np.abs(gram - np.eye(shape.total_dim)))
        assert validate_channel(c).tp_deviation == pytest.approx(tp_dev, abs=ATOL)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_kraus_extraction_is_bit_identical_to_loop(rng, shape):
    full = choi_conditional(random_channel(shape, AlgebraShape((2, 1)), shape.total_dim, rng))
    deficient = conditional_from_joint(
        random_joint_state(shape, AlgebraShape((2,)), rng, rank_a=max(1, shape.total_dim // 2)), "a"
    )
    for cond in (full, deficient):
        got = channel_from_conditional(cond).kraus
        expected = oracle_kraus_from_conditional(cond)
        assert len(got) == len(expected)
        for k, want in zip(got, expected):
            np.testing.assert_array_equal(k, want)


def test_kraus_are_one_read_only_tensor(rng):
    c = random_channel(AlgebraShape((2, 1)), AlgebraShape((4,)), 3, rng)
    assert c.kraus.shape == (len(c.kraus), 4, 3)
    assert c.kraus.dtype == np.complex128
    with pytest.raises(ValueError):
        c.kraus[0, 0, 0] = 1.0
    ops = list(c.kraus)
    assert all(k.shape == (4, 3) and np.shares_memory(k, c.kraus) for k in ops)


# -- tests: cached support masks --------------------------------------------


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_cached_masks_are_read_only_and_match_the_loop(rng, shape):
    other = AlgebraShape((1, 2))
    cases = [
        (block_mask(shape), oracle_block_mask(shape)),
        (pair_mask(shape, other), np.kron(oracle_block_mask(shape), oracle_block_mask(other))),
    ]
    for got, expected in cases:
        assert got.dtype == bool
        np.testing.assert_array_equal(got, expected)
        with pytest.raises(ValueError):
            got[0, -1] = not got[0, -1]
    assert block_mask(AlgebraShape(shape.block_dims)) is block_mask(shape)
    # the deviation helpers equal the old project-and-subtract formula
    d = shape.total_dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert support_deviation(m, shape) == np.max(np.abs(m - m * oracle_block_mask(shape)))
    n = other.total_dim * d
    mm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pair = np.kron(oracle_block_mask(other), oracle_block_mask(shape))
    assert support_deviation(mm, other, shape) == np.max(np.abs(mm - mm * pair))


@pytest.mark.parametrize("shape", SHAPES + [AlgebraShape((1,))], ids=shape_id)
def test_max_ent_matrix_is_bit_identical_to_loop(shape):
    d = shape.total_dim
    expected = np.zeros((d * d, d * d), dtype=np.complex128)
    for sl in shape.block_slices():
        v = np.zeros(d * d, dtype=np.complex128)
        for j in range(sl.start, sl.stop):
            v[j * d + j] = 1.0
        expected += np.outer(v, v.conj())
    got = max_ent_matrix(shape)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# -- tests: vectorized phase convention --------------------------------------


def _phase_cases(rng):
    def gaussian(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    zero_column = gaussian(5, 4)
    zero_column[:, 2] = 0.0
    tiny_leading = gaussian(6, 5)
    tiny_leading[:3, 1] *= NEGLIGIBLE / 10  # first entries below the relative cutoff
    tiny_leading[:5, 3] *= NEGLIGIBLE / 10
    all_tiny = gaussian(4, 3) * 1e-300
    unitary, _ = np.linalg.qr(gaussian(8, 8))
    g = gaussian(6, 6)
    return {
        "random": gaussian(7, 7),
        "eigenvectors": np.linalg.eigh(g + g.conj().T)[1],
        "unitary": unitary,
        "zero-column": zero_column,
        "all-zero": np.zeros((3, 3), dtype=complex),
        "tiny-leading": tiny_leading,
        "subnormal-scale": all_tiny,
        "single-column": gaussian(5, 1),
        "single-entry": gaussian(1, 1),
    }


@pytest.mark.parametrize(
    "case",
    ["random", "eigenvectors", "unitary", "zero-column", "all-zero", "tiny-leading",
     "subnormal-scale", "single-column", "single-entry"],
)
def test_fix_phases_is_bit_identical_to_loop(case):
    vectors = _phase_cases(np.random.default_rng(31))[case]
    got = _fix_phases(vectors)
    expected = oracle_fix_phases(vectors)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_fix_phases_is_bit_identical_on_many_random_matrices():
    rng = np.random.default_rng(32)
    for _ in range(300):
        rows, cols = rng.integers(1, 9, size=2)
        v = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        v[: rng.integers(0, rows + 1)] *= NEGLIGIBLE / 3
        assert _fix_phases(v).tobytes() == oracle_fix_phases(v).tobytes()


# -- oracles: the per-effect validator, the per-element and per-member loops


def oracle_povm_effects(effects, dim):
    """The effects as arrays, after checking one at a time that they form a
    POVM on C^dim (at the thresholds ``POVM`` judges)."""
    ops = [np.asarray(e, dtype=complex) for e in effects]
    for e in ops:
        assert e.shape == (dim, dim)
        assert np.max(np.abs(e - e.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(hermitize(e))[0] >= -1e-10
    assert np.max(np.abs(sum(ops) - np.eye(dim))) <= 1e-9
    return ops


def oracle_measure(m, s):
    return np.array([float(np.trace(e @ s.matrix).real) for e in m.elements])


def oracle_prepare(m, s):
    root = herm_eig(s.matrix).root()
    weights, members = [], []
    for p, e in zip(oracle_measure(m, s), m.elements):
        if p <= NEGLIGIBLE:
            continue
        weights.append(p)
        members.append(State(s.shape, (root @ e @ root) / p))
    return np.array(weights), members


def output_classes(d):
    """Irreducible, classical and mixed output algebras for input dimension d."""
    return [AlgebraShape((d,)), AlgebraShape((1,) * d), AlgebraShape(MIXED_BY_DIM.get(d, (2, 1)))]


def pure_first(shape):
    d = shape.total_dim
    return State(shape, np.diag(np.eye(d)[0]).astype(complex))


# -- tests: stacked teleport and preparation --------------------------------


@pytest.mark.parametrize("d", range(2, 7))
def test_teleport_matches_loop_oracle(rng, d):
    shape = AlgebraShape((d,))
    for shape_out in output_classes(d):
        c = random_channel(shape, shape_out, 2, rng)
        s = random_state(shape, rng)
        check_branches(teleport(c, s), c, s, oracle_bell_basis(d))
    # the identity channel's corrected states, one Weyl operator at a time
    c, s = identity_channel(shape), random_state(shape, rng)
    report = teleport(c, s)
    states = check_branches(report, c, s, oracle_bell_basis(d))
    for idx, (got, branch) in enumerate(zip(report.corrected_states, states, strict=True)):
        u = oracle_weyl(d, *divmod(idx, d)).T
        close(got.matrix, hermitize(u @ branch.matrix @ u.conj().T))
        close(got.matrix, s.matrix)


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
def test_prepare_and_measure_match_loop_oracle(rng, shape):
    d = shape.total_dim
    first = np.diag(np.eye(d)[0]).astype(complex)
    # on the pure first basis state the second outcome has probability zero
    split = POVM(shape, (first, np.eye(d) - first))
    cases = ((random_povm(shape, 4, rng), random_state(shape, rng)), (split, pure_first(shape)))
    for m, s in cases:
        close(measure(m, s), oracle_measure(m, s))
        ensemble = prepare(m, s)
        weights, members = oracle_prepare(m, s)
        close(ensemble.weights, weights)
        assert len(ensemble.members) == len(members)
        for got, want in zip(ensemble.members, members):
            close(got.matrix, want.matrix)


def test_teleport_and_prepare_eigendecomposition_counts(rng, monkeypatch):
    # one eigvalsh per effect stack and one per set of branches or members;
    # the identity channel is left out, its corrected states add one more
    shape = AlgebraShape((5,))
    c = random_channel(shape, shape, 2, rng)
    s = random_state(shape, rng)
    m = random_povm(shape, 4, rng)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    teleport(c, s)
    assert len(calls) <= 6, calls
    calls.clear()
    prepare(m, s)
    assert len(calls) <= 3, calls


# -- oracles: the eigvalsh verdicts that the Cholesky certificate replaced --


@np.errstate(over="ignore", invalid="ignore")
def oracle_validate_psd(stack, outside, blocks, unit_trace=False):
    # ``blocks`` is ignored: every matrix is judged whole
    flat = stack.reshape(len(stack), -1)
    block_dev = 0.0 if outside is None else float(np.abs(flat[:, outside]).max())
    adj = stack.conj().swapaxes(-1, -2)
    herm = (stack + adj) / 2
    if not np.isfinite(herm).all():
        if not np.isfinite(stack).all():
            raise InvariantViolation("finite", np.inf, "matrix has non-finite entries")
        raise InvariantViolation("overflow", np.inf)
    dev = float(np.abs(stack - adj).max())
    if dev > INPUT_TOL:
        raise InvariantViolation("hermitian", dev)
    if block_dev > BLOCK_TOL:
        raise InvariantViolation("block_support", block_dev)
    if unit_trace:
        traces = stack.trace(axis1=1, axis2=2).tolist()
        trace_dev = max(abs(t.real - 1.0) + abs(t.imag) for t in traces)
        if not trace_dev <= INPUT_TOL:
            raise InvariantViolation("trace", trace_dev)
    low = float(np.linalg.eigvalsh(herm).min())
    if not low >= -INPUT_TOL:
        raise InvariantViolation("positive", -low)


def verdict(fn, *args):
    """None when ``fn`` accepts its input; else the error's type, invariant,
    deviation and message."""
    try:
        fn(*args)
    except CondChanError as exc:
        return type(exc), getattr(exc, "invariant", None), getattr(exc, "deviation", None), str(exc)
    return None


def mixed_dims(d):
    return MIXED_BY_DIM.get(d, (d // 2, d - d // 2 - 1, 1))


CERT_SHAPES = (
    [AlgebraShape((d,)) for d in range(2, 17)]
    + [AlgebraShape((1,) * d) for d in range(2, 17)]
    + [AlgebraShape(mixed_dims(d)) for d in range(3, 17)]
)


def with_spectrum(rng, shape, eigenvalues):
    """U diag(eigenvalues) U† for a random unitary U inside the algebra."""
    u = random_block_unitary(shape, rng)
    return (u * eigenvalues) @ u.conj().T


def density_cases(rng, shape):
    """Unit-trace Hermitian matrices inside the algebra: full rank, rank one,
    half rank, λmin = -tol·(1 ∓ 1e-3), and one far from positive."""
    d, tol = shape.total_dim, INPUT_TOL
    full = rng.random(d) + 0.1
    half = np.where(np.arange(d) < max(d // 2, 1), rng.random(d) + 0.1, 0.0)
    spectra = [full / full.sum(), np.eye(d)[0], half / half.sum()]
    for low in (-tol * (1 - 1e-3), -tol * (1 + 1e-3)):
        rest = rng.random(d - 1) + 0.1
        spectra.append(np.concatenate([[low], rest * (1 - low) / rest.sum()]))
    cases = [with_spectrum(rng, shape, w) for w in spectra]
    far = np.linspace(-1.0, 1.0, d)
    cases.append(with_spectrum(rng, shape, far + (1 - far.sum()) / d))
    return cases


def psd_verdicts(stack, shape, unit_trace):
    index = support_index(shape)
    return (
        verdict(validate_psd, stack, *index, unit_trace),
        verdict(oracle_validate_psd, stack, *index, unit_trace),
    )


# -- tests: the Cholesky certificate against the eigvalsh verdict -----------


@pytest.mark.parametrize("shape", CERT_SHAPES, ids=shape_id)
def test_psd_certificate_gives_the_eigvalsh_verdict_on_densities(rng, shape):
    cases = density_cases(rng, shape)
    got, want = zip(*(psd_verdicts(m[None], shape, unit_trace=True) for m in cases))
    assert got == want
    # the oracle accepts the first four, the last of them at
    # λmin = -tol·(1 - 1e-3), and rejects λmin = -tol·(1 + 1e-3) and the
    # indefinite one
    assert want[:4] == (None,) * 4
    assert [w[1] for w in want[4:]] == ["positive", "positive"]
    # stacks where only the last element fails, and the valid stack
    valid = np.stack(cases[:4])
    for bad in cases[4:]:
        alone = psd_verdicts(bad[None], shape, unit_trace=True)
        assert psd_verdicts(np.concatenate([valid, bad[None]]), shape, unit_trace=True) == alone
    assert psd_verdicts(valid, shape, unit_trace=True) == (None, None)


@pytest.mark.parametrize("shape", CERT_SHAPES, ids=shape_id)
def test_psd_certificate_gives_the_eigvalsh_verdict_at_the_edges(rng, shape):
    # rank-deficient projectors (rank 0 is the zero matrix), each also scaled
    # by 1e-300, checked without a trace test as POVM elements are
    d = shape.total_dim
    projectors = [np.zeros((d, d), dtype=complex)] + [
        random_support_projector(shape, rank, rng) for rank in range(1, d + 1)
    ]
    indefinite = density_cases(rng, shape)[-1]
    for m in projectors + [indefinite]:
        for scale in (1.0, 1e-300):
            got, want = psd_verdicts(scale * m[None], shape, unit_trace=False)
            assert got == want
    assert psd_verdicts(np.stack(projectors), shape, unit_trace=False) == (None, None)
    # a tiny state fails its trace, before positivity, in both
    got, want = psd_verdicts(1e-300 * projectors[1][None], shape, unit_trace=True)
    assert got == want and want[1] == "trace"


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=shape_id)
def test_constructors_give_the_eigvalsh_verdict(rng, shape, monkeypatch):
    d = shape.total_dim
    elements = [np.array(e) for e in random_povm(shape, 3, rng).elements]
    p = random_support_projector(shape, 1, rng)
    povms = [
        elements,
        [elements[0] - p, elements[1] + p, elements[2]],
        [elements[0] + p, elements[1], elements[2] - p],
        [p, np.eye(d) - p],
    ]
    states = density_cases(rng, shape)
    chan = random_channel(shape, AlgebraShape((2,)), d, rng)
    cond = np.array(choi_conditional(chan).matrix)
    conds = [cond, cond - 1e-3 * np.eye(len(cond))]

    def run():
        return (
            [verdict(POVM, shape, tuple(e)) for e in povms]
            + [verdict(State, shape, m) for m in states]
            + [verdict(ConditionalState, shape, AlgebraShape((2,)), m) for m in conds]
        )

    got = run()
    for module in ("states", "povm", "conditional"):
        monkeypatch.setattr(f"condchan.{module}.validate_psd", oracle_validate_psd)
    want = run()
    assert got == want
    accepted = [True, False, False, True] + [True] * 4 + [False] * 2 + [True, False]
    assert [w is None for w in want] == accepted


BLOCK_PAIRS = [((2, 2), (2, 2)), ((1,) * 4, (1,) * 4), ((3, 1), (2, 2)), ((4,), (4,))]


def pair_cases(rng, shape_a, shape_b):
    """(kind, matrix, expected invariant or None) inside the pair algebra:
    joints and conditionals U diag(w) U† with U = Ua ⊗ Ub block unitary, so
    each eigenvector lies in one block; λmin = -INPUT_TOL·(1 ∓ 1e-3) sits in
    the first block, and off-block slop of ±BLOCK_TOL·(1 ∓ 1e-3) fills every
    entry outside the blocks (a reducible pair only)."""
    da, db = shape_a.total_dim, shape_b.total_dim
    u = np.kron(random_block_unitary(shape_a, rng), random_block_unitary(shape_b, rng))
    off = ~pair_mask(shape_a, shape_b)
    signs = np.sign(rng.standard_normal((da * db, da * db)))
    signs = np.triu(signs, 1) + np.triu(signs, 1).T
    lows = [(None, 0.5 / (da * db)), (None, -INPUT_TOL * (1 - 1e-3))]
    lows.append(("positive", -INPUT_TOL * (1 + 1e-3)))
    slops = [(None, 0.0)]
    if off.any():
        slops += [(None, BLOCK_TOL * (1 - 1e-3)), ("block_support", BLOCK_TOL * (1 + 1e-3))]
    for kind in ("joint", "conditional"):
        for low_fails, low in lows:
            # w[i, j] is the eigenvalue of column (i, j) of U: a joint's sum to
            # 1, and a conditional's to 1 over each j, so that its
            # conditioning partial trace Ua diag(Σ_j w[i, j]) Ua† is I
            w = rng.random((da, db)) + 0.1
            w[0, 0] = 0.0
            if kind == "joint":
                w *= (1 - low) / w.sum()
            else:
                w[0] *= (1 - low) / w[0].sum()
                w[1:] /= w[1:].sum(axis=1, keepdims=True)
            w[0, 0] = low
            m = (u * w.ravel()) @ u.conj().T
            for slop_fails, slop in slops:
                fails = slop_fails or low_fails
                yield kind, m + slop * signs * off, fails


@pytest.mark.parametrize("dims_a, dims_b", BLOCK_PAIRS, ids=lambda dims: "x".join(map(str, dims)))
def test_block_certificate_gives_the_whole_eigvalsh_verdict(rng, dims_a, dims_b, monkeypatch):
    # from BLOCKWISE_MIN_DIM up, a reducible joint or conditional is judged
    # and certified per block; the whole-matrix eigvalsh oracle must agree
    shape_a, shape_b = AlgebraShape(dims_a), AlgebraShape(dims_b)
    reducible = len(dims_a) * len(dims_b) > 1
    assert shape_a.total_dim * shape_b.total_dim >= BLOCKWISE_MIN_DIM
    assert (support_index(shape_a, shape_b)[1] is not None) == reducible
    cases = list(pair_cases(rng, shape_a, shape_b))
    build = {"joint": JointState, "conditional": ConditionalState}

    def run():
        return [verdict(build[kind], shape_a, shape_b, m) for kind, m, _ in cases]

    calls = count_linalg(monkeypatch)
    got = run()
    # only the certificate ran on the valid cases, per block when reducible
    sizes = {shape[-1] for name, shape in calls if name == "cholesky"}
    assert (max(sizes) < shape_a.total_dim * shape_b.total_dim) == reducible
    for module in ("states", "conditional"):
        monkeypatch.setattr(f"condchan.{module}.validate_psd", oracle_validate_psd)
    want = run()
    assert got == want
    assert [w and w[1] for w in want] == [fails for _, _, fails in cases]


def teleport_basis(basis):
    """``teleport`` of the maximally mixed state through the identity channel
    with an explicit basis: every branch of a Bell-like basis is then a
    multiple of the identity, so only the validation of the basis decides."""
    shape = AlgebraShape((round(np.sqrt(len(basis[0]))),))
    d = shape.total_dim
    return teleport(identity_channel(shape), State(shape, np.eye(d) / d), basis, 0)


def edge_bell_basis(scale):
    """The qubit Bell basis with the first effect pushed to λmin = -scale;
    the third effect takes the weight, so the sum stays the identity."""
    effects = [np.array(e) for e in bell_basis(2)]
    effects[0] = effects[0] - scale * effects[1]
    effects[2] = effects[2] + scale * effects[1]
    return effects


@pytest.mark.parametrize("position", [0, 3], ids=["first", "last"])
@pytest.mark.parametrize("kind", ["shape", "hermitian", "negative", "non_finite"])
def test_effect_certificate_gives_the_eigvalsh_verdict(monkeypatch, kind, position):
    # an explicit basis gets the verdict of a POVM of its effects, and the
    # Cholesky certificate gives the verdict of the eigvalsh route
    basis = bad_bell_basis(kind, position)
    got = verdict(teleport_basis, basis)
    assert got is not None
    assert got == verdict(POVM, AlgebraShape((4,)), basis)
    monkeypatch.setattr("condchan.povm.validate_psd", oracle_validate_psd)
    assert got == verdict(teleport_basis, basis)


def test_effect_certificate_gives_the_eigvalsh_verdict_at_the_edge(monkeypatch):
    bases = [edge_bell_basis(INPUT_TOL * (1 - 1e-3)), edge_bell_basis(INPUT_TOL * (1 + 1e-3))]
    bases += [bell_basis(d) for d in range(2, 7)]
    verdicts = [verdict(teleport_basis, basis) for basis in bases]
    monkeypatch.setattr("condchan.povm.validate_psd", oracle_validate_psd)
    assert verdicts == [verdict(teleport_basis, basis) for basis in bases]
    assert verdicts[0] is None and verdicts[1][:2] == (InvariantViolation, "positive")
    assert verdicts[2:] == [None] * 5


def count_linalg(monkeypatch):
    """Record (name, input shape) of every eigh, eigvalsh and cholesky call."""
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_valid_input_is_validated_without_eigvalsh(rng, monkeypatch):
    shape, q = AlgebraShape((3, 2)), AlgebraShape((2,))
    rho = random_state(shape, rng).matrix
    joint = random_joint_state(shape, q, rng).matrix
    cond = choi_conditional(random_channel(shape, q, 3, rng)).matrix
    elements = random_povm(shape, 4, rng).elements
    stack = np.stack([random_state(shape, rng).matrix for _ in range(3)])
    calls = count_linalg(monkeypatch)
    State(shape, rho)
    JointState(shape, q, joint)
    ConditionalState(shape, q, cond)
    POVM(shape, elements)
    states_from_stack(shape, stack)
    POVM(AlgebraShape((9,)), bell_basis(3))  # how teleport validates an explicit basis
    assert [name for name, _ in calls] == ["cholesky"] * 6


def test_second_teleport_factors_no_bell_stack(rng, monkeypatch):
    # neither the first call nor a later one validates a (d², d², d²) stack
    d = 4
    shape = AlgebraShape((d,))
    c, s = random_channel(shape, shape, 2, rng), random_state(shape, rng)
    bell_stack = (d * d, d * d, d * d)
    calls = count_linalg(monkeypatch)
    first = teleport(c, s)
    second = teleport(c, s)
    assert calls and all(shape != bell_stack for _, shape in calls)
    assert second.outcome_probabilities.tobytes() == first.outcome_probabilities.tobytes()


@pytest.mark.parametrize("d", [*range(2, 9), 16])
def test_bell_reductions_match_the_effect_contraction(rng, d):
    # Tr_1(E_ab (ρ ⊗ I)) over the kron-built basis, on a matrix with
    # entries everywhere; at d = 16 only against W ρᵀ W† / d, since the
    # effects would take 268 MB
    rho = random_complex(rng, d, d)
    got = _bell_reduced(rho).reshape(d * d, d, d)
    # its index and phase tables are built once per dimension, read-only
    rolled, phases = _bell_tables(d)
    assert _bell_tables(d)[0] is rolled and not (rolled.flags.writeable or phases.flags.writeable)
    if d <= 8:
        effects = np.stack(oracle_bell_basis(d)).reshape(d * d, d, d, d, d)
        close(got, np.einsum("ixayb,yx->iab", effects, rho))
    for idx in range(d * d):
        w = oracle_weyl(d, *divmod(idx, d))
        close(got[idx], w @ rho.T @ w.conj().T / d)


# -- oracles: the per-Kraus sums and einsum contractions that became products


def oracle_stacked_apply_matrix(kraus, x):
    return (kraus @ x[..., None, :, :] @ kraus.conj().swapaxes(1, 2)).sum(-3)


def oracle_stacked_kraus_gram(kraus):
    return (kraus.conj().swapaxes(1, 2) @ kraus).sum(0)


def oracle_choi_matrix(kraus, shape_in):
    """The Choi matrix as formed from the Kraus tensor before the superoperator
    was held; the held form must reproduce it bit for bit."""
    r, dout, din = kraus.shape
    vecs = kraus.swapaxes(1, 2).reshape(r, din * dout)
    full = (vecs.T @ vecs.conj()).reshape(din, dout, din, dout)
    return (full * block_mask(shape_in)[:, None, :, None]).reshape(din * dout, din * dout)


def oracle_einsum_lhs(j, n, m):
    da, db = j.shape_a.total_dim, j.shape_b.total_dim
    ns, ms = np.stack(n.elements), np.stack(m.elements)
    rho = j.matrix.reshape(da, db, da, db)
    return np.einsum("jax,kby,xyab->jk", ns, ms, rho, optimize=True).real


def oracle_einsum_branches(input_matrix, resource_matrix, effects, dim_out):
    d = input_matrix.shape[0]
    stacked = effects.reshape(len(effects), d, d, d, d)
    reduced = np.einsum("ixayb,yx->iab", stacked, input_matrix)
    resource = resource_matrix.reshape(d, dim_out, d, dim_out)
    return np.einsum("iab,boar->ior", reduced, resource, optimize=True)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def check_branch_products(rng, shape, c, effects=None):
    """The branches of the Bell basis through its closed-form reduction
    (``effects`` None), or of an explicit basis through ``teleport``,
    against the einsum contraction over the effects."""
    s = random_state(shape, rng)
    d, dim_out = shape.total_dim, c.shape_out.total_dim
    resource = choi_conditional(c).matrix / d
    if effects is None:
        effects = np.stack(oracle_bell_basis(d))
        probs, states = _run_branches(_bell_reduced(s.matrix), resource, c.shape_out)
    else:
        report = teleport(c, s, effects, 0)
        probs, states = report.outcome_probabilities, report.branch_states
    expected = oracle_einsum_branches(s.matrix, resource, effects, dim_out)
    close(probs, np.trace(expected, axis1=1, axis2=2).real)
    for p, state, branch in zip(probs, states, expected, strict=True):
        assert (state is None) == (p <= NEGLIGIBLE)
        if state is not None:
            close(state.matrix, hermitize(branch / p))


D16 = [AlgebraShape((16,)), AlgebraShape((1,) * 16), AlgebraShape((8, 4, 2, 1, 1))]


# -- tests: products on the held superoperator and reordered views -----------


@pytest.mark.parametrize("shape", SHAPES + D16, ids=shape_id)
def test_superoperator_products_match_stacked_kraus_oracle(rng, shape):
    d = shape.total_dim
    for shape_out in (shape, AlgebraShape((2, 1))):
        c = random_channel(shape, shape_out, max(2, (d + 2) // 3), rng)
        # algebra elements, a stack, a stack of stacks, and raw matrices with
        # entries off the input blocks: the product is the exact Kraus action
        for x in (
            random_state(shape, rng).matrix,
            np.stack([random_state(shape, rng).matrix for _ in range(4)]),
            random_complex(rng, 2, 3, d, d),
            random_complex(rng, d, d),
        ):
            close(apply_matrix(c, x), oracle_stacked_apply_matrix(c.kraus, x))
        close(_kraus_gram(c.kraus), oracle_stacked_kraus_gram(c.kraus))
        choi = choi_conditional(c).matrix
        assert choi.tobytes() == oracle_choi_matrix(c.kraus, shape).tobytes()


@pytest.mark.parametrize("shape", SHAPES + D16[:1], ids=shape_id)
def test_theorem_lhs_products_match_einsum_oracle(rng, shape):
    for rank_a in (None, max(1, shape.total_dim // 2)):
        j = random_joint_state(shape, shape, rng, rank_a=rank_a)
        n, m = random_povm(shape, 4, rng), random_povm(shape, 3, rng)
        close(verify_theorem(j, n, m).lhs, oracle_einsum_lhs(j, n, m))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_branch_products_match_einsum_oracle(rng, shape):
    d = shape.total_dim
    for shape_out in output_classes(d):
        c = random_channel(shape, shape_out, 2, rng)
        check_branch_products(rng, shape, c)
        check_branch_products(rng, shape, c, np.stack(bell_basis(d)))


def test_branch_products_match_einsum_oracle_at_dim_16(rng):
    # a two-outcome basis keeps the effects at 2 MB instead of 268 MB
    shape = AlgebraShape((16,))
    success = bell_basis(16)[0]
    c = random_channel(shape, AlgebraShape((4, 2)), 3, rng)
    check_branch_products(rng, shape, c, np.stack([success, np.eye(256) - success]))


def test_superoperator_is_formed_once_per_channel(rng, monkeypatch):
    shape = AlgebraShape((3, 2))
    formed = []
    original = channels_module._superoperator

    def counted(kraus):
        formed.append(kraus.shape)
        return original(kraus)

    monkeypatch.setattr(channels_module, "_superoperator", counted)
    c = random_channel(shape, AlgebraShape((2, 1)), 3, rng)
    unchecked = Channel(shape, AlgebraShape((2, 1)), c.kraus, check=False)
    assert formed == [c.kraus.shape] * 2
    s = random_state(shape, rng)
    choi_conditional(c)
    choi_conditional(c)
    for _ in range(10):
        apply(c, s)
    assert validate_channel(c).ok
    assert len(formed) == 2
    assert unchecked._superop.tobytes() == c._superop.tobytes()
    assert c._superop.shape == (25, 9)
    with pytest.raises(ValueError, match="read-only"):
        c._superop[0, 0] = 1.0


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_output_block_deviation_is_read_off_the_superoperator(rng, shape):
    # Kraus operators onto a full output block, declared on a finer output
    # algebra: trace preserving, but leaking off the output blocks
    d_out = 3
    kraus = random_channel(shape, AlgebraShape((d_out,)), shape.total_dim, rng).kraus
    for shape_out in (AlgebraShape((2, 1)), AlgebraShape((1, 1, 1))):
        expected = support_deviation(oracle_choi_matrix(kraus, shape), shape, shape_out)
        assert expected > 1e-3
        with pytest.raises(InvariantViolation) as caught:
            Channel(shape, shape_out, kraus)
        assert caught.value.invariant == "output_block_support"
        assert caught.value.deviation == expected
        Channel(shape, shape_out, kraus, check=False)


# -- tests: spectra without eigenvectors ------------------------------------


def oracle_is_isometry(c, tol=1e-9):
    w = herm_eig(choi_conditional(c).matrix).eigenvalues
    if not w.size:
        return False
    trace = float(np.sum(w))
    if abs(float(w[0]) - trace) > tol:
        return False
    return bool(np.all(np.abs(w[1:]) <= tol))


def oracle_choi_min_eigenvalue(c):
    return float(herm_eig(oracle_choi_matrix(c.kraus, c.shape_in)).eigenvalues[-1])


def isometry_cases(rng, shape):
    d = shape.total_dim
    yield Channel(shape, AlgebraShape((d,)), (random_unitary(d, rng),))
    yield Channel(shape, AlgebraShape((d + 1,)), (random_unitary(d + 1, rng)[:, :d],))
    for env in (1, 2, d):
        yield random_channel(shape, shape, env, rng)
    # a second Kraus operator of norm 1e-6 leaves a Choi eigenvalue of about
    # d·1e-12: isometric under tol 1e-9, not under 1e-12
    u, v = random_unitary(d, rng), random_unitary(d, rng)
    yield Channel(shape, AlgebraShape((d,)), (u, 1e-6 * v), check=False)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_spectral_checks_match_the_full_eigendecomposition(rng, shape):
    verdicts = set()
    for c in isometry_cases(rng, shape):
        for tol in (1e-9, 1e-12):
            assert is_isometry(c, tol) == oracle_is_isometry(c, tol)
            verdicts.add(is_isometry(c, tol))
        report = validate_channel(c)
        assert abs(report.choi_min_eigenvalue - oracle_choi_min_eigenvalue(c)) <= ATOL
    # the pinched Choi matrix of a reducible input has one rank per block
    assert verdicts == ({True, False} if len(shape.block_dims) == 1 else {False})
    h = hermitize(random_complex(rng, 2 * shape.total_dim, 2 * shape.total_dim))
    w = herm_eigvals(h)
    close(w, herm_eig(h).eigenvalues)
    assert np.all(np.diff(w) <= 0)


def test_spectral_checks_make_one_eigvalsh_call(rng, monkeypatch):
    shape = AlgebraShape((4,))
    unitary = Channel(shape, shape, (random_unitary(4, rng),))
    noisy = random_channel(shape, AlgebraShape((3, 1)), 3, rng)
    small = random_channel(shape, AlgebraShape((2, 1)), 3, rng)
    calls = count_linalg(monkeypatch)
    assert is_isometry(unitary) and not is_isometry(noisy)
    # the noisy Choi matrix has one block of 4·3 and one of 4·1
    per_block = [("eigvalsh", (1, 4, 4)), ("eigvalsh", (1, 12, 12))]
    assert calls == [("eigvalsh", (16, 16))] + per_block
    calls.clear()
    assert validate_channel(noisy).ok and validate_channel(small).ok
    # a Choi matrix below BLOCKWISE_MIN_DIM is decomposed whole
    assert calls == per_block + [("eigvalsh", (12, 12))]


def test_spectral_checks_keep_the_hermiticity_check(rng):
    g = random_complex(rng, 4, 4)
    for decompose in (herm_eigvals, herm_eig):
        with pytest.raises(InvariantViolation) as info:
            decompose(g)
        assert (info.value.invariant, info.value.deviation) == ("hermitian", np.abs(g - g.conj().T).max())
    assert herm_eigvals(g + g.conj().T).shape == (4,)


# -- tests: one spectrum per matrix ------------------------------------------


def record_decompositions(monkeypatch):
    """Record a copy of the input of every eigh and eigvalsh call."""
    inputs = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            inputs.append(np.array(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return inputs


def same_matrix(x, y):
    """One matrix, counting a matrix and its transpose as one."""
    if x.shape != y.shape:
        return False
    return any(np.allclose(x, z, rtol=0, atol=1e-13) for z in (y, y.swapaxes(-1, -2)))


def correspondence_calls(rng, shape_a, shape_b, rank_a):
    """Every public correspondence map on one random instance, as (name, call)."""
    j = random_joint_state(shape_a, shape_b, rng, rank_a=rank_a)
    full = random_joint_state(shape_a, shape_b, rng)
    c = random_channel(shape_a, shape_b, 2, rng)
    cond_a, cond_b = conditional_from_joint(j, "a"), conditional_from_joint(full, "b")
    n, m = random_povm(shape_a, 3, rng), random_povm(shape_b, 2, rng)
    s = random_state(shape_a, rng)
    ensemble = prepare(n, s)
    yield "conditional_from_joint a", lambda: conditional_from_joint(j, "a")
    yield "conditional_from_joint b", lambda: conditional_from_joint(j, "b")
    yield "joint_from_conditional", lambda: joint_from_conditional(reduce(j, "a"), cond_a)
    yield "bayes_invert", lambda: bayes_invert(cond_b, reduce(full, "a"), reduce(full, "b"))
    yield "choi_conditional", lambda: choi_conditional(c)
    yield "channel_from_conditional", lambda: channel_from_conditional(cond_a)
    yield "prepare", lambda: prepare(n, s)
    yield "povm_from_ensemble", lambda: povm_from_ensemble(ensemble, s)
    yield "verify_theorem", lambda: verify_theorem(j, n, m)
    if shape_a.is_irreducible:
        yield "teleport", lambda: teleport(c, s)
    if shape_a == CLASSICAL_BIT:
        yield "teleport_classical", lambda: teleport_classical(c, s)


PAIRS = [(AlgebraShape((3,)), AlgebraShape((2,))), (CLASSICAL_BIT, AlgebraShape((2, 1))),
         (AlgebraShape((2, 1)), AlgebraShape((1, 1, 1))), (AlgebraShape((2,)), AlgebraShape((4,)))]


@pytest.mark.parametrize("rank_a", [None, 1])
@pytest.mark.parametrize("shapes", PAIRS, ids=lambda p: f"{shape_id(p[0])}-{shape_id(p[1])}")
def test_each_matrix_is_decomposed_at_most_once_per_call(rng, monkeypatch, shapes, rank_a):
    calls = list(correspondence_calls(rng, *shapes, rank_a))
    inputs = record_decompositions(monkeypatch)
    for name, call in calls:
        inputs.clear()
        call()
        repeats = [(i, k) for k in range(len(inputs)) for i in range(k)
                   if same_matrix(inputs[i], inputs[k])]
        assert not repeats, (name, [inputs[k].shape for _, k in repeats])


def test_shared_spectra_take_one_eigh_per_marginal(rng, monkeypatch):
    # the maps that read two views of one marginal: one decomposition each
    qutrit, qubit = AlgebraShape((3,)), AlgebraShape((2,))
    j = random_joint_state(qutrit, qubit, rng)
    n, m = random_povm(qutrit, 3, rng), random_povm(qubit, 2, rng)
    s = random_state(qutrit, rng)
    ensemble = prepare(n, s)
    cond_b = conditional_from_joint(j, "b")
    calls = count_linalg(monkeypatch)
    verify_theorem(j, n, m)
    assert calls.count(("eigh", (3, 3))) == 1
    calls.clear()
    bayes_invert(cond_b, reduce(j, "a"), reduce(j, "b"))
    assert calls.count(("eigh", (2, 2))) == 1
    calls.clear()
    povm_from_ensemble(ensemble, s)
    assert [call for call in calls if call[0] != "cholesky"] == [("eigh", (3, 3))]


# -- tests: spectra per algebra block ----------------------------------------


def choi_from_kraus(kraus):
    """Σ_K vec(K) vec(K)†, vec(K)[a * d_out + b] = K[b, a]: the conditional
    the Kraus operators were read from."""
    vecs = np.asarray(kraus).swapaxes(1, 2).reshape(len(kraus), -1)
    return vecs.T @ vecs.conj()


def off_mask(blocks):
    """The (D, D) mask of the entries outside the blocks of an index."""
    d = blocks.compact.shape[1]
    off = np.zeros(d * d, dtype=bool)
    off[blocks.outside] = True
    return off.reshape(d, d)


def block_cases(rng, shape):
    """(matrix, block index, conditional or None) on ``shape``: Choi matrices
    of random channels and of the identity channel (degenerate), conditionals
    of rank-deficient joints, and those joints' rank-deficient marginals."""
    for other in (shape, AlgebraShape((2, 1))):
        j = random_joint_state(shape, other, rng, rank_a=max(1, shape.total_dim // 2))
        conds = [
            choi_conditional(random_channel(shape, other, shape.total_dim, rng)),
            conditional_from_joint(j, "a"),
        ]
        if other == shape:
            conds.append(choi_conditional(identity_channel(shape)))
        for cond in conds:
            yield cond.matrix, block_index(cond.shape_in, cond.shape_out), cond
        yield reduce(j, "a").matrix, block_index(shape), None


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_block_spectra_match_the_full_eigendecomposition(rng, shape):
    for m, blocks, cond in block_cases(rng, shape):
        full = np.linalg.eigh(m)[0][::-1]
        close(herm_eig(m, blocks).eigenvalues, full)
        close(herm_eigvals(m, blocks), full)
        if cond is not None:
            # a degenerate eigenspace may give another Kraus basis, not another channel
            dense = oracle_kraus_from_conditional(cond, blocks=False)
            close(choi_from_kraus(channel_from_conditional(cond).kraus), choi_from_kraus(dense))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_block_eigenvectors_are_exactly_zero_off_their_block(rng, shape):
    for m, blocks, cond in block_cases(rng, shape):
        if blocks is None:
            continue
        nonzero = herm_eig(m, blocks).eigenvectors.T != 0
        # no eigenvector has two nonzero entries in different blocks
        assert not (nonzero[:, :, None] & nonzero[:, None, :] & off_mask(blocks)).any()
        if cond is not None:
            choi = choi_from_kraus(channel_from_conditional(cond).kraus)
            assert support_deviation(choi, cond.shape_in, cond.shape_out) == 0.0


def test_block_index_starts_at_the_crossover_dimension():
    # below BLOCKWISE_MIN_DIM (and for one block) there is no index, so the
    # matrix is decomposed whole
    shapes = [AlgebraShape(dims) for dims in ((3,), (2, 1), (1, 1, 1), (3, 1), (2, 2), (4, 2, 1, 1))]
    for a in shapes:
        for b in shapes:
            split = a.total_dim * b.total_dim >= BLOCKWISE_MIN_DIM and len(a.block_dims) * len(b.block_dims) > 1
            assert (block_index(a, b) is not None) == split
        assert (block_index(a) is not None) == (a.total_dim >= BLOCKWISE_MIN_DIM)


def test_block_spectra_reject_off_block_weight_and_keep_their_errors(rng, monkeypatch):
    shape = AlgebraShape((3, 1))
    blocks = block_index(shape, shape)
    m = choi_conditional(random_channel(shape, shape, 2, rng)).matrix
    off = off_mask(blocks)
    i, k = np.argwhere(off)[0]
    at_tol, leaky = np.array(m), np.array(m)
    at_tol[i, k] = at_tol[k, i] = BLOCK_TOL
    leaky[i, k] = leaky[k, i] = 2 * BLOCK_TOL
    close(herm_eigvals(at_tol, blocks), herm_eig(at_tol, blocks).eigenvalues)
    for fn in (herm_eig, herm_eigvals):
        with pytest.raises(InvariantViolation) as info:
            fn(leaky, blocks)
        assert (info.value.invariant, info.value.deviation) == ("block_support", 2 * BLOCK_TOL)
    # an unchecked conditional does not lose its leak in Kraus extraction
    with pytest.raises(InvariantViolation, match="block_support"):
        channel_from_conditional(ConditionalState(shape, shape, leaky, check=False))
    # without an index the whole matrix is decomposed, leak included
    close(herm_eigvals(leaky), np.linalg.eigvalsh(leaky)[::-1])
    # drift within INPUT_TOL inside a block is symmetrized away first
    drift = np.array(m)
    drift[~off & np.triu(np.ones(m.shape, dtype=bool), 1)] += 1e-11
    for fn in (lambda x: herm_eig(x, blocks).eigenvalues, lambda x: herm_eigvals(x, blocks)):
        assert fn(drift).tobytes() == fn(hermitize(drift)).tobytes()
    for decompose in (herm_eig, herm_eigvals):
        g = random_complex(rng, 16, 16)
        with pytest.raises(InvariantViolation) as info:
            decompose(g, blocks)
        assert (info.value.invariant, info.value.deviation) == ("hermitian", np.abs(g - g.conj().T).max())

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    for name, fn in (("eigh", herm_eig), ("eigvalsh", herm_eigvals)):
        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(NoConvergence):
            fn(m, blocks)


def test_channel_checks_read_a_leaking_choi_matrix_whole(rng):
    # a checked channel may leave up to IDENTITY_TOL off the output blocks;
    # its checks then decompose the whole Choi matrix instead of raising
    shape = AlgebraShape((3, 1))
    k = random_block_unitary(shape, rng)
    k[3, 0] = 1e-10
    c = Channel(shape, shape, (k,))
    report = validate_channel(c)
    assert BLOCK_TOL < report.block_support_deviation <= IDENTITY_TOL
    assert abs(report.choi_min_eigenvalue - oracle_choi_min_eigenvalue(c)) <= ATOL
    assert not is_isometry(c)  # the pinched Choi matrix has one rank per input block


def test_conditioning_pinches_a_leaking_marginal(rng):
    # a joint may leave up to BLOCK_TOL on each entry off its pair blocks, and
    # its marginal sums d_b of them; the marginal is pinched onto its algebra,
    # so it is decomposed per block and conditioning reads the leak-free joint
    shape_a, shape_b = AlgebraShape((8, 8)), AlgebraShape((4,))
    assert shape_a.total_dim >= BLOCKWISE_MIN_DIM
    p = np.full(16, 0.1 / 14)
    p[0] = p[8] = 0.45
    exact = np.kron(np.diag(p), np.eye(4) / 4)
    m = exact.copy()
    for k in range(4):
        m[k, 32 + k] = m[32 + k, k] = 0.4 * BLOCK_TOL
    j = JointState(shape_a, shape_b, m)
    assert support_deviation(partial_trace(m, 16, 4, keep="left"), shape_a) > BLOCK_TOL
    assert support_deviation(reduce(j, "a").matrix, shape_a) == 0.0
    leak_free = JointState(shape_a, shape_b, exact)
    close(conditional_from_joint(j, "a").matrix, oracle_conditional(leak_free, "a"))
    report = verify_theorem(j, random_povm(shape_a, 2, rng), random_povm(shape_b, 3, rng))
    assert report.max_deviation <= 1e-9


# -- tests: documents -------------------------------------------------------


def test_make_fixtures_regenerates_the_committed_fixtures(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("make_fixtures", root / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    script.main()
    committed = root / "tests" / "fixtures"
    names = sorted(p.name for p in committed.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name
