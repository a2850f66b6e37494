"""Index contractions against the materialized-kron formulas they replace.

Each oracle below is the explicit ``np.kron`` construction of the same
quantity, kept here (and only here) so that every contraction in the
library is pinned to it within 1e-12 on irreducible, classical and mixed
algebras of dimension 2 to 8, rank-deficient first marginals included.
The same holds for the batched forms of per-item loops: products over the
stacked Kraus tensor, the cached support masks and the vectorized phase
convention (the last two bit for bit), and the stacked teleport and
preparation paths, whose eigendecomposition counts are pinned as well.
Teleport judges one state, the success branch, and no unread outcome of
tiny probability can fail it; a POVM holds one read-only tensor, and input
that does not stack keeps the error it gets element by element.
The Cholesky positivity certificate is pinned to the eigvalsh verdict it
replaced: the same acceptance, exception, invariant and deviation, also
where it certifies a joint or conditional per block, against the verdict
of the whole matrix.  The single products on the held superoperator and on
reordered 4-index views are pinned to the per-Kraus sums and einsum
contractions they replaced, the superoperator is formed once per channel,
and the closed-form Bell reductions are pinned to the effect contraction
over the kron-built basis, which no teleport call forms.
The isometry check reads the Choi spectrum from one eigh of the whole matrix,
pinned to numpy's eigvalsh verdict, and the channel constructor's verdict is
pinned to an oracle of its Σ K†K deviation, Choi leak and Choi λmin.  Every public
correspondence map decomposes each distinct matrix (a matrix and its
transpose counted as one) at most once per call.  Spectra taken per algebra
block agree with the whole-matrix decomposition within 1e-12 (by Choi
matrix where a degenerate eigenspace may change the Kraus basis), their
eigenvectors are exactly zero off their block, a matrix below
``BLOCKWISE_MIN_DIM`` is decomposed whole, and off-block weight above
``BLOCK_TOL`` is rejected rather than dropped, except in a derived matrix
that may carry it (a joint's marginal, a channel's Choi matrix), which is
decomposed whole.  The scalar pass proves a single unit-trace matrix definite,
or hands it to the judge and the numpy Cholesky as it does every other matrix,
and the matrix keeps their verdict and tight floor.  Where the pass proves a
state definite and a channel's bounds fit, ``apply`` skips judging the output: it gives
the judged path's verdict and bytes, and every output it skips passes the judge.
So does ``choi_conditional`` for a certified channel, whose unchecked Choi matrix
passes each constructor test with the margin its proof states, and so does
conditioning a joint whose tight certificate fits the rounding bound: the
tight certificate, one Cholesky per block group and one eigvalsh of a stack
that does not factor, gives the eigvalsh verdict, and every floor it returns
holds.  Every output that a map builds by ``_trusted``, unjudged, is one its
public constructor accepts, read-only and sharing no memory with the map's
inputs, and its floor holds.  A map decomposes a validated object's matrix
without a second judge, with the solver calls and bits of the judging route,
and the channel ``channel_from_conditional`` rebuilds holds the bits and the
gate the public constructor gives its Kraus tensor: its trace deviation is
measured, not assumed.
"""

import cmath
import importlib.util
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condchan.channels as channels_module
from condchan import (
    POVM,
    AlgebraShape,
    Channel,
    CondChanError,
    ConditionalState,
    InvariantViolation,
    JointState,
    ShapeMismatch,
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
    sample,
    swap_factors,
    teleport,
    verify_theorem,
)
from condchan.algebra import layout
from condchan.channels import (
    _choi_matrix,
    _kraus_gram,
    apply_matrix,
    channel_from_conditional,
    is_isometry,
    max_ent_matrix,
)
from condchan.conditional import _pinched_hermitian, _restricted_support
from condchan.errors import NoConvergence
from condchan.matcore import (
    BLOCKWISE_MIN_DIM,
    SCALAR_MAX_DIM,
    _fix_phases,
    _proves_definite,
    herm_eig,
    hermitize,
    identity,
    judge,
    max_abs,
    projector_deviation,
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
from condchan.states import _marginal, _trusted, states_from_stack
from condchan.tolerances import (
    BLOCK_TOL,
    IDENTITY_TOL,
    INPUT_TOL,
    NEGLIGIBLE,
    _cholesky_floor,
)
from conftest import QUBIT, QUTRIT, support_deviation, teleport_branches

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


def check_branches(report, branches, c, s, effects):
    """Compare a teleport report and its ``_run_branches`` arrays (``teleport_branches``)
    with the per-effect validator, the kron formula and the per-branch State loop
    (None at or below the floor): every branch, every kept one normalized, and Bob's
    state bit for bit against its normalized row; return the oracle's branch states."""
    d = c.shape_in.total_dim
    ops = oracle_povm_effects(effects, d * d)
    resource = oracle_choi(c.kraus, c.shape_in) / d
    probs, oracle = oracle_branches(s.matrix, resource, ops, c.shape_out.total_dim)
    states = [
        State(c.shape_out, hermitize(branch / p)) if p > NEGLIGIBLE else None
        for p, branch in zip(probs, oracle)
    ]
    got_probs, kept, unnormalized = branches
    assert got_probs is report.outcome_probabilities
    close(got_probs, probs)
    assert kept.tolist() == [state is not None for state in states]
    close(unnormalized, np.stack(oracle))
    wanted = [state for state in states if state is not None]
    for got, p, want in zip(unnormalized[kept], got_probs[kept], wanted, strict=True):
        close(hermitize(got / p), want.matrix)
    success = report.success_index
    row = hermitize(unnormalized[[success]] / got_probs[success])[0]
    assert report.bob_state_on_success.matrix.tobytes() == row.tobytes()
    close(report.bob_state_on_success.matrix, states[success].matrix)
    return states


def check_explicit_basis(monkeypatch, c, s, effects):
    check_branches(*teleport_branches(monkeypatch, c, s, effects, 0), c, s, effects)


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
def test_teleport_branches_match_kron_oracle(rng, shape, monkeypatch):
    d = shape.total_dim
    # measuring which basis state the input is in: on the pure first basis
    # state every outcome past the first is a branch below the floor
    which_input = [np.kron(np.diag(np.eye(d)[k]), np.eye(d)) for k in range(d)]
    for shape_out in output_classes(d):
        c = random_channel(shape, shape_out, 2, rng)
        check_explicit_basis(monkeypatch, c, random_state(shape, rng), list(bell_basis(d)))
        report, branches = teleport_branches(monkeypatch, c, pure_first(shape), which_input, 0)
        assert branches[1].tolist() == [True] + [False] * (d - 1)
        check_branches(report, branches, c, pure_first(shape), which_input)


@pytest.mark.parametrize("shape", [AlgebraShape((8,)), AlgebraShape((4, 2, 1, 1))], ids=shape_id)
def test_teleport_branches_match_kron_oracle_at_dim_8(rng, shape, monkeypatch):
    # a two-outcome basis keeps the 512 x 512 oracle products affordable
    success = bell_basis(8)[0]
    c = random_channel(shape, AlgebraShape((8,)), 2, rng)
    check_explicit_basis(monkeypatch, c, random_state(shape, rng), [success, np.eye(64) - success])


def test_teleport_classical_matches_kron_oracle(rng, monkeypatch):
    even = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    odd = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    identity = Channel(CLASSICAL_BIT, CLASSICAL_BIT, (np.diag([1.0, 0]), np.diag([0, 1.0])))
    outputs = (CLASSICAL_BIT, AlgebraShape((2,)), AlgebraShape((2, 1)))
    for c in (identity, *(random_channel(CLASSICAL_BIT, out, 2, rng) for out in outputs)):
        for s in (random_state(CLASSICAL_BIT, rng), pure_first(CLASSICAL_BIT)):
            report, branches = teleport_branches(monkeypatch, c, s)
            _, branch_odd = check_branches(report, branches, c, s, [even, odd])
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
    es = herm_eig(cond.matrix, layout(cond.shape_in, cond.shape_out) if blocks else None)
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


@pytest.mark.any_kernel
def test_kraus_are_one_read_only_tensor(rng):
    c = random_channel(AlgebraShape((2, 1)), AlgebraShape((4,)), 3, rng)
    assert c.kraus.shape == (len(c.kraus), 4, 3)
    assert c.kraus.dtype == np.complex128
    with pytest.raises(ValueError):
        c.kraus[0, 0, 0] = 1.0
    ops = list(c.kraus)
    assert all(k.shape == (4, 3) and np.shares_memory(k, c.kraus) for k in ops)


# -- tests: cached layouts ---------------------------------------------------


@pytest.mark.any_kernel
@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_layouts_are_cached_read_only_and_match_the_loop(rng, shape):
    other = AlgebraShape((1, 2))
    cases = [
        ((shape,), oracle_block_mask(shape)),
        ((shape, other), np.kron(oracle_block_mask(shape), oracle_block_mask(other))),
    ]
    for shapes, expected in cases:
        got = layout(*shapes)
        assert layout(*(AlgebraShape(s.block_dims) for s in shapes)) is got
        assert got.mask.dtype == bool
        np.testing.assert_array_equal(got.mask, expected)
        if expected.all():
            assert got.outside is None
        else:
            np.testing.assert_array_equal(got.outside, np.flatnonzero(~expected))
        assert got.half_mask.tobytes() == (0.5 * expected).tobytes()
        arrays = list(cached_arrays(got))
        assert len(arrays) >= 2 and not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError):
            got.mask[0, -1] = not got.mask[0, -1]
    # the deviation helpers equal the old project-and-subtract formula
    d = shape.total_dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert support_deviation(m, shape) == np.max(np.abs(m - m * oracle_block_mask(shape)))
    n = other.total_dim * d
    mm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pair = np.kron(oracle_block_mask(other), oracle_block_mask(shape))
    assert support_deviation(mm, other, shape) == np.max(np.abs(mm - mm * pair))


def cached_arrays(value):
    """Every array in a cached value: in tuples, and in the attributes of a ``Layout``."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from cached_arrays(item)
    elif hasattr(value, "__dataclass_fields__"):
        yield from cached_arrays(list(vars(value).values()))


def test_every_cached_constant_is_read_only():
    from condchan import algebra, cli, matcore, scenarios, serialize

    a, b = AlgebraShape((2, 2)), AlgebraShape((3, 1))
    calls = {
        matcore.identity: (3,), matcore._tight_shift: (3, 3), matcore._scalar_proof: (3,),
        algebra.layout: (a, b), algebra.choi_leak_index: (a, b),
        scenarios._bell_tables: (3,), serialize._mirror: (3,),
    }
    modules = (algebra, cli, matcore, scenarios, serialize)
    cached = {obj for mod in modules for obj in vars(mod).values()
              if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}
    assert cached == {*calls, cli._parser}  # the parser is not a constant, and not handed out
    assert layout(a, b).groups and layout(a, b).half_mask.tobytes() == (0.5 * layout(a, b).mask).tobytes()
    for fn, args in calls.items():
        value = fn(*args)
        assert fn(*args) is value
        for arr in cached_arrays(value):
            assert not arr.flags.writeable, fn.__name__
    assert identity(3).tobytes() == np.eye(3, dtype=complex).tobytes()
    with pytest.raises(ValueError):
        identity(2)[0, 0] = 2.0


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


# -- oracles and tests: herm_eig without a gather-scatter phase fix or an index sort


def oracle_herm_eig(m, blocks=None):
    """(eigenvalues, eigenvectors) as the spectral routine made them with a gather-scatter
    phase fix and an index sort: the same ``judge`` and ``eigh`` calls, the loop phase fix,
    and the descending order of ``argsort(-w, kind="stable")``."""
    arr = np.array(m, dtype=np.complex128, order="C")
    grouped = blocks is not None and blocks.groups
    parts = judge(arr[None], blocks)[0] if grouped else [judge(arr[None], None)[0][0][0]]
    solved = [np.linalg.eigh(part) for part in parts]
    if not grouped:
        w, v = solved[0]
        v = oracle_fix_phases(v)
    else:
        w = np.concatenate([pw.ravel() for pw, _ in solved])
        compact = np.zeros(blocks.compact.shape, dtype=np.complex128)
        for group, (_, pv) in zip(blocks.groups, solved):
            compact[: group.size, group.columns] = pv.transpose(1, 0, 2).reshape(group.size, -1)
        v = np.zeros((w.size, w.size), dtype=np.complex128)
        v.ravel()[blocks.scatter] = oracle_fix_phases(compact)[blocks.compact]
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def assert_herm_eig_matches_oracle(m, blocks=None):
    """Same bytes and the same layout as the oracle; returns whether the spectrum has a tie."""
    got = herm_eig(m, blocks)
    w, v = oracle_herm_eig(m, blocks)
    assert got.eigenvalues.tobytes() == w.tobytes()
    assert got.eigenvectors.tobytes() == v.tobytes()
    assert (got.eigenvalues.strides, got.eigenvectors.strides) == (w.strides, v.strides)
    return len(set(w.tolist())) < len(w)


def random_hermitian(rng, d):
    g = random_complex(rng, d, d)
    return g + g.conj().T


def tied_matrices(rng):
    """Matrices whose spectra have exact ties: repeated diagonals, the identity, the zero matrix
    and rank-deficient projectors, on the standard basis and rotated into another one."""
    for d in (2, 3, 5, 8, 12):
        yield np.eye(d)
        yield np.zeros((d, d))
        yield np.diag(rng.integers(0, 3, d).astype(float))
        yield np.diag(np.repeat([2.0, -1.0], [d - d // 2, d // 2]))
        yield np.diag((np.arange(d) < d // 2).astype(float))  # a projector of rank d // 2
        u = random_unitary(d, rng)[:, : max(1, d // 3)]
        yield hermitize(u @ u.conj().T)
        w = random_unitary(d, rng)
        yield hermitize((w * np.repeat([1.0, 0.0], [1, d - 1])) @ w.conj().T)


def negligible_leading_row(rng, d):
    """A Hermitian matrix whose first row and column are below NEGLIGIBLE: the eigenvectors
    but one have a negligible first component, so their pivot is a later one."""
    m = random_hermitian(rng, d)
    m[0] *= NEGLIGIBLE / 100
    m[:, 0] *= NEGLIGIBLE / 100
    return m


BLOCKED_PAIRS = [((2, 2), (3, 1)), ((1,) * 4, (1,) * 4), ((2, 1), (3, 2, 1)), ((4, 4), (1, 1)),
                 ((2, 2), (2, 2)), ((3, 2), (1,) * 4)]


@pytest.mark.any_kernel
@pytest.mark.parametrize("d", range(1, 13))
def test_herm_eig_is_bit_identical_to_the_sorting_oracle_on_random_matrices(d):
    rng = np.random.default_rng(400 + d)
    for _ in range(20):
        assert not assert_herm_eig_matches_oracle(random_hermitian(rng, d))


@pytest.mark.any_kernel
def test_herm_eig_keeps_the_stable_order_of_exact_ties():
    ties = [assert_herm_eig_matches_oracle(m) for m in tied_matrices(np.random.default_rng(413))]
    assert sum(ties) >= 20  # the stable sort runs, not only the reversal


def test_herm_eig_sorts_only_a_spectrum_with_ties(monkeypatch):
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kwargs: sorts.append(1) or argsort(*args, **kwargs))
    rng = np.random.default_rng(418)
    herm_eig(random_hermitian(rng, 6))
    assert sorts == []
    herm_eig(np.diag([1.0, 2.0, 1.0]))
    assert sorts == [1]


@pytest.mark.any_kernel
def test_herm_eig_is_bit_identical_to_the_sorting_oracle_on_edge_inputs():
    rng = np.random.default_rng(414)
    for d in range(2, 10):
        m = negligible_leading_row(rng, d)
        assert np.abs(herm_eig(m).eigenvectors[0]).min() < NEGLIGIBLE  # a later pivot is read
        assert_herm_eig_matches_oracle(m)
    for entry in (2.5, -1.0, 0.0, 1e-300, 3e8):
        assert_herm_eig_matches_oracle(np.array([[entry]]))
    assert_herm_eig_matches_oracle(np.zeros((0, 0)))


@pytest.mark.any_kernel
@pytest.mark.parametrize("pair", BLOCKED_PAIRS, ids=lambda p: "-".join(map(shape_id, map(AlgebraShape, p))))
def test_herm_eig_per_block_is_bit_identical_to_the_sorting_oracle(pair):
    shapes = tuple(map(AlgebraShape, pair))
    blocks = layout(*shapes)
    assert blocks.groups and blocks.compact.shape[1] >= BLOCKWISE_MIN_DIM
    rng = np.random.default_rng(415)
    d = blocks.compact.shape[1]
    cases = [
        choi_conditional(random_channel(*shapes, shapes[0].total_dim, rng)).matrix,
        random_hermitian(rng, d) * layout(*shapes).mask,
        np.eye(d) * layout(*shapes).mask,
        np.diag(rng.integers(0, 2, d).astype(float)),
    ]
    if shapes[0] == shapes[1]:
        cases.append(choi_conditional(identity_channel(shapes[0])).matrix)
    for m in cases:
        assert_herm_eig_matches_oracle(m, blocks)
        assert_herm_eig_matches_oracle(m)


def mixed_matrices(rng, n):
    """n matrices of d = 1…11: random, with repeated diagonals, with a negligible leading row,
    and some of each rotated into another basis."""
    for k in range(n):
        d = int(rng.integers(1, 12))
        m = random_hermitian(rng, d) if k % 3 else np.diag(rng.integers(0, 3, d).astype(float))
        if k % 5 == 1 and d > 1:
            m = negligible_leading_row(rng, d)
        if k % 7 == 2:
            u = random_unitary(d, rng)
            m = hermitize(u @ m @ u.conj().T)
        yield m


@pytest.mark.any_kernel
def test_herm_eig_is_bit_identical_to_the_sorting_oracle_on_many_matrices():
    ties = [assert_herm_eig_matches_oracle(m) for m in mixed_matrices(np.random.default_rng(416), 1500)]
    assert 0 < sum(ties) < len(ties)


@pytest.mark.any_kernel
@pytest.mark.parametrize("shapes", [(AlgebraShape((3,)), AlgebraShape((2,))),
                                    (AlgebraShape((1,) * 3), AlgebraShape((1, 1))),
                                    (AlgebraShape((2, 1)), AlgebraShape((1, 2)))],
                         ids=["irreducible", "classical", "mixed"])
def test_pinched_hermitian_is_bit_identical_to_hermitize_then_mask(shapes):
    rng = np.random.default_rng(417)
    d = shapes[0].total_dim * shapes[1].total_dim
    for s in (random_complex(rng, d, d), random_hermitian(rng, d)):
        expected = hermitize(s) * layout(*shapes).mask
        assert _pinched_hermitian(s, *shapes).tobytes() == expected.tobytes()
    # signed zeros, where that formula differs, against the uncached product it replaced
    s = -np.zeros((d, d), complex)
    expected = s + s.conj().T
    expected *= 0.5 * layout(*shapes).mask
    assert _pinched_hermitian(s, *shapes).tobytes() == expected.tobytes()


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
def test_teleport_matches_loop_oracle(rng, d, monkeypatch):
    shape = AlgebraShape((d,))
    for shape_out in output_classes(d):
        c = random_channel(shape, shape_out, 2, rng)
        s = random_state(shape, rng)
        check_branches(*teleport_branches(monkeypatch, c, s), c, s, oracle_bell_basis(d))
    # the identity channel's corrected states, one Weyl operator at a time
    c, s = identity_channel(shape), random_state(shape, rng)
    report, branches = teleport_branches(monkeypatch, c, s)
    states = check_branches(report, branches, c, s, oracle_bell_basis(d))
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
def oracle_validate_psd(stack, index, unit_trace=False):
    # the groups of ``index`` are ignored: every matrix is judged whole
    flat, outside = stack.reshape(len(stack), -1), index.outside
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


def spectrum(rng, d, low):
    """d eigenvalues summing to 1, the first of them ``low``."""
    rest = rng.random(d - 1) + 0.1
    return np.concatenate([[low], rest * (1 - low) / rest.sum()])


def density_cases(rng, shape):
    """Unit-trace Hermitian matrices inside the algebra: full rank, rank one,
    half rank, λmin = -tol·(1 ∓ 1e-3), and one far from positive."""
    d, tol = shape.total_dim, INPUT_TOL
    full = rng.random(d) + 0.1
    half = np.where(np.arange(d) < max(d // 2, 1), rng.random(d) + 0.1, 0.0)
    spectra = [full / full.sum(), np.eye(d)[0], half / half.sum()]
    spectra += [spectrum(rng, d, low) for low in (-tol * (1 - 1e-3), -tol * (1 + 1e-3))]
    cases = [with_spectrum(rng, shape, w) for w in spectra]
    far = np.linspace(-1.0, 1.0, d)
    cases.append(with_spectrum(rng, shape, far + (1 - far.sum()) / d))
    return cases


def psd_verdicts(stack, shape, unit_trace):
    index = layout(shape)
    return (
        verdict(validate_psd, stack, index, unit_trace),
        verdict(oracle_validate_psd, stack, index, unit_trace),
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


@pytest.mark.any_kernel
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
    for module in ("states", "povm"):
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
    off = ~layout(shape_a, shape_b).mask
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


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims_a, dims_b", BLOCK_PAIRS, ids=lambda dims: "x".join(map(str, dims)))
def test_block_certificate_gives_the_whole_eigvalsh_verdict(rng, dims_a, dims_b, monkeypatch):
    # from BLOCKWISE_MIN_DIM up, a reducible joint or conditional is judged
    # and certified per block; the whole-matrix eigvalsh oracle must agree
    shape_a, shape_b = AlgebraShape(dims_a), AlgebraShape(dims_b)
    reducible = len(dims_a) * len(dims_b) > 1
    assert shape_a.total_dim * shape_b.total_dim >= BLOCKWISE_MIN_DIM
    assert bool(layout(shape_a, shape_b).groups) == reducible
    cases = list(pair_cases(rng, shape_a, shape_b))
    build = {"joint": JointState, "conditional": ConditionalState}

    def run():
        return [verdict(build[kind], shape_a, shape_b, m) for kind, m, _ in cases]

    calls = count_linalg(monkeypatch)
    got = run()
    # only the certificate ran on the valid cases, per block when reducible
    sizes = {shape[-1] for name, shape in calls if name == "cholesky"}
    assert (max(sizes) < shape_a.total_dim * shape_b.total_dim) == reducible
    monkeypatch.setattr("condchan.states.validate_psd", oracle_validate_psd)
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


def count_linalg(monkeypatch, names=("eigh", "eigvalsh", "cholesky")):
    """Record (name, input shape) of every call of the ``numpy.linalg``
    functions ``names``."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_valid_input_is_validated_without_eigvalsh(rng, monkeypatch):
    shape, q = AlgebraShape((4, 3)), AlgebraShape((2,))
    assert shape.total_dim > SCALAR_MAX_DIM  # so the state, too, is certified by numpy
    rho = random_state(shape, rng).matrix
    joint = random_joint_state(shape, q, rng).matrix
    cond = choi_conditional(random_channel(shape, q, 4, rng)).matrix
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


# -- the scalar pass against the judge ---------------------------------------


def compositions(d):
    """Every tuple of positive block sizes summing to d."""
    if d == 0:
        return [()]
    return [(first, *rest) for first in range(1, d + 1) for rest in compositions(d - first)]


SCALAR_SHAPES = [
    AlgebraShape(dims) for d in range(1, SCALAR_MAX_DIM + 1) for dims in compositions(d)
]
EPS = np.finfo(np.float64).eps
# every public function of numpy.linalg
LINALG_FUNCTIONS = tuple(
    name for name in dir(np.linalg)
    if not name.startswith("_") and callable(getattr(np.linalg, name))
    and not isinstance(getattr(np.linalg, name), type)
)


def with_trace(m, t):
    """m with its first diagonal entry moved so that its trace is t."""
    out = np.array(m)
    out[0, 0] += t - np.trace(out).real
    return out


def with_leak(m, position, size, phase):
    """m with ``size``·``phase`` added at the flat off-diagonal ``position``
    and its conjugate at the mirror position, so m stays Hermitian."""
    out = np.array(m)
    i, j = divmod(position, len(out))
    out[i, j] += size * phase
    out[j, i] += size * np.conj(phase)
    return out


def with_asymmetry(m, position, size, phase):
    """m with |m - m†| = ``size`` at the flat ``position``: ``size``·``phase``
    added there, or on the diagonal an imaginary part of ``size``/2."""
    out = np.array(m)
    i, j = divmod(position, len(out))
    out[i, j] += size * phase if i != j else 0.5j * size
    return out


def scalar_edge_cases(rng, shape):
    """Matrices inside ``shape`` at each edge that the scalar pass tests:
    λmin = -tol·(1 ∓ 1e-3) and -tol + k·ε; trace 1 ± tol, ± tol·(1 ± 1e-3)
    and ± k·ε; Hermitian slop tol·(1 ± 1e-6) and tol ± k ulps; a leak of
    BLOCK_TOL·(1 ± 1e-6) and ± k ulps at each outside position (Hermitian,
    so only the leak test decides); NaN or infinity at each position; scale
    1e308 and 1e-300; the zero matrix; and ``pivot_edge_cases``."""
    d, tol = shape.total_dim, INPUT_TOL
    valid = with_spectrum(rng, shape, spectrum(rng, d, 1 / d))
    phase = np.exp(2j * np.pi * rng.random())
    cases = [valid, np.zeros((d, d), dtype=complex)]
    lows = [-tol * (1 - 1e-3), -tol * (1 + 1e-3)] + [-tol + k * EPS for k in (-256, -16, -1, 0, 1, 16, 256)]
    cases += [with_spectrum(rng, shape, spectrum(rng, d, low)) for low in lows]
    offsets = [s * tol * f for s in (-1, 1) for f in (1 - 1e-3, 1, 1 + 1e-3)]
    offsets += [s * tol + k * EPS for s in (-1, 1) for k in (-16, -2, 2, 16)]
    cases += [with_trace(valid, 1 + off) for off in offsets]
    slops = [tol * (1 - 1e-6), tol * (1 + 1e-6)] + [tol + k * np.spacing(tol) for k in (-4, -1, 0, 1, 4)]
    cases += [with_asymmetry(valid, p, size, phase) for p in {0, 1 % (d * d)} for size in slops]
    outside = layout(shape).outside
    leaks = [BLOCK_TOL * (1 - 1e-6), BLOCK_TOL * (1 + 1e-6)]
    leaks += [BLOCK_TOL + k * np.spacing(BLOCK_TOL) for k in (-4, -1, 0, 1, 4)]
    for p in [] if outside is None else outside.tolist():
        cases += [with_leak(valid, p, leak, phase) for leak in leaks]
    for p in range(d * d):
        for bad in (np.nan, np.inf, complex(0, -np.inf)):
            broken = np.array(valid)
            broken.flat[p] = bad
            cases.append(broken)
    projector = random_support_projector(shape, 1, rng)
    cases += [scale * m for scale in (1e308, 8e307, 1e-300) for m in (valid, projector)]
    return cases + pivot_edge_cases(d)


def pivot_edge_cases(d):
    """Diagonal unit-trace (d, d) matrices whose last entry h sits at the scalar pass's shift
    μ = 2(d+1)·d·ε·top, so that its last pivot h - μ is 0.0 exactly, ±1 ulp or ±1e-3·μ."""
    if d == 1:  # the one pivot is about 1
        return []
    top = 1 / (d - 1)
    shift = 2 * (d + 1) * d * EPS * top  # the negated shift, rounded as the pass rounds it
    edges = [shift * (1 - 1e-3), np.nextafter(shift, 0), shift, np.nextafter(shift, 1)]
    edges.append(shift * (1 + 1e-3))
    return [np.diag([top] * (d - 1) + [h]).astype(complex) for h in edges]


def judge_verdicts(cases, index):
    """The verdicts of ``validate_psd`` with and without the scalar pass, each
    case checked with and without the trace test."""
    def run():
        return [verdict(validate_psd, m[None], index, unit_trace)
                for m in cases for unit_trace in (False, True)]

    return run(), without_scalar_pass(run)


def without_scalar_pass(fn, *args):
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr("condchan.matcore.SCALAR_MAX_DIM", 0)
        return fn(*args)


@pytest.mark.any_kernel
@pytest.mark.parametrize("shape", SCALAR_SHAPES, ids=shape_id)
def test_scalar_pass_gives_the_judge_verdict_at_the_edges(rng, shape):
    index = layout(shape)
    cases = scalar_edge_cases(rng, shape)
    got, want = judge_verdicts(cases, index)
    assert got == want
    # the pass proves the valid matrix made exactly Hermitian definite, but not
    # the zero matrix nor λmin = -tol·(1 - 1e-3); whatever it proves is definite
    proved = [_proves_definite(m, index.outside) for m in (hermitize(cases[0]), *cases[1:3])]
    assert proved == [True, False, False]
    for m in cases:
        if _proves_definite(m, index.outside):
            assert np.linalg.eigvalsh(m).min() > 0
    # (case, unit_trace) pairs: the valid matrix passes, the zero matrix fails
    # only its trace, and λmin = -tol·(1 + 1e-3) fails positivity
    assert want[:3] == [None] * 3 and want[3][1] == "trace" and want[6][1] == "positive"


@pytest.mark.any_kernel
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(SCALAR_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    low=st.one_of(
        st.floats(-INPUT_TOL * 1.01, -INPUT_TOL * 0.99),
        st.integers(-400, 400).map(lambda k: -INPUT_TOL + k * EPS),
    ),
    trace=st.one_of(
        st.just(1.0),
        st.sampled_from([-INPUT_TOL, INPUT_TOL]).flatmap(
            lambda edge: st.integers(-64, 64).map(lambda k: 1 + edge + k * EPS)
        ),
    ),
    slop=st.one_of(st.just(0.0), st.floats(INPUT_TOL * (1 - 1e-6), INPUT_TOL * (1 + 1e-6))),
    leak=st.one_of(st.just(0.0), st.floats(BLOCK_TOL * (1 - 1e-6), BLOCK_TOL * (1 + 1e-6))),
    scale=st.sampled_from([1.0, 1e-300, 1e300, 8e307]),
    unit_trace=st.booleans(),
)
def test_scalar_pass_accepts_nothing_the_judge_rejects(
    shape, seed, low, trace, slop, leak, scale, unit_trace
):
    rng = np.random.default_rng(seed)
    d = shape.total_dim
    m = with_trace(with_spectrum(rng, shape, spectrum(rng, d, low)), trace)
    if slop:
        m = with_asymmetry(m, 1 % (d * d), slop, np.exp(2j * np.pi * rng.random()))
    outside = layout(shape).outside
    if leak and outside is not None:
        m = with_leak(m, int(rng.choice(outside)), leak, 1.0)
    m = scale * m
    if _proves_definite(m, outside):
        judged = partial(judge, m[None], layout(shape), unit_trace)
        assert verdict(judged) is None
        herm = judged()[0] + INPUT_TOL * np.eye(d)
        np.linalg.cholesky(herm)
        assert np.linalg.eigvalsh(m).min() > 0


def floors(m, index):
    """What ``validate_psd`` returns for the unit-trace matrix m, with and without
    the scalar pass."""
    run = partial(validate_psd, m[None], index, True)
    return run(), without_scalar_pass(run)


@pytest.mark.any_kernel
@pytest.mark.parametrize("shape", [s for s in SCALAR_SHAPES if s.total_dim > 1], ids=shape_id)
def test_scalar_pass_hands_what_it_does_not_prove_to_numpy(rng, shape):
    # states of rank 1 and d - 1, Hermitian slop of 1e-13, a leak of BLOCK_TOL/2
    # and a trace off by INPUT_TOL/2 are valid but not proved definite: they keep
    # the verdict and the tight floor of the judge and the numpy Cholesky
    d, index = shape.total_dim, layout(shape)
    valid = hermitize(with_spectrum(rng, shape, spectrum(rng, d, 1 / d)))
    phase = np.exp(2j * np.pi * rng.random())
    cases = [random_support_projector(shape, r, rng) / r for r in (1, d - 1) for _ in range(4)]
    cases += [with_asymmetry(valid, p, 1e-13, phase) for p in (0, 1)]
    cases += [with_trace(valid, 1 + sign * INPUT_TOL / 2) for sign in (-1, 1)]
    if index.outside is not None:
        cases.append(with_leak(valid, int(index.outside[0]), BLOCK_TOL / 2, phase))
    assert _proves_definite(valid, index.outside) and floors(valid, index)[0] == 0.0
    for m in cases:
        assert not _proves_definite(m, index.outside)
        got, want = floors(m, index)
        assert got == want and 0 < got <= INPUT_TOL / 4


@pytest.mark.any_kernel
def test_only_single_unit_trace_matrices_reach_the_scalar_pass(rng, monkeypatch):
    s, joint = random_state(QUBIT, rng), random_joint_state(QUBIT, QUBIT, rng)
    cond = choi_conditional(random_channel(QUBIT, QUBIT, 2, rng)).matrix
    elements, big = random_povm(QUBIT, 1, rng).elements, AlgebraShape((SCALAR_MAX_DIM + 1,))
    seen, proves = [], _proves_definite
    monkeypatch.setattr("condchan.matcore._proves_definite",
                        lambda m, outside: seen.append(m.shape) or proves(m, outside))
    State(QUBIT, s.matrix)
    JointState(QUBIT, QUBIT, joint.matrix)
    states_from_stack(QUBIT, np.array([s.matrix]))
    assert seen == [(2, 2), (4, 4), (2, 2)]
    # a stack, a conditional, a POVM and a state past SCALAR_MAX_DIM do not
    states_from_stack(QUBIT, np.array([s.matrix, s.matrix]))
    ConditionalState(QUBIT, QUBIT, cond)
    POVM(QUBIT, elements)
    random_state(big, rng)
    assert len(seen) == 3


# matrices of any rank, λmin near 0, the trace near 1 ± INPUT_TOL/4, a Hermitian
# leak and Hermitian slop, built by ``near_definite`` for a given shape
NEAR_DEFINITE_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, SCALAR_MAX_DIM),
    low=st.one_of(st.just(0.0), st.integers(-64, 64).map(lambda k: k * EPS)),
    trace=st.one_of(
        st.just(1.0),
        st.sampled_from([-INPUT_TOL / 4, INPUT_TOL / 4]).flatmap(
            lambda edge: st.integers(-64, 64).map(lambda k: 1 + edge + k * EPS)
        ),
    ),
    leak=st.sampled_from([0.0, 1e-300, EPS, BLOCK_TOL / 2]),
    slop=st.sampled_from([0.0, 1e-300, EPS, 1e-13]),
)
NEAR_DEFINITE = given(shape=st.sampled_from(SCALAR_SHAPES), **NEAR_DEFINITE_DRAWS)


def near_definite(shape, seed, rank, low, trace, leak, slop):
    """A matrix drawn by ``NEAR_DEFINITE``, and the layout of ``shape``."""
    rng = np.random.default_rng(seed)
    d, index = shape.total_dim, layout(shape)
    w = np.where(np.arange(d) < rank, rng.random(d) + 0.1, 0.0)
    w = np.sort(w / w.sum())
    w[0] += low
    m = with_trace(hermitize(with_spectrum(rng, shape, w)), trace)
    if leak and index.outside is not None:
        m = with_leak(m, int(rng.choice(index.outside)), leak, np.exp(2j * np.pi * rng.random()))
    if slop:
        m = with_asymmetry(m, int(rng.integers(d * d)), slop, np.exp(2j * np.pi * rng.random()))
    return m, index


@pytest.mark.any_kernel
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@NEAR_DEFINITE
def test_scalar_pass_proves_only_definite_matrices(shape, seed, rank, low, trace, leak, slop):
    # whatever the pass proves is exactly Hermitian, exactly 0 off its blocks, of
    # trace within INPUT_TOL/4 of 1 and definite, and the judge and the numpy
    # Cholesky accept it
    m, index = near_definite(shape, seed, rank, low, trace, leak, slop)
    if _proves_definite(m, index.outside):
        assert np.array_equal(m, m.conj().T) and support_deviation(m, shape) == 0
        assert abs(np.trace(m) - 1) <= INPUT_TOL / 4
        assert np.linalg.eigvalsh(m).min() > 0
        assert without_scalar_pass(verdict, validate_psd, m[None], index, True) is None


def proves_definite_loop(m, outside):
    """``matcore._proves_definite`` as written before its per-dimension plan: index
    arithmetic in every loop and the Cholesky columns built by comprehension."""
    d, eps = len(m), float(EPS)
    flat = m.ravel().tolist()
    for i in range(d):
        for j in range(i, d):
            x = flat[i * d + j]
            if x != flat[j * d + i].conjugate() or not cmath.isfinite(x + x):
                return False
    if outside is not None and any(flat[p] for p in outside.tolist()):
        return False
    trace = 0.0
    for j in range(d):
        trace += flat[j * d + j].real
    if not abs(trace - 1.0) <= INPUT_TOL / 4 - 4 * d * eps:
        return False
    shift = -2 * (d + 1) * d * eps * max(flat[j * d + j].real for j in range(d))
    for j in range(d):
        column = [flat[k * d + j] for k in range(j)]
        pivot = flat[j * d + j].real + shift
        for z in column:
            pivot -= z.real * z.real + z.imag * z.imag
        if not pivot > 0.0:
            return False
        root = math.sqrt(pivot)
        for i in range(j + 1, d):
            s = flat[j * d + i]
            for k, z in enumerate(column):
                s -= z.conjugate() * flat[k * d + i]
            flat[j * d + i] = s / root
    return True


@pytest.mark.any_kernel
@pytest.mark.parametrize("shape", SCALAR_SHAPES, ids=shape_id)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(**NEAR_DEFINITE_DRAWS)
def test_scalar_proof_gives_the_loop_verdict(shape, seed, rank, low, trace, leak, slop):
    m, index = near_definite(shape, seed, rank, low, trace, leak, slop)
    for x in (m, hermitize(m), -m):
        assert _proves_definite(x, index.outside) == proves_definite_loop(x, index.outside)


@pytest.mark.any_kernel
@pytest.mark.parametrize("shape", SCALAR_SHAPES, ids=shape_id)
def test_scalar_proof_gives_the_loop_verdict_at_the_edges(rng, shape):
    cases = scalar_edge_cases(rng, shape)
    cases.append(hermitize(cases[0]))  # the valid matrix made exactly Hermitian is proved
    outside = layout(shape).outside
    verdicts = [(_proves_definite(m, outside), proves_definite_loop(m, outside)) for m in cases]
    assert all(got == want for got, want in verdicts) and any(got for got, _ in verdicts)


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims", [(2,), (1, 1, 1), (3, 1), (2, 2)], ids=str)
def test_small_states_are_validated_without_numpy_linalg(rng, dims, monkeypatch):
    shape = AlgebraShape(dims)
    c, s = random_channel(shape, shape, 2, rng), random_state(shape, rng)
    bad = [with_spectrum(rng, shape, spectrum(rng, shape.total_dim, -0.1)),
           with_trace(s.matrix, 1 + 2 * INPUT_TOL), with_asymmetry(s.matrix, 1, 1e-6, 1j)]
    calls = count_linalg(monkeypatch, LINALG_FUNCTIONS)
    State(shape, s.matrix)
    apply(c, s)
    assert calls == []
    # an invalid matrix still gets the judge's error
    got = [verdict(State, shape, m) for m in bad]
    assert [g[1] for g in got] == ["positive", "trace", "hermitian"]
    assert ("cholesky", (1, *s.matrix.shape)) in calls
    monkeypatch.setattr("condchan.states.validate_psd", oracle_validate_psd)
    assert got == [verdict(State, shape, m) for m in bad]


# -- apply's certificate against the judge -----------------------------------


def apply_outcome(shape_in, shape_out, kraus, support, x):
    """The verdict of ``apply`` on a channel and a state built from these
    arrays, its output matrix, and whether the certificate skipped the judge
    of that output."""
    out = []

    def run():
        c, s = Channel(shape_in, shape_out, kraus, support), State(shape_in, x)
        out.append((apply(c, s).matrix, c._certifies and s.floor == 0.0))

    return verdict(run), *(out[0] if out else (None, False))


SIGNS = st.sampled_from([-1.0, 1.0])
TRACE_EDGES = [-INPUT_TOL, -INPUT_TOL / 4, INPUT_TOL / 4, INPUT_TOL]


@pytest.mark.any_kernel
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape_in=st.sampled_from(SCALAR_SHAPES),
    shape_out=st.sampled_from(SCALAR_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    low=st.one_of(
        st.floats(1e-3, 0.25),
        st.sampled_from([0.0, -INPUT_TOL]),
        st.builds(lambda sign, e: sign * 10.0**e, SIGNS, st.floats(-18, -10)),
    ),
    exact=st.sampled_from([True, True, False]),
    trace=st.one_of(
        st.just(1.0),
        st.sampled_from(TRACE_EDGES).flatmap(
            lambda edge: st.integers(-64, 64).map(lambda k: 1 + edge + k * EPS)
        ),
    ),
    slop=st.one_of(st.just(0.0), st.floats(0.0, BLOCK_TOL)),
    tp=st.one_of(st.just(0.0), st.builds(
        lambda sign, size, f: sign * size * f, SIGNS,
        st.sampled_from([INPUT_TOL / 16, INPUT_TOL / 4, INPUT_TOL, IDENTITY_TOL]),
        st.floats(0.5, 1.05),
    )),
    leak=st.one_of(st.just(0.0), st.floats(-16, -9).map(lambda e: 10.0**e)),
    with_support=st.sampled_from([False, False, True]),
)
def test_certified_apply_gives_the_judge_verdict_and_bytes(
    shape_in, shape_out, seed, low, exact, trace, slop, tp, leak, with_support
):
    # inputs at every edge of the certificate: exactly Hermitian or not,
    # λmin clear of 0, at 0, ±1e-18…1e-10 and -INPUT_TOL, the trace at ±INPUT_TOL and at
    # ±INPUT_TOL/4, off-block slop up to BLOCK_TOL; channels with Σ K†K off
    # the identity near INPUT_TOL and IDENTITY_TOL, an output block leak, or an
    # input support
    rng = np.random.default_rng(seed)
    d, d_out = shape_in.total_dim, shape_out.total_dim
    x = with_trace(with_spectrum(rng, shape_in, spectrum(rng, d, low)), trace)
    if exact:
        x = hermitize(x)
    outside = layout(shape_in).outside
    if slop and outside is not None:
        x = with_leak(x, int(rng.choice(outside)), slop, np.exp(2j * np.pi * rng.random()))
    kraus = random_channel(shape_in, shape_out, d, rng).kraus
    if leak:  # mixed with a channel into the whole output space
        whole = random_channel(shape_in, AlgebraShape((d_out,)), d, rng).kraus
        kraus = np.concatenate([kraus * np.sqrt(1 - leak), whole * np.sqrt(leak)])
    kraus = kraus * np.sqrt(1 + tp)
    support = None
    if with_support:
        support = random_support_projector(shape_in, int(rng.integers(1, d + 1)), rng)
        kraus = kraus @ support
    args = (shape_in, shape_out, kraus, support, x)
    got, out, certified = apply_outcome(*args)
    want, judged_out, judged = without_scalar_pass(apply_outcome, *args)
    assert got == want and not judged
    assert (out is None) == (judged_out is None)
    if out is not None:
        assert out.tobytes() == judged_out.tobytes()
    if certified:
        index = layout(shape_out)
        assert without_scalar_pass(verdict, validate_psd, out[None], index, True) is None
        assert verdict(validate_psd, out[None], index, True) is None


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims", [(2,), (1, 1, 1), (3, 1), (2, 2)], ids=str)
def test_apply_skips_the_judge_of_certified_outputs_only(rng, dims, monkeypatch):
    shape = AlgebraShape(dims)
    c, s = random_channel(shape, shape, 2, rng), random_state(shape, rng)
    assert c._certifies and s.floor == 0.0
    judged = []

    def counted(stack, *args, **kwargs):
        judged.append(stack.shape)
        return validate_psd(stack, *args, **kwargs)

    monkeypatch.setattr("condchan.states.validate_psd", counted)
    out = apply(c, s)
    assert judged == [] and out.floor == math.inf
    assert out.matrix.tobytes() == apply_matrix(c, s.matrix).tobytes()
    # a chained apply, a channel with an input support and a state with no
    # proved floor are all judged
    apply(c, out)
    proj = np.eye(shape.total_dim)
    apply(Channel(shape, shape, c.kraus, input_support=proj), s)
    apply(c, _trusted(State, shape, np.array(s.matrix), floor=math.inf))
    assert len(judged) == 3


# K1 = |0⟩⟨0| + |1⟩⟨2| and K2 = |0⟩⟨1| + |1⟩⟨3| send x[0, 2] + x[1, 3] to entry (0, 1)
PAIRING = np.array([[[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1, 0, 0], [0, 0, 0, 1]]], dtype=complex)


def uncertified_pair(case):
    """Shapes, Kraus operators and matrix of a channel and a state that are
    both accepted, whose output the judge rejects, with its invariant and
    deviation: the slack that each allows adds up."""
    tol, qubit = INPUT_TOL, AlgebraShape((2,))
    if case == "positive":  # λmin = -0.9·tol twice, both sent to |0⟩
        kraus = np.array([[[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0]],
                          [[0, 0, 0], [0, 0, 1]]], dtype=complex)
        x = np.diag([-0.9 * tol, -0.9 * tol, 1 + 1.8 * tol]).astype(complex)
        return AlgebraShape((3,)), qubit, kraus, x, "positive", 1.8 * tol
    if case == "trace":  # a trace of 1 + 0.9·tol and Σ K†K = 1 + 0.2·tol
        x, kraus = np.ones((1, 1), dtype=complex), np.full((1, 1, 1), np.sqrt(1 + 0.2 * tol))
        return AlgebraShape((1,)), AlgebraShape((1,)), kraus, x * (1 + 0.9 * tol), "trace", 1.1 * tol
    if case == "output_leak":  # the channel puts 1.8·BLOCK_TOL off the output blocks
        b = 1.8 * BLOCK_TOL
        kraus = np.array([[[np.sqrt(1 - b * b)], [b]]], dtype=complex)
        return AlgebraShape((1,)), AlgebraShape((1, 1)), kraus, np.ones((1, 1)), "block_support", b
    x = np.eye(4, dtype=complex) / 4
    if case == "hermitian":  # |x - x†| = 0.9·tol at two entries
        x[0, 2] += 0.9 * tol
        x[1, 3] += 0.9 * tol
        return AlgebraShape((4,)), qubit, PAIRING, x, "hermitian", 1.8 * tol
    for i, j in ((0, 2), (1, 3)):  # a Hermitian leak of 0.9·BLOCK_TOL at two pairs
        x[i, j] = x[j, i] = 0.9 * BLOCK_TOL
    return AlgebraShape((1,) * 4), AlgebraShape((1, 1)), PAIRING, x, "block_support", 1.8 * BLOCK_TOL


@pytest.mark.any_kernel
@pytest.mark.parametrize("case", ["positive", "trace", "output_leak", "hermitian", "input_leak"])
def test_apply_judges_the_output_of_an_inexact_pair(case):
    # a CPTP map need not send an accepted state to an accepted one: the
    # slack that the judge allows each of them adds up (positive: λmax(Φ(I))
    # = 2).  Neither is certified, and apply keeps the judge's error.
    shape_in, shape_out, kraus, x, invariant, deviation = uncertified_pair(case)
    c, s = Channel(shape_in, shape_out, kraus), State(shape_in, x)
    assert c._certifies != (s.floor == 0.0)
    got = verdict(apply, c, s)
    assert got[:2] == (InvariantViolation, invariant) and got[2] == pytest.approx(deviation)
    assert got == without_scalar_pass(verdict, apply, c, s)


@pytest.mark.any_kernel
def test_channel_accepted_within_identity_tol_keeps_its_trace_verdict(rng):
    # Channel accepts Σ K†K within IDENTITY_TOL of the identity, but apply
    # judges the output's trace at INPUT_TOL: the certificate leaves that
    # verdict as it was
    shape = AlgebraShape((2,))
    kraus = random_channel(shape, shape, 2, rng).kraus * np.sqrt(1 + 2e-10)
    c = Channel(shape, shape, kraus)
    s = random_state(shape, rng)
    assert not c._certifies and s.floor == 0.0
    with pytest.raises(InvariantViolation) as err:
        apply(c, s)
    assert err.value.invariant == "trace" and err.value.deviation == pytest.approx(2e-10, rel=1e-3)


# -- choi_conditional's certificate against the checked constructor ----------


def edge_size(size, gate):
    """A drawn (kind, value): 0, the gate times a factor near 1, or an absolute size."""
    kind, value = size
    return value * gate if kind == "gate" else value


def leaking_kraus(rng, shape_in, shape_out, leak):
    """Kraus operators of a random channel whose Choi matrix has ``leak`` as its
    largest entry off the pair blocks: mixed with a channel into the whole
    output space, weighted by ``leak`` over that channel's own leak."""
    d, d_out = shape_in.total_dim, shape_out.total_dim
    env = max(1, -(-d // d_out))
    kraus = random_channel(shape_in, shape_out, env, rng).kraus
    if not leak or shape_out.is_irreducible:
        return kraus
    whole = random_channel(shape_in, AlgebraShape((d_out,)), env, rng).kraus
    own = support_deviation(oracle_choi_matrix(whole, shape_in), shape_in, shape_out)
    weight = leak / own
    return np.concatenate([kraus * np.sqrt(1 - weight), whole * np.sqrt(weight)])


def check_certified_choi(shape_in, shape_out, kraus, support):
    """Whether ``choi_conditional`` skips the check on the channel these arrays
    make (None for a channel its own checks reject).  It gives the checked
    constructor's verdict on the same matrix, and its bytes.  A Choi matrix it
    skips passes each constructor test with the margin the proof gives it:
    Hermitian and above -INPUT_TOL/4, its leak the channel's, within
    BLOCK_TOL/(4·d_in²), and its conditioning support within INPUT_TOL/(2·d_in)
    of the identity."""
    try:
        c = Channel(shape_in, shape_out, kraus, support)
    except CondChanError:
        return None
    out = []
    got = verdict(lambda: out.append(choi_conditional(c).matrix))
    choi = _choi_matrix(c)
    assert got == verdict(ConditionalState, shape_in, shape_out, choi)
    if out:
        assert out[0].tobytes() == choi.tobytes()
    certified = c._certifies
    if certified:
        d = shape_in.total_dim
        assert got is None and support is None
        assert without_scalar_pass(verdict, ConditionalState, shape_in, shape_out, choi) is None
        assert max_abs(choi - choi.conj().T) <= INPUT_TOL / 4
        assert np.linalg.eigvalsh(hermitize(choi)).min() >= -INPUT_TOL / 4
        assert support_deviation(choi, shape_in, shape_out) <= BLOCK_TOL / (4 * d * d)
        support_dev = max_abs(partial_trace(choi, d, shape_out.total_dim, "left") - np.eye(d))
        assert support_dev <= INPUT_TOL / (2 * d)
    return certified


# a size relative to the gate, on either side of it, or absolute up to IDENTITY_TOL
EDGE_SIZES = st.one_of(
    st.just(("zero", 0.0)),
    st.tuples(st.just("gate"), st.sampled_from([1 - 1e-3, 1 + 1e-3])),
    st.tuples(st.just("absolute"), st.floats(-16, -9).map(lambda e: 10.0**e)),
)


@pytest.mark.any_kernel
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape_in=st.sampled_from(SMALL_SHAPES),
    shape_out=st.sampled_from(SMALL_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    tp=EDGE_SIZES,
    tp_sign=SIGNS,
    leak=EDGE_SIZES,
    with_support=st.sampled_from([False, False, False, True]),
)
def test_certified_choi_gives_the_checked_verdict_and_bytes(
    shape_in, shape_out, seed, tp, tp_sign, leak, with_support
):
    # channels with Σ K†K off the identity by ±INPUT_TOL/(4·d_in)·(1 ∓ 1e-3) or
    # up to IDENTITY_TOL, an output block leak at BLOCK_TOL/(4·d_in²)·(1 ∓ 1e-3)
    # or up to IDENTITY_TOL, or an input support
    rng = np.random.default_rng(seed)
    d = shape_in.total_dim
    kraus = leaking_kraus(rng, shape_in, shape_out, edge_size(leak, BLOCK_TOL / (4 * d * d)))
    kraus = kraus * np.sqrt(1 + tp_sign * edge_size(tp, INPUT_TOL / (4 * d)))
    support = None
    if with_support:
        support = random_support_projector(shape_in, int(rng.integers(1, d + 1)), rng)
        kraus = kraus @ support
    check_certified_choi(shape_in, shape_out, kraus, support)


@pytest.mark.any_kernel
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shapes", [((16,), (16,)), ((1,) * 16, (1,) * 16), ((8, 8), (4, 4, 8))],
                         ids=["irreducible", "classical", "mixed"])
def test_certified_choi_gives_the_checked_verdict_at_dim_16(seed, shapes):
    rng = np.random.default_rng(seed)
    shape_in, shape_out = map(AlgebraShape, shapes)
    d = shape_in.total_dim
    certified = []
    for factor in (1 - 1e-3, 1 + 1e-3):
        base = leaking_kraus(rng, shape_in, shape_out, 0.0)
        certified.append(check_certified_choi(
            shape_in, shape_out, base * np.sqrt(1 + factor * INPUT_TOL / (4 * d)), None))
        if not shape_out.is_irreducible:
            leaking = leaking_kraus(rng, shape_in, shape_out, factor * BLOCK_TOL / (4 * d * d))
            certified.append(check_certified_choi(shape_in, shape_out, leaking, None))
    # each gate is decided on both sides of its edge
    assert certified == ([True, False] if shape_out.is_irreducible else [True, True, False, False])


def count_conditional_judges(monkeypatch):
    """Record the stack shape of every ``validate_psd`` call a ``ConditionalState`` makes: the
    constructors judge through ``states._judge``, and the callers here build no other state."""
    judged = []

    def counted(stack, *args, **kwargs):
        judged.append(stack.shape)
        return validate_psd(stack, *args, **kwargs)

    monkeypatch.setattr("condchan.states.validate_psd", counted)
    return judged


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims", [(2,), (1, 1, 1), (3, 1), (2, 2), (4, 4)], ids=str)
def test_certified_choi_is_built_without_validate_psd_or_cholesky(rng, dims, monkeypatch):
    shape = AlgebraShape(dims)
    c = random_channel(shape, shape, 2, rng)
    assert c._certifies
    judged = count_conditional_judges(monkeypatch)
    calls = count_linalg(monkeypatch, ("cholesky",))
    cond = choi_conditional(c)
    assert judged == [] and calls == []
    assert cond.matrix.tobytes() == _choi_matrix(c).tobytes()
    # a channel with an input support and one whose leak is above the gate
    # (but within BLOCK_TOL) are each judged once
    choi_conditional(Channel(shape, shape, c.kraus, input_support=np.eye(shape.total_dim)))
    assert len(judged) == 1
    if not shape.is_irreducible:
        leaking = Channel(shape, shape, leaking_kraus(rng, shape, shape, BLOCK_TOL / 2))
        assert not leaking._certifies
        choi_conditional(leaking)
        assert len(judged) == 2


@pytest.mark.any_kernel
def test_certified_choi_is_trusted_at_every_size(rng, monkeypatch):
    # a channel (1,) → (d,) certifies at any d here, and its Choi form is built
    # unchecked at every size, D = 473 and 474 among them: λmin ≥ -INPUT_TOL/4
    # by the channel's bound, which the judged path accepts
    built = record_trusted(monkeypatch)
    for d in (473, 474):
        c = random_channel(AlgebraShape((1,)), AlgebraShape((d,)), 1, rng)
        assert c._certifies
        cond = choi_conditional(c)
        assert built == [cond]
        del built[:]
        judged = ConditionalState(cond.shape_in, cond.shape_out, np.array(cond.matrix))
        assert judged.matrix.tobytes() == cond.matrix.tobytes()
        assert np.linalg.eigvalsh(hermitize(cond.matrix)).min() >= -INPUT_TOL / 4


# -- the tight certificate and certified conditioning -------------------------


# single algebras and pairs, judged whole below BLOCKWISE_MIN_DIM or when
# irreducible, and per block from it
TIGHT_SHAPES = [((5,),), ((2, 2, 1),), ((16,),), ((1,) * 16,), ((8, 4, 2, 1, 1),), ((4,), (4,)),
                ((2, 2), (2, 2)), ((3, 1), (2, 2)), ((8,), (8,)), ((4, 2, 1, 1), (4, 2, 1, 1))]


def tight_floor(*shapes):
    """The number of Cholesky groups of a unit-trace element of the tensor
    product of ``shapes``, and the floor its tight certificate proves."""
    d = int(np.prod([shape.total_dim for shape in shapes]))
    sizes = [g.size for g in layout(*shapes).groups] or [d]
    return len(sizes), max(_cholesky_floor(size, d)[1] for size in sizes)


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims", TIGHT_SHAPES, ids=lambda dims: "x".join(map(str, dims)))
def test_tight_certificate_keeps_every_verdict(rng, dims, monkeypatch):
    # unit-trace matrices U diag(w) U† inside the algebra, U = Ua (⊗ Ub) block
    # unitary, with λmin = w[0] at > 0, 0 (one or half of the eigenvalues),
    # -floor/2, -2·floor, -1e-12 and -INPUT_TOL·(1 ∓ 1e-3), and, judged per
    # block, the first with BLOCK_TOL/2 on every entry off the blocks
    shapes = [AlgebraShape(dim) for dim in dims]
    index = layout(*shapes)
    u = np.kron(*[random_block_unitary(s, rng) for s in shapes]) if len(shapes) == 2 \
        else random_block_unitary(shapes[0], rng)
    d = len(u)
    groups, floor = tight_floor(*shapes)
    assert floor <= INPUT_TOL / 4
    half = np.where(np.arange(d) < d // 2, 0.0, rng.random(d) + 0.1)
    lows = [0.5 / d, 0.0, -floor / 2, -2 * floor, -1e-12, -INPUT_TOL * (1 - 1e-3)]
    spectra = [spectrum(rng, d, low) for low in lows] + [half / half.sum()]
    spectra.append(spectrum(rng, d, -INPUT_TOL * (1 + 1e-3)))
    cases = [(u * w) @ u.conj().T for w in spectra]
    off = ~layout(*shapes).mask
    if index.groups:
        cases.append(cases[0] + BLOCK_TOL / 2 * off)
    stacks = [m[None] for m in cases] + [np.stack(cases[:2]), np.stack([cases[0], cases[3]])]
    calls, judged = count_linalg(monkeypatch, ("cholesky", "eigvalsh")), []

    def counted_judge(*args, **kwargs):
        judged.append(args[0].shape)
        return judge(*args, **kwargs)

    monkeypatch.setattr("condchan.matcore.judge", counted_judge)

    def run(fn):
        calls.clear()
        judged.clear()
        floors = []
        got = verdict(lambda: floors.append(fn()))
        names = [name for name, _ in calls]
        return got, (floors or [None])[0], (len(judged), names.count("cholesky"),
                                            names.count("eigvalsh"))

    got, floors, counts = zip(*(run(partial(validate_psd, stack, index, True)) for stack in stacks))
    want = [verdict(oracle_validate_psd, stack, index, True) for stack in stacks]
    assert list(got) == want
    assert [w and w[1] for w in want] == [None] * 7 + ["positive"] + [None] * (len(stacks) - 8)
    for stack, proved in zip(stacks, floors):  # every floor returned holds
        if proved is not None:
            assert np.linalg.eigvalsh(hermitize(stack)).min() >= -proved
    # one judge and at most one Cholesky per block group; a stack that factors
    # proves its floor with no eigvalsh, plus d times the leak the blocks leave
    # out (the per-block case, finite whatever its size), and one that does not
    # pays one eigvalsh
    proves = [floor] * len(stacks)
    if index.groups:
        proves[8] = floor + d * (BLOCK_TOL / 2)
    for (judges, cholesky, eigvalsh), proved, tight in zip(counts, floors, proves):
        assert judges == 1 and 1 <= cholesky <= groups and eigvalsh in (0, 1)
        assert (cholesky, proved) == (groups, tight) if eigvalsh == 0 else proved in (None, math.inf)
    # at or above 0 each factors: full rank, rank d - 1, half rank, the stack of
    # the first two and the leaky one; below -floor none does
    factors = (0, 1, 6, -2, 8) if index.groups else (0, 1, 6, -2)
    assert all(counts[k][2] == 0 for k in factors)
    assert all(counts[k][2] == 1 for k in (3, 4, 5, 7, -1))
    # judged without the trace, as effects and conditionals are, and valid only
    # within INPUT_TOL, λmin = -INPUT_TOL·(1 - 1e-3): a POVM {E, I - E} and a
    # conditional, each accepted with the counts of a stack that does not factor
    edge = cases[5]
    if len(shapes) == 1:
        builds = [partial(POVM, shapes[0], [edge, np.eye(d) - edge]),
                  partial(ConditionalState, AlgebraShape((1,)), shapes[0], edge)]
    else:  # eigenvalue w[i, j] on column (i, j) of U, each row summing to 1
        w = rng.random((shapes[0].total_dim, shapes[1].total_dim)) + 0.1
        w[0, 0] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        w[0] *= 1 + INPUT_TOL * (1 - 1e-3)
        w[0, 0] = -INPUT_TOL * (1 - 1e-3)
        builds = [partial(ConditionalState, *shapes, (u * w.ravel()) @ u.conj().T)]
    for build in builds:
        got, _, (judges, cholesky, eigvalsh) = run(build)
        assert got is None and judges == 1 and 1 <= cholesky <= groups and eigvalsh == 1


COND_PAIRS = [((2,), (2,)), ((3,), (2,)), ((1, 1), (3,)), ((2, 1), (1, 1, 1)), ((4,), (4,)),
              ((1,) * 4, (1,) * 4), ((3, 1), (2, 2)), ((8,), (8,)), ((1,) * 8, (1,) * 8),
              ((4, 2, 1, 1), (4, 2, 1, 1))]


def record_trusted(monkeypatch):
    """Patch ``_trusted`` in every module that calls it; the list returned
    receives each object it builds."""
    built = []

    def build(cls, *values, floor, **settled):
        built.append(_trusted(cls, *values, floor=floor, **settled))
        return built[-1]

    for module in ("states", "conditional", "channels"):
        monkeypatch.setattr(f"condchan.{module}._trusted", build)
    return built


def condition_outcomes(cases):
    """For each (joint, n, m): the verdict of ``conditional_from_joint`` on
    each side and of ``verify_theorem``, with the bits of what they return."""
    out = []
    for j, n, m in cases:
        for side in ("a", "b"):
            got = []
            out.append((verdict(lambda: got.append(conditional_from_joint(j, side))),
                        [cond.matrix.tobytes() for cond in got]))
        reports = []
        out.append((verdict(lambda: reports.append(verify_theorem(j, n, m))),
                    [(r.lhs.tobytes(), r.rhs.tobytes(), r.max_deviation, r.support_restricted)
                     for r in reports]))
    return out


def check_certified_conditioning(monkeypatch, cases):
    """The outcomes of ``condition_outcomes`` are those with the bound made
    never to fit, and every conditional built unchecked passes the full
    constructor, exactly Hermitian, 0 off the pair blocks and with λmin at
    least -INPUT_TOL/4.  Returns how many were built unchecked."""
    built = record_trusted(monkeypatch)
    got = condition_outcomes(cases)
    certified = len(built)
    for shape_in, shape_out, m in ((c.shape_in, c.shape_out, c.matrix) for c in built):
        assert verdict(ConditionalState, shape_in, shape_out, m) is None
        assert without_scalar_pass(verdict, ConditionalState, shape_in, shape_out, m) is None
        assert np.array_equal(m, m.conj().T) and support_deviation(m, shape_in, shape_out) == 0
        assert np.linalg.eigvalsh(m).min() >= -INPUT_TOL / 4
    monkeypatch.setattr("condchan.conditional._condition_rounding", lambda *args: math.inf)
    assert condition_outcomes(cases) == got
    assert len(built) == certified
    return certified


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims_a, dims_b", COND_PAIRS, ids=lambda dims: "x".join(map(str, dims)))
def test_certified_conditioning_gives_the_checked_verdict_and_bits(rng, dims_a, dims_b,
                                                                   monkeypatch):
    # random joints, of full rank and with a rank-deficient first marginal,
    # and the valid joints of ``pair_cases``: λmin = -INPUT_TOL·(1 - 1e-3), and
    # off-block slop of ±BLOCK_TOL·(1 - 1e-3) on a reducible pair
    shape_a, shape_b = AlgebraShape(dims_a), AlgebraShape(dims_b)
    joints = [random_joint_state(shape_a, shape_b, rng) for _ in range(2)]
    joints.append(random_joint_state(shape_a, shape_b, rng, rank_a=shape_a.total_dim // 2))
    edges = [m for kind, m, fails in pair_cases(rng, shape_a, shape_b)
             if kind == "joint" and fails is None]
    joints += [JointState(shape_a, shape_b, m) for m in edges]
    povms = [(random_povm(shape_a, 3, rng), random_povm(shape_b, 3, rng)) for _ in joints]
    certified = check_certified_conditioning(monkeypatch, [(j, *nm) for j, nm in zip(joints, povms)])
    # both sides and the theorem of each random joint are certified, at least
    # 6 of them on a pair small enough for the scalar pass; the joint at
    # λmin = -INPUT_TOL·(1 - 1e-3) (floor inf) is judged
    small = shape_a.total_dim * shape_b.total_dim <= SCALAR_MAX_DIM
    assert (6 if small else 9) <= certified < 3 * len(joints)


@pytest.mark.any_kernel
def test_certified_conditioning_gives_the_checked_verdict_near_the_cutoff(monkeypatch):
    # the product joints of ``TestNearCutoffVerdicts``, spec(ρ_A) ∝ (1, 0.5, ε)
    cutoff = importlib.import_module("test_conditional").TestNearCutoffVerdicts
    rng = np.random.default_rng(7)
    cases = [(cutoff.joint(eps, seed), random_povm(QUTRIT, 3, rng), random_povm(QUBIT, 2, rng))
             for eps in cutoff.EPSILONS for seed in cutoff.SEEDS]
    # certified: every conditioning on B, whose marginal is a random qubit
    # state, and at ε = 1e-11, below the cutoff, on A and in the theorem
    assert check_certified_conditioning(monkeypatch, cases) >= 36 + 12


@pytest.mark.parametrize("dims", [(3,), (1, 1, 1), (2, 1), (4, 4)], ids=str)
def test_certified_conditioning_is_built_without_validate_psd_or_cholesky(rng, dims, monkeypatch):
    # a joint proved within its tight floor is conditioned with no judge and no
    # Cholesky; one valid only within INPUT_TOL (λmin = -1e-12, below its
    # floor) is judged once, one Cholesky per block group
    shape = AlgebraShape(dims)
    d = shape.total_dim
    joint = random_joint_state(shape, shape, rng)
    u = np.kron(random_block_unitary(shape, rng), random_block_unitary(shape, rng))
    edge = JointState(shape, shape, (u * spectrum(rng, d * d, -1e-12)) @ u.conj().T)
    assert joint.floor <= INPUT_TOL / 4 and edge.floor == math.inf
    groups = tight_floor(shape, shape)[0]
    n, m = random_povm(shape, 3, rng), random_povm(shape, 2, rng)
    judged = count_conditional_judges(monkeypatch)
    calls = count_linalg(monkeypatch, ("cholesky",))
    projector_tests = []  # the projector and rank tests still run on each
    monkeypatch.setattr("condchan.conditional.projector_deviation",
                        lambda p: projector_tests.append(p.shape) or projector_deviation(p))
    for side in ("a", "b"):
        conditional_from_joint(joint, side)
    verify_theorem(joint, n, m)
    assert judged == [] and calls == [] and projector_tests == [(d, d)] * 3
    conditional_from_joint(edge, "a")
    assert judged == [(1, d * d, d * d)] and len(calls) == groups


# -- every trusted output is what the judged path builds ---------------------


def held_arrays(*objs):
    """The arrays that library objects hold: matrices, Kraus tensors, superoperators, effects."""
    names = ("matrix", "kraus", "_superop", "input_support")
    arrays = [getattr(obj, name, None) for obj in objs for name in names]
    arrays += [e for obj in objs for e in getattr(obj, "elements", ())]
    return [a for a in arrays if a is not None]


def check_trusted(out, inputs):
    """``out`` is read-only, row-major complex128, shares no memory with ``inputs``, is
    rebuilt from a copy by its public constructor with the same bytes, and its floor holds."""
    m, cls = out.matrix, type(out)
    assert m.dtype == np.complex128 and m.flags.c_contiguous and not m.flags.writeable
    assert not any(np.shares_memory(m, x) for x in inputs)
    rebuilt = cls(*[getattr(out, name) for name in cls.__match_args__[:-1]], np.array(m))
    assert rebuilt.matrix.tobytes() == m.tobytes()
    if math.isfinite(out.floor):
        assert np.linalg.eigvalsh(hermitize(m)).min() >= -out.floor


def trusted_calls(rng, shape):
    """(map name, function, arguments) of every map with a trusted path, on ``shape``."""
    d = shape.total_dim
    c, s = random_channel(shape, shape, 2, rng), random_state(shape, rng)
    whole = AlgebraShape((d,))
    calls = [("apply", apply, (c, s)), ("choi_conditional", choi_conditional, (c,)),
             ("prepare", prepare, (random_povm(shape, 3, rng), s)),
             ("teleport", teleport,
              (random_channel(whole, shape, 2, rng), random_state(whole, rng)))]
    if shape.is_irreducible or shape == CLASSICAL_BIT:  # the corrected states
        calls.append(("teleport identity", teleport, (identity_channel(shape), s)))
    for rank_a in (None, 1):
        j = random_joint_state(shape, shape, rng, rank_a=rank_a)
        calls += [(f"condition {side}", conditional_from_joint, (j, side)) for side in "ab"]
        povms = (random_povm(shape, 3, rng), random_povm(shape, 2, rng))
        calls.append(("verify_theorem", verify_theorem, (j, *povms)))
    return calls


TRUSTED_SHAPES = [AlgebraShape(dims) for dims in ((2,), (4,), (1, 1), (1,) * 4, (2, 1), (2, 1, 1))]


@pytest.mark.any_kernel
def test_trusted_outputs_are_what_the_judged_path_builds(rng, monkeypatch):
    # on irreducible, classical and mixed shapes, and on the near-cutoff joints
    # of ``TestNearCutoffVerdicts``, whose conditioning may fail after its
    # ``_trusted`` call: what a failed call built never leaves it
    cutoff = importlib.import_module("test_conditional").TestNearCutoffVerdicts
    calls = [call for shape in TRUSTED_SHAPES for call in trusted_calls(rng, shape)]
    # rank-deficient joints small enough for the scalar pass, which it hands to
    # numpy: a pure entangled qubit pair and perfectly correlated bits
    psi = random_support_projector(AlgebraShape((4,)), 1, rng)
    for shape, m in ((QUBIT, psi), (CLASSICAL_BIT, np.diag([0.3, 0, 0, 0.7]))):
        j, tag = JointState(shape, shape, m), f"rank-deficient {shape_id(shape)}"
        povms = (random_povm(shape, 3, rng), random_povm(shape, 2, rng))
        calls += [(f"condition {side} {tag}", conditional_from_joint, (j, side)) for side in "ab"]
        calls.append((f"verify_theorem {tag}", verify_theorem, (j, *povms)))
    # a Choi form of size 474, built unchecked as the small ones are
    wide = random_channel(AlgebraShape((1,)), AlgebraShape((474,)), 1, rng)
    calls.append(("choi_conditional (1,) → (474,)", choi_conditional, (wide,)))
    for eps in cutoff.EPSILONS:
        for seed in cutoff.SEEDS:
            j = cutoff.joint(eps, seed)
            povms = (random_povm(QUTRIT, 3, rng), random_povm(QUBIT, 2, rng))
            calls += [(f"condition {side}", conditional_from_joint, (j, side)) for side in "ab"]
            calls.append(("verify_theorem", verify_theorem, (j, *povms)))
    built, counts = record_trusted(monkeypatch), {}
    for name, fn, args in calls:
        if verdict(fn, *args) is not None:
            del built[:]
            continue
        for out in built:
            check_trusted(out, held_arrays(*args))
        counts[name] = counts.get(name, 0) + len(built)
        del built[:]
    # every map, and teleport's corrected states, built some outputs unjudged
    assert sorted(counts) == sorted({name for name, _, _ in calls}) and min(counts.values()) > 0


def rebuilt_channel_cases(rng):
    """Conditionals to rebuild a channel from, on the three shape classes and one pair that
    groups its blocks: certified Choi forms and the same matrices judged, the Choi form of a
    channel whose leak is above the gate, conditionals of full-rank and rank-deficient joints
    (a restricted support), and the accepted conditionals of the near-cutoff joints of
    ``TestNearCutoffVerdicts``."""
    conds = []
    for shape in [*TRUSTED_SHAPES, AlgebraShape((2, 2))]:
        choi = choi_conditional(random_channel(shape, shape, 2, rng))
        conds += [choi, ConditionalState(shape, shape, np.array(choi.matrix))]
        if not shape.is_irreducible:
            conds.append(choi_conditional(Channel(shape, shape, leaking_kraus(
                rng, shape, shape, BLOCK_TOL / 2))))
        for rank_a in (None, 1):
            j = random_joint_state(shape, shape, rng, rank_a=rank_a)
            conds += [conditional_from_joint(j, side) for side in "ab"]
    cutoff = importlib.import_module("test_conditional").TestNearCutoffVerdicts
    for eps in cutoff.EPSILONS:
        for seed in cutoff.SEEDS:
            got = []
            for side in "ab":
                verdict(lambda: got.append(conditional_from_joint(cutoff.joint(eps, seed), side)))
            conds += got
    return conds


@pytest.mark.any_kernel
def test_rebuilt_channel_is_what_the_constructor_builds(rng):
    # channel_from_conditional takes its Kraus tensor over and skips the input checks;
    # the public constructor on the same arrays builds the same bits and the same gate
    restricted, certified = 0, set()
    for cond in rebuilt_channel_cases(rng):
        c2 = channel_from_conditional(cond)
        ref = Channel(c2.shape_in, c2.shape_out, c2.kraus, c2.input_support)
        for name in ("kraus", "_superop", "input_support"):
            got, want = getattr(c2, name), getattr(ref, name)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == np.complex128 and got.flags.c_contiguous
                assert not got.flags.writeable and got.tobytes() == want.tobytes()
        assert not any(np.shares_memory(x, cond.matrix) for x in held_arrays(c2))
        assert c2._certifies is ref._certifies
        restricted += c2.input_support is not None
        certified.add(c2._certifies)
    # at least each rank-deficient joint conditioned on its first side is restricted
    assert restricted >= len(TRUSTED_SHAPES) + 1 and certified == {True, False}


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims", [(2,), (1, 1), (2, 1)], ids=str)
def test_rebuilt_channel_measures_its_trace_deviation(rng, dims, monkeypatch):
    # a certified Choi conditional scaled by 1 + 5e-10 is valid and its support is within
    # IDENTITY_TOL of I, so unrestricted; but Σ K†K of its channel is 5e-10 off I, and
    # d_in·tp_dev > INPUT_TOL/4: the rebuilt channel does not certify, and apply judges
    # its output, whose trace is 5e-10 off 1, and refuses it
    shape = AlgebraShape(dims)
    d = shape.total_dim
    c, s = random_channel(shape, shape, 2, rng), random_state(shape, rng)
    assert c._certifies and s.floor == 0.0
    scaled = ConditionalState(shape, shape, choi_conditional(c).matrix * (1 + 5e-10))
    assert _restricted_support(scaled) is None
    c2 = channel_from_conditional(scaled)
    assert max_abs(_kraus_gram(c2.kraus) - np.eye(d)) == pytest.approx(5e-10, rel=1e-3)
    assert c2._certifies is False and Channel(shape, shape, c2.kraus)._certifies is False
    judged = count_conditional_judges(monkeypatch)  # every State judged goes through it
    apply(channel_from_conditional(choi_conditional(c)), s)
    assert judged == []
    with pytest.raises(InvariantViolation) as info:
        apply(c2, s)
    assert info.value.invariant == "trace" and info.value.deviation == pytest.approx(5e-10, rel=1e-3)
    assert judged == [(1, d, d)]


# -- a validated object is judged once -----------------------------------------


def validated_calls(rng, shape, partner):
    """(name, map, arguments, the matrices of its validated inputs that it decomposes) of each
    map that decomposes a ``State`` or ``ConditionalState``, on ``shape`` with ``partner``."""
    j = random_joint_state(shape, partner, rng)
    marg_a, marg_b = reduce(j, "a"), reduce(j, "b")
    env = max(2, -(-shape.total_dim // partner.total_dim))
    choi = choi_conditional(random_channel(shape, partner, env, rng))
    restricted = conditional_from_joint(random_joint_state(shape, partner, rng, rank_a=1), "a")
    judged = ConditionalState(shape, partner, np.array(choi.matrix))
    s, povm = random_state(shape, rng), random_povm(shape, 3, rng)
    calls = [(f"channel_from_conditional {kind}", channel_from_conditional, (cond,), [cond.matrix])
             for kind, cond in (("certified", choi), ("restricted", restricted), ("judged", judged))]
    ensemble = prepare(povm, s)
    return calls + [
        ("joint_from_conditional", joint_from_conditional,
         (marg_a, conditional_from_joint(j, "a")), [marg_a.matrix]),
        ("bayes_invert", bayes_invert, (conditional_from_joint(j, "b"), marg_a, marg_b),
         [marg_a.matrix, marg_b.matrix]),
        ("prepare", prepare, (povm, s), [s.matrix]),
        ("povm_from_ensemble", povm_from_ensemble, (ensemble, s), [s.matrix]),
    ]


def output_bytes(out):
    """The bytes of every array a map's output holds."""
    objs = [out, *getattr(out, "members", ())]
    return [a.tobytes() for a in held_arrays(*objs) + [getattr(out, "weights", np.empty(0))]]


def count_judges(monkeypatch):
    """Record a copy of every stack that ``matcore.judge`` is given."""
    judged = []

    def counted(stack, *args, **kwargs):
        judged.append(np.array(stack))
        return judge(stack, *args, **kwargs)

    monkeypatch.setattr("condchan.matcore.judge", counted)
    return judged


def raw_route(m, lay, parts=None):
    """The decomposition of ``m`` by the public, judging routine."""
    return herm_eig(m, lay)


# irreducible, classical and mixed pairs, one pair of dimension 16 that groups its blocks
# and one algebra of dimension 16 that groups its own
JUDGED_ONCE_PAIRS = [((2,), (3,)), ((1, 1, 1), (1, 1)), ((2, 1), (2,)), ((2, 2), (2, 2)),
                     ((1,) * 16, (1,))]


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims, partner", JUDGED_ONCE_PAIRS, ids=str)
def test_maps_decompose_validated_inputs_unjudged(rng, dims, partner, monkeypatch):
    # no judge call on a validated input's matrix, the same solver calls and the same
    # bits as the raw-matrix route through herm_eig; conditioning still judges its
    # marginal, a raw partial trace
    shape, partner = AlgebraShape(dims), AlgebraShape(partner)
    calls = validated_calls(rng, shape, partner)
    j = random_joint_state(shape, partner, rng)
    judged, solved = count_judges(monkeypatch), count_linalg(monkeypatch, ("eigh",))
    runs = {}
    for route in ("unjudged", "raw"):
        if route == "raw":
            for module in ("channels", "conditional", "povm"):
                monkeypatch.setattr(f"condchan.{module}._valid_eig", raw_route)
        for name, fn, args, inputs in calls:
            judged.clear()
            solved.clear()
            out = fn(*args)
            seen = sum(np.array_equal(m, x) for stack in judged for m in stack for x in inputs)
            runs[route, name] = output_bytes(out), list(solved), seen
    for name, _, _, inputs in calls:
        unjudged, raw = runs["unjudged", name], runs["raw", name]
        assert unjudged[:2] == raw[:2]
        assert unjudged[2] == 0 and raw[2] == len(inputs)
        if layout(shape, partner).groups and name.startswith("channel_from_conditional"):
            assert all(len(shape) == 3 for _, shape in unjudged[1])  # per block
    for side in "ab":
        judged.clear()
        conditional_from_joint(j, side)
        marginal = _marginal(j, side)[1]
        assert any(np.array_equal(stack[0], marginal) for stack in judged)


def test_second_teleport_factors_no_bell_stack(rng, monkeypatch):
    # neither the first call nor a later one validates a (d², d², d²) stack;
    # at d = SCALAR_MAX_DIM + 1 the success state is past the scalar pass, so some call is seen
    d = SCALAR_MAX_DIM + 1
    shape = AlgebraShape((d,))
    c, s = random_channel(shape, shape, 2, rng), random_state(shape, rng)
    bell_stack = (d * d, d * d, d * d)
    calls = count_linalg(monkeypatch)
    first = teleport(c, s)
    second = teleport(c, s)
    assert calls and all(shape != bell_stack for _, shape in calls)
    assert second.outcome_probabilities.tobytes() == first.outcome_probabilities.tobytes()


def unread_outcome_case(rng, theta):
    """A pure qubit input |φ⟩ and the basis {I - E, E}, E = |χ⟩⟨χ| ⊗ |η⟩⟨η| with χ
    at angle θ from the complement of φ: outcome 1 has a probability of order θ²."""
    phi, eta = (unit / np.linalg.norm(unit) for unit in random_complex(rng, 2, 2))
    perp = np.array([-phi[1].conj(), phi[0].conj()])
    chi = np.cos(theta) * perp + np.sin(theta) * np.exp(2j * np.pi * rng.random()) * phi
    effect = np.kron(np.outer(chi, chi.conj()), np.outer(eta, eta.conj()))
    return State(QUBIT, np.outer(phi, phi.conj())), [np.eye(4) - effect, effect]


@pytest.mark.any_kernel
@pytest.mark.parametrize("theta", [1e-4, 1e-5, 1.5e-6])
def test_teleport_accepts_an_unread_outcome_of_tiny_probability(monkeypatch, theta):
    # normalized by its probability, about 1e-8 to 1e-12, outcome 1 carries
    # rounding far above INPUT_TOL; no caller reads it, and only the success
    # state is built and judged, so no such run raises
    rng = np.random.default_rng(2027)
    channels = (identity_channel(QUBIT), random_channel(QUBIT, QUBIT, 1, np.random.default_rng(5)))
    for _ in range(8):
        s, basis = unread_outcome_case(rng, theta)
        for c in channels:
            report, (probs, kept, branches) = teleport_branches(monkeypatch, c, s, basis, 0)
            success = hermitize(branches[[0]] / probs[0])[0]
            bob = report.bob_state_on_success.matrix
            assert bob.tobytes() == State(QUBIT, success).matrix.tobytes()
            assert abs(float(probs.sum()) - 1.0) <= IDENTITY_TOL


@pytest.mark.any_kernel
@pytest.mark.parametrize("d", [2, 5])
def test_teleport_judges_only_the_success_state(rng, monkeypatch, d):
    # one validate_psd, on a stack of one: the success state; the basis is
    # judged as a POVM, and the certified channel's conditional form is not
    shape = AlgebraShape((d,))
    judged = []

    def judge_states(stack, *args, **kwargs):
        judged.append(stack.shape)
        return validate_psd(stack, *args, **kwargs)

    for shape_out in output_classes(d):
        c, s = random_channel(shape, shape_out, 2, rng), random_state(shape, rng)
        assert c._certifies
        monkeypatch.setattr("condchan.states.validate_psd", judge_states)
        for basis in (None, bell_basis(d)):
            judged.clear()
            teleport(c, s, basis, 0)
            assert judged == [(1, shape_out.total_dim, shape_out.total_dim)]
        monkeypatch.undo()


@pytest.mark.any_kernel
def test_povm_holds_its_elements_as_one_read_only_tensor(rng):
    # from a list, tuple, iterator or array, of integer, float or complex
    # entries: one fresh row-major complex128 (n, d, d) tensor, read-only
    shape = AlgebraShape((2, 1))
    given = [np.array(e) for e in random_povm(shape, 4, rng).elements]
    s = random_state(shape, rng)
    expected = np.stack(given)
    outcomes = []
    for elements in (given, tuple(given), iter(given), expected):
        m = POVM(shape, elements)
        held = m.elements
        assert held.dtype == np.complex128 and held.shape == (4, 3, 3)
        assert held.flags.c_contiguous and not held.flags.writeable
        assert not any(np.shares_memory(held, g) for g in [*given, expected])
        assert held.tobytes() == expected.tobytes() and len(m) == 4
        assert [e.tobytes() for e in held] == [g.tobytes() for g in given]
        assert measure(m, s).tobytes() == np.einsum("jab,ba->j", expected, s.matrix).real.tobytes()
        outcomes.append(sample(m, s, np.random.default_rng(3), 1000).tolist())
        back = povm_from_ensemble(prepare(m, s), s)
        assert back.elements.shape == (4, 3, 3) and not back.elements.flags.writeable
        close(back.elements, held)
    assert outcomes[1:] == outcomes[:-1] and sum(outcomes[0]) == 1000
    for entries in (np.eye(3, dtype=int), np.eye(3)):
        held = POVM(shape, [entries]).elements
        assert held.dtype == np.complex128 and held.tobytes() == np.eye(3, dtype=complex)[None].tobytes()


@pytest.mark.any_kernel
@pytest.mark.parametrize("elements, message", [
    ([], "a POVM needs at least one element"),
    (np.zeros((0, 2, 2)), "a POVM needs at least one element"),
    ([np.eye(3)], r"element shape \(3, 3\) does not match total dim 2"),
    ([np.eye(2) / 2, np.eye(3)], r"element shape \(3, 3\) does not match total dim 2"),
    (np.eye(2), "expected a 2-D matrix, got ndim=1"),
    ([np.eye(3), np.zeros((1, 2, 2))], "expected a 2-D matrix, got ndim=3"),
    ([np.eye(2), [1.0, 0.0]], "expected a 2-D matrix, got ndim=1"),
], ids=["empty", "empty-array", "shape", "second-shape", "matrix", "ndim-after-shape", "ragged"])
def test_povm_keeps_its_shape_errors_when_elements_do_not_stack(elements, message):
    # an input that does not stack into (n, d, d) is checked element by element,
    # all conversions first, as before the elements were held as one tensor
    with pytest.raises(ShapeMismatch, match=message):
        POVM(QUBIT, elements)


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
    return (full * layout(shape_in).mask[:, None, :, None]).reshape(din * dout, din * dout)


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


def check_branch_products(monkeypatch, rng, shape, c, effects=None):
    """The branches of the Bell basis through its closed-form reduction
    (``effects`` None), or of an explicit basis through ``teleport``,
    against the einsum contraction over the effects: every branch, and every
    kept one normalized."""
    s = random_state(shape, rng)
    d, dim_out = shape.total_dim, c.shape_out.total_dim
    resource = choi_conditional(c).matrix / d
    if effects is None:
        effects = np.stack(oracle_bell_basis(d))
        probs, kept, branches = _run_branches(_bell_reduced(s.matrix), resource, c.shape_out)
    else:
        probs, kept, branches = teleport_branches(monkeypatch, c, s, effects, 0)[1]
    expected = oracle_einsum_branches(s.matrix, resource, effects, dim_out)
    close(probs, np.trace(expected, axis1=1, axis2=2).real)
    assert kept.tolist() == (probs > NEGLIGIBLE).tolist()
    close(branches, expected)
    for got, p, branch in zip(branches[kept], probs[kept], expected[kept], strict=True):
        close(hermitize(got / p), hermitize(branch / p))


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
def test_branch_products_match_einsum_oracle(rng, shape, monkeypatch):
    d = shape.total_dim
    for shape_out in output_classes(d):
        c = random_channel(shape, shape_out, 2, rng)
        check_branch_products(monkeypatch, rng, shape, c)
        check_branch_products(monkeypatch, rng, shape, c, np.stack(bell_basis(d)))


def test_branch_products_match_einsum_oracle_at_dim_16(rng, monkeypatch):
    # a two-outcome basis keeps the effects at 2 MB instead of 268 MB
    shape = AlgebraShape((16,))
    success = bell_basis(16)[0]
    c = random_channel(shape, AlgebraShape((4, 2)), 3, rng)
    check_branch_products(monkeypatch, rng, shape, c, np.stack([success, np.eye(256) - success]))


def test_superoperator_is_formed_once_per_channel(rng, monkeypatch):
    shape = AlgebraShape((3, 2))
    formed = []
    original = channels_module._superoperator

    def counted(kraus):
        formed.append(kraus.shape)
        return original(kraus)

    monkeypatch.setattr(channels_module, "_superoperator", counted)
    c = random_channel(shape, AlgebraShape((2, 1)), 3, rng)
    assert formed == [c.kraus.shape]
    s = random_state(shape, rng)
    choi_conditional(c)
    choi_conditional(c)
    for _ in range(10):
        apply(c, s)
    assert len(formed) == 1
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


# 0, or IDENTITY_TOL times a factor up to 2 that is at least 1e-3 off 1
NEAR_IDENTITY_TOL = st.one_of(
    st.just(0.0),
    st.sampled_from([1 - 1e-3, 1 + 1e-3]),
    st.floats(0.0, 2.0).filter(lambda f: abs(f - 1) >= 1e-3),
).map(lambda f: f * IDENTITY_TOL)


@pytest.mark.any_kernel
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(
    shape_in=st.sampled_from(SMALL_SHAPES),
    shape_out=st.sampled_from(SMALL_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    tp=NEAR_IDENTITY_TOL,
    tp_sign=SIGNS,
    leak=NEAR_IDENTITY_TOL,
    with_support=st.booleans(),
)
def test_channel_constructor_verdict_matches_the_choi_oracle(
    shape_in, shape_out, seed, tp, tp_sign, leak, with_support
):
    # a channel is accepted exactly when Σ K†K is within IDENTITY_TOL of its
    # resolution, its Choi leak within IDENTITY_TOL and its Choi λmin above
    # -IDENTITY_TOL; a Kraus form is CP, so λmin is never what rejects it
    rng = np.random.default_rng(seed)
    kraus = leaking_kraus(rng, shape_in, shape_out, leak) * np.sqrt(1 + tp_sign * tp)
    support = None
    if with_support:
        support = random_support_projector(shape_in, int(rng.integers(1, shape_in.total_dim + 1)), rng)
        kraus = kraus @ support
    target = np.eye(shape_in.total_dim) if support is None else support
    tp_dev = np.max(np.abs(oracle_kraus_gram(kraus) - target))
    choi = oracle_choi_matrix(kraus, shape_in)
    leak_dev = support_deviation(choi, shape_in, shape_out)
    w = np.linalg.eigvalsh(hermitize(choi))
    expected = None
    if tp_dev > IDENTITY_TOL:
        expected = ("trace_preserving", tp_dev)
    elif leak_dev > IDENTITY_TOL:
        expected = ("output_block_support", leak_dev)
    elif w[0] < -IDENTITY_TOL:
        expected = ("positive", -w[0])
    got = verdict(Channel, shape_in, shape_out, kraus, support)
    if expected is None:
        assert got is None
        assert w[0] >= -len(choi) * np.finfo(float).eps * np.abs(w).max()
    else:
        assert got[:2] == (InvariantViolation, expected[0])
        assert got[2] == pytest.approx(expected[1], rel=1e-9)


# -- tests: the isometry verdict ---------------------------------------------


def oracle_is_isometry(c):
    w = np.linalg.eigvalsh(hermitize(oracle_choi_matrix(c.kraus, c.shape_in)))[::-1]
    return abs(w[0] - w.sum()) <= IDENTITY_TOL and bool(np.all(np.abs(w[1:]) <= IDENTITY_TOL))


def isometry_cases(rng, shape):
    d = shape.total_dim
    yield Channel(shape, AlgebraShape((d,)), (random_unitary(d, rng),))
    yield Channel(shape, AlgebraShape((d + 1,)), (random_unitary(d + 1, rng)[:, :d],))
    for env in (1, 2, d):
        yield random_channel(shape, shape, env, rng)
    # a second Kraus operator of norm 1e-6 leaves a Choi eigenvalue of about
    # d·1e-12 and Σ K†K off I by 1e-12: an accepted channel, isometric at IDENTITY_TOL
    u, v = random_unitary(d, rng), random_unitary(d, rng)
    yield Channel(shape, AlgebraShape((d,)), (u, 1e-6 * v))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_spectral_checks_match_the_full_eigendecomposition(rng, shape):
    verdicts = set()
    for c in isometry_cases(rng, shape):
        assert is_isometry(c) == oracle_is_isometry(c)
        verdicts.add(is_isometry(c))
    # the pinched Choi matrix of a reducible input has one rank per block
    assert verdicts == ({True, False} if len(shape.block_dims) == 1 else {False})


def test_spectral_checks_make_one_eigh_call(rng, monkeypatch):
    # one eigh of the whole Choi matrix, also where a reducible pair of
    # dimension 16 has block groups and where its leak is above BLOCK_TOL
    shape = AlgebraShape((4,))
    unitary = Channel(shape, shape, (random_unitary(4, rng),))
    reducible = random_channel(AlgebraShape((2, 2)), AlgebraShape((3, 1)), 3, rng)
    assert layout(reducible.shape_in, reducible.shape_out).groups
    k = random_block_unitary(AlgebraShape((3, 1)), rng)
    k[3, 0] = 1e-10
    leaking = Channel(AlgebraShape((3, 1)), AlgebraShape((3, 1)), (k,))
    assert support_deviation(_choi_matrix(leaking), leaking.shape_in, leaking.shape_out) > BLOCK_TOL
    calls = count_linalg(monkeypatch)
    for c, isometric in ((unitary, True), (reducible, False), (leaking, False)):
        calls.clear()
        assert is_isometry(c) == isometric
        assert calls == [("eigh", (16, 16))]


def test_spectral_checks_keep_the_hermiticity_check(rng):
    g = random_complex(rng, 4, 4)
    with pytest.raises(InvariantViolation) as info:
        herm_eig(g)
    assert (info.value.invariant, info.value.deviation) == ("hermitian", np.abs(g - g.conj().T).max())


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
    if shape_a.is_irreducible or shape_a == CLASSICAL_BIT:
        yield "teleport", lambda: teleport(c, s)


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
    # the marginal's eigh alone: no Kraus channel is rebuilt from the 6 × 6 conditional
    assert [call for call in calls if call[0] != "cholesky"] == [("eigh", (3, 3))]
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


def block_cases(rng, shape):
    """(matrix, layout, conditional or None) on ``shape``: Choi matrices
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
            yield cond.matrix, layout(cond.shape_in, cond.shape_out), cond
        yield reduce(j, "a").matrix, layout(shape), None


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_block_spectra_match_the_full_eigendecomposition(rng, shape):
    for m, blocks, cond in block_cases(rng, shape):
        full = np.linalg.eigh(m)[0][::-1]
        close(herm_eig(m, blocks).eigenvalues, full)
        if cond is not None:
            # a degenerate eigenspace may give another Kraus basis, not another channel
            dense = oracle_kraus_from_conditional(cond, blocks=False)
            close(choi_from_kraus(channel_from_conditional(cond).kraus), choi_from_kraus(dense))


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_block_eigenvectors_are_exactly_zero_off_their_block(rng, shape):
    for m, blocks, cond in block_cases(rng, shape):
        if not blocks.groups:
            continue
        nonzero = herm_eig(m, blocks).eigenvectors.T != 0
        # no eigenvector has two nonzero entries in different blocks
        assert not (nonzero[:, :, None] & nonzero[:, None, :] & ~blocks.mask).any()
        if cond is not None:
            choi = choi_from_kraus(channel_from_conditional(cond).kraus)
            assert support_deviation(choi, cond.shape_in, cond.shape_out) == 0.0


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims", [(1,) * 16, (8, 4, 2, 1, 1), (9, 7)], ids=str)
def test_marginal_roots_are_taken_per_block(rng, dims, monkeypatch):
    # joint_from_conditional and prepare decompose a reducible marginal from
    # BLOCKWISE_MIN_DIM up per block, as conditioning and Bayes do, within
    # rounding of the whole-matrix root
    shape = AlgebraShape(dims)
    d = shape.total_dim
    j = random_joint_state(shape, AlgebraShape((2,)), rng)
    marg, cond, povm = reduce(j, "a"), conditional_from_joint(j, "a"), random_povm(shape, 3, rng)
    root = herm_eig(marg.matrix).root()  # the whole-matrix route
    calls = count_linalg(monkeypatch, ("eigh",))
    rebuilt = joint_from_conditional(marg, cond)
    assert calls and all(len(s) == 3 and s[-1] < d for _, s in calls)
    calls.clear()
    ensemble = prepare(povm, marg)
    assert calls and all(len(s) == 3 and s[-1] < d for _, s in calls)
    whole = np.kron(root, np.eye(2))
    want = hermitize(whole @ cond.matrix @ whole)
    np.testing.assert_allclose(rebuilt.matrix, want, rtol=0, atol=1e-12)
    members = hermitize(root @ povm.elements @ root)
    members /= members.trace(axis1=1, axis2=2).real[:, None, None]
    got = np.stack([m.matrix for m in ensemble.members])
    np.testing.assert_allclose(got, members, rtol=0, atol=1e-12)


@pytest.mark.any_kernel
def test_layout_groups_start_at_the_crossover_dimension():
    # below BLOCKWISE_MIN_DIM (and for one block) a layout has no groups, so the
    # matrix is decomposed whole; groups gather every entry of the support once
    dims = ((3,), (2, 1), (1, 1, 1), (3, 1), (2, 2), (4, 2, 1, 1), (16,), (1,) * 16, (9, 7))
    shapes = [AlgebraShape(d) for d in dims]
    for tup in [(a,) for a in shapes] + [(a, b) for a in shapes for b in shapes[:6]]:
        got, d = layout(*tup), int(np.prod([s.total_dim for s in tup]))
        split = d >= BLOCKWISE_MIN_DIM and np.prod([len(s.block_dims) for s in tup]) > 1
        assert bool(got.groups) == split
        positions = (got.entries, got.mirror, got.compact, got.scatter)
        assert [p is not None for p in positions] == [split] * 4
        if split:
            assert sorted(got.entries.tolist()) == np.flatnonzero(got.mask).tolist()
            assert sum(g.n * g.size for g in got.groups) == d == got.compact.shape[1]


def test_block_spectra_reject_off_block_weight_and_keep_their_errors(rng, monkeypatch):
    shape = AlgebraShape((3, 1))
    blocks = layout(shape, shape)
    m = choi_conditional(random_channel(shape, shape, 2, rng)).matrix
    off = ~blocks.mask
    i, k = np.argwhere(off)[0]
    at_tol, leaky = np.array(m), np.array(m)
    at_tol[i, k] = at_tol[k, i] = BLOCK_TOL
    leaky[i, k] = leaky[k, i] = 2 * BLOCK_TOL
    close(herm_eig(at_tol, blocks).eigenvalues, herm_eig(at_tol).eigenvalues)
    with pytest.raises(InvariantViolation) as info:
        herm_eig(leaky, blocks)
    assert (info.value.invariant, info.value.deviation) == ("block_support", 2 * BLOCK_TOL)
    # a conditional with that leak is refused when built, and Kraus extraction does not judge
    # it again: from one built unchecked it reads the block entries only
    with pytest.raises(InvariantViolation, match="block_support"):
        ConditionalState(shape, shape, leaky)
    c = channel_from_conditional(_trusted(ConditionalState, shape, shape, leaky, floor=np.inf))
    assert support_deviation(_choi_matrix(c), shape, shape) == 0
    # without an index the whole matrix is decomposed, leak included
    close(herm_eig(leaky).eigenvalues, np.linalg.eigvalsh(leaky)[::-1])
    # drift within INPUT_TOL inside a block is symmetrized away first
    drift = np.array(m)
    drift[~off & np.triu(np.ones(m.shape, dtype=bool), 1)] += 1e-11
    got, want = (herm_eig(x, blocks).eigenvalues for x in (drift, hermitize(drift)))
    assert got.tobytes() == want.tobytes()
    g = random_complex(rng, 16, 16)
    with pytest.raises(InvariantViolation) as info:
        herm_eig(g, blocks)
    assert (info.value.invariant, info.value.deviation) == ("hermitian", np.abs(g - g.conj().T).max())

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        herm_eig(m, blocks)


def test_channel_checks_read_a_leaking_choi_matrix_whole(rng):
    # a channel may leave up to IDENTITY_TOL off the output blocks; is_isometry
    # decomposes its whole Choi matrix, leak included, instead of raising
    shape = AlgebraShape((3, 1))
    k = random_block_unitary(shape, rng)
    k[3, 0] = 1e-10
    c = Channel(shape, shape, (k,))
    assert BLOCK_TOL < support_deviation(_choi_matrix(c), shape, shape) <= IDENTITY_TOL
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


# -- oracles and tests: the round trip's per-call forms ----------------------


def oracle_update_trusted(cls, *values, floor, **settled):
    """``states._trusted`` as it was written before its direct writes: one ``update`` call."""
    obj = object.__new__(cls)
    values[-1].setflags(write=False)
    vars(obj).update(zip(cls.__match_args__, values), floor=floor, **settled)
    return obj


def oracle_searched_phases(vectors):
    """``matcore._fix_phases`` as it was written before its first-row path: a pivot search."""
    mag = np.abs(vectors)
    if not mag.size:
        return np.array(vectors, copy=True)
    above = mag > NEGLIGIBLE * mag.max(axis=0)
    first = above.argmax(axis=0)
    whole = len(mag) > 1 and above.any(axis=0).all()
    cols = np.arange(mag.shape[1])
    cols = cols if whole else np.flatnonzero(above[first, cols])
    pivot = vectors[first[cols], cols]
    factor = pivot.conjugate() / np.hypot(pivot.real, pivot.imag)
    if whole:
        return (vectors.T * factor[:, None]).T
    out = np.array(vectors, copy=True)
    out.T[cols] = out.T[cols] * factor[:, None]
    return out


def oracle_gathered_kraus(cond):
    """The Kraus tensor ``channel_from_conditional`` built by gathering the kept mask."""
    din, dout = cond.shape_in.total_dim, cond.shape_out.total_dim
    es = herm_eig(cond.matrix, layout(cond.shape_in, cond.shape_out))
    keep = es.kept
    vecs = es.eigenvectors.T[keep] * np.sqrt(es.eigenvalues[keep])[:, None]
    return np.array(vecs.reshape(-1, din, dout).swapaxes(1, 2), order="C")


ROUNDTRIP_PAIRS = [(AlgebraShape(a), AlgebraShape(b))
                   for a in [(2,), (3,), (2, 1), (1, 1)] for b in [(2,), (3,), (1, 1)]]
CLASS_PAIRS = [(s, s) for s in map(AlgebraShape, [(2,), (1, 1), (3,), (1, 1, 1), MIXED_BY_DIM[3],
                                                  (4,), (1,) * 4, MIXED_BY_DIM[4]])]


@pytest.mark.any_kernel
@pytest.mark.parametrize("shape_in, shape_out", ROUNDTRIP_PAIRS + CLASS_PAIRS,
                         ids=shape_id)
def test_certified_apply_is_the_product_of_apply_matrix(rng, shape_in, shape_out):
    # the certified output is apply_matrix's product, bit for bit, C-contiguous,
    # read-only and of floor inf; the judged output (a state of floor > 0) is too
    c, s = random_channel(shape_in, shape_out, 2, rng), random_state(shape_in, rng)
    assert c._certifies and s.floor == 0.0  # the scalar pass proved s definite
    judged = _trusted(State, shape_in, np.array(s.matrix), floor=1e-15)  # not certifiable
    outs = [(state, apply(c, state)) for state in (s, judged)]
    for state, out in outs:
        assert out.matrix.tobytes() == apply_matrix(c, state.matrix).tobytes()
        assert out.matrix.flags.c_contiguous and not out.matrix.flags.writeable
    assert [out.floor == math.inf for _, out in outs] == [True, False]


@pytest.mark.any_kernel
def test_trusted_writes_the_attributes_of_one_update(rng):
    shape = AlgebraShape((2, 1))
    cond = conditional_from_joint(random_joint_state(shape, QUBIT, rng), "a")
    cases = [(State, (shape,), {}), (JointState, (shape, QUBIT), {}),
             (ConditionalState, (shape, QUBIT), {}),
             (ConditionalState, (shape, QUBIT), {"_restricted": None})]
    for cls, shapes, settled in cases:
        d = int(np.prod([s.total_dim for s in shapes]))
        m = cond.matrix if d == len(cond.matrix) else random_state(shape, rng).matrix
        built = [make(cls, *shapes, np.array(m), floor=0.25, **settled)
                 for make in (_trusted, oracle_update_trusted)]
        got, want = ([(key, value if key != "matrix" else value.tobytes())
                      for key, value in vars(obj).items()] for obj in built)
        assert type(built[0]) is cls and got == want
        assert not built[0].matrix.flags.writeable


def scalar_diagonal_cases(d):
    """Unit-trace (d, d) matrices, each the definite I/d with one diagonal entry (or an
    off-diagonal pair) changed: what the scalar pass's one read of the diagonal tests."""
    base = np.eye(d, dtype=complex) / d
    x = 1 / d
    entries = [complex(x, 0.0), complex(x, -0.0), complex(x, np.nan), complex(np.nan, 0.0),
               complex(x, np.inf), complex(np.inf, 0.0), complex(-np.inf, -0.0),
               complex(x, 1e-300), complex(x, -1e-17), complex(1e308, 0.0), complex(-1e308, 0.0)]
    cases = []
    for entry in entries:
        for k in {0, d - 1}:
            m = base.copy()
            m[k, k] = entry
            cases.append(m)
    if d > 1:  # an off-diagonal x + x that overflows, and one that does not
        for z in (complex(1e308, 1e308), complex(1e308, 0.0), complex(0.0, -1e308), 0.25j):
            m = base.copy()
            m[0, d - 1], m[d - 1, 0] = z, z.conjugate()
            cases.append(m)
    return cases


@pytest.mark.any_kernel
@pytest.mark.parametrize("d", range(1, SCALAR_MAX_DIM + 1))
def test_scalar_pass_reads_the_diagonal_once_with_the_loop_verdict(d):
    # ±0.0 imaginary parts are proved; NaN or inf in either part, a complex entry,
    # an overflowing diagonal and an off-diagonal x + x that overflows are not
    shapes = [AlgebraShape((d,)), AlgebraShape((1,) * d)]
    verdicts = []
    for m in scalar_diagonal_cases(d):
        for outside in (layout(shape).outside for shape in shapes):
            verdicts.append(_proves_definite(m, outside))
            assert verdicts[-1] == proves_definite_loop(m, outside)
    assert any(verdicts) and not all(verdicts)


class NumpySpy:
    """numpy, recording each attribute read through it."""

    def __init__(self):
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(np, name)


def phase_cases(rng):
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u = random_unitary(6, rng)
    zero_row = np.linalg.eigh(g + g.conj().T)[1]
    zero_row[0] = 0.0
    zero_column = g.copy()
    zero_column[:, 3] = 0.0
    return {
        "random": g,
        "eigenvectors": np.linalg.eigh(g + g.conj().T)[1],
        "tied": np.linalg.eigh((u * [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]) @ u.conj().T)[1],
        "tied-classical": np.linalg.eigh(np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]) + 0j)[1],
        "zero-first-row": zero_row,
        "unit-vectors": np.eye(6, dtype=complex)[:, [3, 0, 5, 1, 4, 2]],
        "one-by-one": g[:1, :1],
        "zero-column": zero_column,
        "one-row": g[:1],
        "transposed": g.T,
    }


@pytest.mark.any_kernel
def test_first_row_phase_path_gives_the_searched_bytes_and_strides(rng, monkeypatch):
    spy = NumpySpy()
    monkeypatch.setattr("condchan.matcore.np", spy)
    searched = {}
    for name, v in phase_cases(rng).items():
        spy.read.clear()
        got, want = _fix_phases(v), oracle_searched_phases(v)
        assert (got.tobytes(), got.strides) == (want.tobytes(), want.strides), name
        searched[name] = "arange" in spy.read  # only the pivot search reads np.arange
    # where row 0 holds every pivot it is read; the rest search (the eigh bases, whose
    # zeros depend on the BLAS kernel, are left out)
    assert {name: searched[name] for name in searched if "tied" not in name} == {
        "random": False, "eigenvectors": False, "zero-first-row": True, "unit-vectors": True,
        "one-by-one": True, "zero-column": True, "one-row": True, "transposed": False}


PREFIX_PAIRS = [((2,), (2,)), ((3,), (1, 1)), ((2, 1), (3,)), ((1, 1, 1), (1, 1, 1)),
                ((4,), (4,)), ((2, 2), (2, 2)), ((1,) * 4, (1,) * 4), ((4, 2, 1, 1), (2, 1))]


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims_in, dims_out", PREFIX_PAIRS, ids=str)
def test_kraus_prefix_slice_is_the_kept_mask_gather(rng, dims_in, dims_out):
    # whole and blocked (a reducible pair of dimension ≥ BLOCKWISE_MIN_DIM) spectra,
    # full-rank and rank-deficient conditionals, tied classical spectra included
    shape_in, shape_out = AlgebraShape(dims_in), AlgebraShape(dims_out)
    d = shape_in.total_dim
    conds = [choi_conditional(random_channel(shape_in, shape_out, d, rng)),
             choi_conditional(identity_channel(shape_in)) if shape_in == shape_out else None,
             conditional_from_joint(random_joint_state(shape_in, shape_out, rng,
                                                       rank_a=max(1, d // 2)), "a")]
    for cond in filter(None, conds):
        es = herm_eig(cond.matrix, layout(cond.shape_in, cond.shape_out))
        assert es.kept.tolist() == [True] * es.rank + [False] * (len(es.kept) - es.rank)
        assert channel_from_conditional(cond).kraus.tobytes() == oracle_gathered_kraus(cond).tobytes()


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
