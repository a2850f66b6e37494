import numpy as np
import pytest

from condchan import (
    AlgebraShape,
    Channel,
    ConditionalState,
    InvariantViolation,
    ShapeMismatch,
    State,
    apply,
    apply_via_conditional,
    canonical_reduction,
    channel_from_conditional,
    choi_conditional,
    herm_eig,
    identity_channel,
    is_isometry,
    joint_from_conditional,
    kron,
    partial_trace,
)
import condchan.conditional as conditional_module
from condchan.channels import apply_matrix
from condchan.conditional import _restricted_support, conditional_from_joint
from condchan.matcore import max_abs
from condchan.scenarios import random_channel, random_joint_state, random_state, random_unitary
from condchan.states import _trusted
from condchan.tolerances import IDENTITY_TOL, INPUT_TOL
from conftest import BIT, MIXED, QUBIT, QUTRIT, max_ent_conditional, maximally_mixed, support_deviation
from test_contractions import oracle_choi_matrix

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def depolarizing_qubit():
    kraus = tuple(
        np.outer(np.eye(2)[m], np.eye(2)[n]) / np.sqrt(2) for m in range(2) for n in range(2)
    )
    return Channel(QUBIT, QUBIT, kraus)


def choi_validity(c):
    """What makes a channel valid, measured on its Choi matrix as formed from
    the Kraus tensor and solved by numpy: the deviation of Tr_B from the
    identity, the largest entry off the pair blocks, the least eigenvalue, and
    the rounding floor -D·ε·‖C‖ that the least eigenvalue must stay above."""
    choi = oracle_choi_matrix(np.asarray(c.kraus), c.shape_in)
    din, dout = c.shape_in.total_dim, c.shape_out.total_dim
    tp = np.abs(partial_trace(choi, din, dout, "left") - np.eye(din)).max()
    floor = -din * dout * np.finfo(float).eps * np.linalg.norm(choi, 2)
    return tp, support_deviation(choi, c.shape_in, c.shape_out), np.linalg.eigvalsh(choi)[0], floor


def classical_channel(rows):
    """Channel on bits from a row-stochastic matrix: row j sends bit j."""
    gamma = np.asarray(rows, dtype=float)
    kraus = tuple(
        np.sqrt(gamma[j, b]) * np.outer(np.eye(2)[b], np.eye(2)[j])
        for j in range(2)
        for b in range(2)
        if gamma[j, b] > 0
    )
    return Channel(BIT, BIT, kraus)


class TestApply:
    def test_identity(self, rng):
        s = random_state(MIXED, rng)
        np.testing.assert_allclose(apply(identity_channel(MIXED), s).matrix, s.matrix, atol=1e-12)

    def test_depolarizing_is_constant(self, rng):
        c = depolarizing_qubit()
        for _ in range(3):
            s = random_state(QUBIT, rng)
            np.testing.assert_allclose(apply(c, s).matrix, np.eye(2) / 2, atol=1e-12)

    def test_output_trace_one(self, rng):
        c = random_channel(MIXED, QUTRIT, 2, rng)
        s = random_state(MIXED, rng)
        assert abs(np.trace(apply(c, s).matrix).real - 1.0) < 1e-10

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            apply(identity_channel(QUBIT), random_state(QUTRIT, rng))


class TestMaxEntConditional:
    def test_qubit_rank_one_trace_two(self):
        cond = max_ent_conditional(QUBIT)
        expected = np.zeros((4, 4), dtype=complex)
        for a in (0, 3):
            for b in (0, 3):
                expected[a, b] = 1.0
        np.testing.assert_allclose(cond.matrix, expected)
        w = herm_eig(cond.matrix).eigenvalues
        assert abs(w[0] - 2.0) < 1e-12 and np.all(np.abs(w[1:]) < 1e-12)

    def test_classical_bit_diag_pattern(self):
        cond = max_ent_conditional(BIT)
        np.testing.assert_allclose(cond.matrix, np.diag([1.0, 0, 0, 1.0]).astype(complex))
        assert abs(np.trace(cond.matrix).real - 2.0) < 1e-12

    @pytest.mark.parametrize("shape", [QUBIT, BIT, MIXED, AlgebraShape((3, 2))])
    def test_conditioning_marginal_is_identity(self, shape):
        cond = max_ent_conditional(shape)
        d = shape.total_dim
        np.testing.assert_allclose(
            partial_trace(cond.matrix, d, d, keep="left"), np.eye(d), atol=1e-12
        )


class TestChoiConditional:
    def test_identity_channel_gives_max_ent(self):
        np.testing.assert_allclose(
            choi_conditional(identity_channel(QUBIT)).matrix,
            max_ent_conditional(QUBIT).matrix,
            atol=1e-12,
        )

    def test_unitary_channel_is_pure(self, rng):
        u = random_unitary(3, rng)
        cond = choi_conditional(Channel(QUTRIT, QUTRIT, (u,)))
        w = herm_eig(cond.matrix).eigenvalues
        assert abs(w[0] - 3.0) < 1e-9 and np.all(np.abs(w[1:]) < 1e-9)

    def test_depolarizing_hand_value(self):
        # acting on the entangled conditional, a constant map leaves I (x) I/2
        cond = choi_conditional(depolarizing_qubit())
        np.testing.assert_allclose(cond.matrix, kron(np.eye(2), np.eye(2) / 2), atol=1e-12)
        assert abs(np.trace(cond.matrix).real - 2.0) < 1e-12


class TestChannelFromConditional:
    def test_max_ent_gives_identity_action(self, rng):
        c = channel_from_conditional(max_ent_conditional(QUBIT))
        for _ in range(3):
            s = random_state(QUBIT, rng)
            np.testing.assert_allclose(apply(c, s).matrix, s.matrix, atol=1e-9)

    def test_classical_rows_hand_case(self):
        cond = ConditionalState(BIT, BIT, np.diag([0.9, 0.1, 0.2, 0.8]).astype(complex))
        c = channel_from_conditional(cond)
        out = apply(c, State(BIT, np.diag([1.0, 0.0]).astype(complex)))
        np.testing.assert_allclose(out.matrix, np.diag([0.9, 0.1]), atol=1e-9)

    @pytest.mark.parametrize(
        "shape_in,shape_out",
        [(QUBIT, QUBIT), (QUBIT, QUTRIT), (MIXED, BIT), (BIT, QUBIT), (QUTRIT, BIT)],
    )
    def test_round_trip_action(self, rng, shape_in, shape_out):
        c = random_channel(shape_in, shape_out, 2, rng)
        c2 = channel_from_conditional(choi_conditional(c))
        for _ in range(5):
            s = random_state(shape_in, rng)
            np.testing.assert_allclose(apply(c2, s).matrix, apply(c, s).matrix, atol=1e-9)

    def test_round_trip_conditional_side(self, rng):
        # other direction of the correspondence: conditional -> channel -> conditional
        for shape_in, shape_out in [(QUBIT, QUBIT), (MIXED, QUBIT), (BIT, QUTRIT)]:
            cond = choi_conditional(random_channel(shape_in, shape_out, 2, rng))
            again = choi_conditional(channel_from_conditional(cond))
            np.testing.assert_allclose(again.matrix, cond.matrix, atol=1e-9)

    def test_trace_formula_route_agrees_with_kraus_route(self, rng):
        # the recovery is implemented twice on purpose; both must agree
        for shape_in, shape_out in [(QUBIT, QUTRIT), (MIXED, BIT)]:
            c = random_channel(shape_in, shape_out, 2, rng)
            cond = choi_conditional(c)
            c2 = channel_from_conditional(cond)
            for _ in range(5):
                s = random_state(shape_in, rng)
                via_trace = apply_via_conditional(cond, s)
                via_kraus = apply_matrix(c2, s.matrix)
                np.testing.assert_allclose(via_trace, via_kraus, atol=1e-9)
                np.testing.assert_allclose(via_trace, apply_matrix(c, s.matrix), atol=1e-9)

    def test_rejects_non_projector_support(self):
        scaled = max_ent_conditional(QUBIT).matrix * 0.9
        cond = _trusted(ConditionalState, QUBIT, QUBIT, scaled, floor=np.inf)
        # the recovered channel's constructor judges the 0.9·I support
        with pytest.raises(InvariantViolation) as info:
            channel_from_conditional(cond)
        assert info.value.invariant == "support_projector"
        assert info.value.deviation == pytest.approx(9e-2)

    def test_rejects_conditional_without_spectral_weight(self):
        cond = _trusted(ConditionalState, QUBIT, QUBIT, np.zeros((4, 4), dtype=complex), floor=np.inf)
        with pytest.raises(InvariantViolation) as info:
            channel_from_conditional(cond)
        assert (info.value.invariant, info.value.deviation) == ("spectral_weight", 0.0)
        assert str(info.value) == "conditional has no spectral weight above the cutoff"

    def test_support_deficient_conditional_is_flagged(self, rng):
        from condchan import conditional_from_joint
        from condchan.scenarios import random_joint_state

        j = random_joint_state(QUBIT, QUBIT, rng, rank_a=1)
        c = channel_from_conditional(conditional_from_joint(j, "a"))
        assert c.input_support is not None
        support = c.input_support
        np.testing.assert_allclose(support @ support, support, atol=1e-9)
        total = sum(k.conj().T @ k for k in c.kraus)
        np.testing.assert_allclose(total, support, atol=1e-9)


class TestEdgeShapes:
    def test_classical_not_channel(self, rng):
        # Kraus operator outside the algebra is fine as long as the action stays inside
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        c = Channel(BIT, BIT, (flip,))
        out = apply(c, State(BIT, np.diag([0.3, 0.7]).astype(complex)))
        np.testing.assert_allclose(out.matrix, np.diag([0.7, 0.3]), atol=1e-12)
        cond = choi_conditional(c)
        np.testing.assert_allclose(
            np.diag(cond.matrix).real, [0.0, 1.0, 1.0, 0.0], atol=1e-12
        )
        c2 = channel_from_conditional(cond)
        s = random_state(BIT, rng)
        np.testing.assert_allclose(apply(c2, s).matrix, apply(c, s).matrix, atol=1e-9)

    def test_one_dimensional_algebra(self):
        one = AlgebraShape((1,))
        cond = max_ent_conditional(one)
        np.testing.assert_allclose(cond.matrix, [[1.0]])
        c = identity_channel(one)
        assert is_isometry(c)
        np.testing.assert_allclose(
            apply(c, State(one, np.array([[1.0]], dtype=complex))).matrix, [[1.0]]
        )

    def test_single_environment_dimension_is_isometry(self, rng):
        c = random_channel(QUBIT, QUTRIT, 1, rng)
        assert is_isometry(c)
        c2 = channel_from_conditional(choi_conditional(c))
        assert len(c2.kraus) == 1


class TestClassicalReduction:
    def test_choi_diag_equals_stochastic_matrix(self, rng):
        gamma = rng.random((2, 2))
        gamma = gamma / gamma.sum(axis=1, keepdims=True)
        c = classical_channel(gamma)
        cond = choi_conditional(c)
        for j in range(2):
            for b in range(2):
                assert abs(cond.matrix[j * 2 + b, j * 2 + b].real - gamma[j, b]) < 1e-12
        # and back: recovered channel moves basis states by the same rows
        c2 = channel_from_conditional(cond)
        for j in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[j, j] = 1.0
            out = apply_matrix(c2, basis)
            np.testing.assert_allclose(np.diag(out).real, gamma[j], atol=1e-12)


class TestValidateChannel:
    def test_identity_report(self):
        c = identity_channel(QUBIT)
        tp, leak, low, _ = choi_validity(c)
        assert tp < 1e-12 and leak == 0.0
        assert abs(low) < 1e-12
        assert c.input_support is None and is_isometry(c)

    def test_random_channels_pass(self, rng):
        for shapes in [(QUBIT, QUBIT), (MIXED, QUTRIT), (BIT, BIT)]:
            tp, leak, low, floor = choi_validity(random_channel(*shapes, 2, rng))
            assert tp <= IDENTITY_TOL and leak <= IDENTITY_TOL
            assert low >= floor

    def test_transpose_map_choi_is_not_cp(self):
        # Choi of the entry-wise transpose: the factor-swap operator, eigenvalue -1
        swap_op = np.zeros((4, 4), dtype=complex)
        for j in range(2):
            for k in range(2):
                swap_op[j * 2 + k, k * 2 + j] = 1.0
        w = herm_eig(swap_op).eigenvalues
        assert w[-1] < -1e-9  # flagged not CP by the minimum-eigenvalue test

    def test_constructor_rejects_non_tp(self):
        with pytest.raises(InvariantViolation) as info:
            Channel(QUBIT, QUBIT, (np.eye(2) / np.sqrt(2),))
        assert info.value.invariant == "trace_preserving"
        assert info.value.deviation == pytest.approx(0.5)
        assert str(info.value) == "sum of K†K deviates from the required resolution by 5.000e-01"

    def test_constructor_rejects_off_algebra_output(self):
        with pytest.raises(InvariantViolation):
            Channel(QUBIT, BIT, (HADAMARD,))

    def test_constructor_rejects_non_projector_support(self):
        # K†K matches the support exactly, but 0.5·I is not a projector
        with pytest.raises(InvariantViolation) as info:
            Channel(QUBIT, QUBIT, (np.eye(2) / np.sqrt(2),), input_support=0.5 * np.eye(2))
        assert info.value.invariant == "support_projector"
        assert info.value.deviation == pytest.approx(0.25)

    def test_constructor_rejects_non_hermitian_support(self):
        support = np.array([[1.0, 1.0], [0.0, 0.0]])  # idempotent, not Hermitian
        kraus = (np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2),)
        with pytest.raises(InvariantViolation) as info:
            Channel(QUBIT, QUBIT, kraus, input_support=support)
        assert info.value.invariant == "support_projector"

    def test_constructor_rejects_misshaped_support(self):
        with pytest.raises(ShapeMismatch):
            Channel(QUBIT, QUBIT, (np.eye(2),), input_support=np.eye(3))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_constructor_rejects_non_finite_kraus(self, entry):
        k = np.eye(2, dtype=complex)
        k[0, 1] = entry
        with pytest.raises(InvariantViolation) as info:
            Channel(QUBIT, QUBIT, (k, np.zeros((2, 2))))
        assert info.value.invariant == "finite"

    def test_constructor_rejects_overflowing_kraus(self):
        # finite entries whose K†K overflows make the TP deviation inf or NaN
        k = np.eye(2, dtype=complex)
        k[0, 0] = 1e308 + 1e308j
        with pytest.raises(InvariantViolation) as info:
            Channel(QUBIT, QUBIT, (k,))
        assert info.value.invariant == "trace_preserving"
        assert not info.value.deviation <= 1e-9  # inf or NaN

    def test_constructor_rejects_ragged_or_missing_kraus(self):
        with pytest.raises(ShapeMismatch):
            Channel(QUBIT, QUBIT, (np.eye(2), np.eye(3)))
        with pytest.raises(ShapeMismatch):
            Channel(QUBIT, QUBIT, ())
        with pytest.raises(ShapeMismatch):
            Channel(QUBIT, QUBIT, np.eye(2))
        with pytest.raises(ShapeMismatch):
            Channel(QUBIT, QUBIT, None)

    def test_constructor_accepts_any_iterable_of_kraus(self):
        c = Channel(QUBIT, QUBIT, (k for k in [np.eye(2)]))
        assert c.kraus.shape == (1, 2, 2)

    def test_constructor_copies_the_kraus_operators(self):
        k = np.eye(2, dtype=complex)
        c = Channel(QUBIT, QUBIT, (k,))
        k[0, 0] = 5.0
        np.testing.assert_array_equal(c.kraus[0], np.eye(2))

    def test_constructor_accepts_projector_support(self):
        support = np.diag([1.0, 0.0]).astype(complex)
        c = Channel(QUBIT, QUBIT, (support,), input_support=support)
        np.testing.assert_array_equal(c.input_support, support)


class TestIsIsometry:
    def test_hadamard(self):
        assert is_isometry(Channel(QUBIT, QUBIT, (HADAMARD,)))

    def test_depolarizing_is_not(self):
        assert not is_isometry(depolarizing_qubit())

    def test_random_isometry_to_larger_space(self, rng):
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        v, _ = np.linalg.qr(g)
        c = Channel(QUBIT, AlgebraShape((4,)), (v,))
        assert is_isometry(c)
        # spectrum oracle: one eigenvalue carries the whole trace
        w = herm_eig(choi_conditional(c).matrix).eigenvalues
        assert np.count_nonzero(w > 1e-9) == 1

    def test_purity_iff_single_canonical_kraus(self, rng):
        unitary = Channel(QUBIT, QUBIT, (random_unitary(2, rng),))
        assert len(canonical_reduction(unitary).kraus) == 1
        noisy = random_channel(QUBIT, QUBIT, 2, rng)
        assert len(canonical_reduction(noisy).kraus) >= 2
        assert not is_isometry(noisy)


class TestJointFromChoi:
    def test_any_full_rank_marginal_yields_valid_joint(self, rng):
        c = random_channel(QUBIT, QUTRIT, 2, rng)
        cond = choi_conditional(c)
        for _ in range(5):
            marg = random_state(QUBIT, rng)
            j = joint_from_conditional(marg, cond)  # constructor validates
            assert abs(np.trace(j.matrix).real - 1.0) < 1e-10

    def test_maximally_mixed_marginal_gives_normalized_resource(self):
        cond = max_ent_conditional(QUBIT)
        j = joint_from_conditional(maximally_mixed(QUBIT), cond)
        np.testing.assert_allclose(j.matrix, cond.matrix / 2, atol=1e-12)


class TestApplyMatrix:
    """The action on raw matrices and stacks: one product with the superoperator."""

    def test_matrix_stack_and_nested_lists(self, rng):
        c = random_channel(QUBIT, QUTRIT, 2, rng)
        x = random_state(QUBIT, rng).matrix
        want = sum(k @ x @ k.conj().T for k in c.kraus)
        np.testing.assert_allclose(apply_matrix(c, x), want, atol=1e-12)
        stack = np.stack([random_state(QUBIT, rng).matrix for _ in range(3)])
        out = apply_matrix(c, stack)
        assert out.shape == (3, 3, 3)
        for m, o in zip(stack, out):
            np.testing.assert_allclose(o, apply_matrix(c, m), atol=1e-15)
        # nested lists of Python numbers, a matrix and a stack, act as their arrays do
        for nested in ([[1, 0], [0, 0]], [[[0.5, 0.5j], [-0.5j, 0.5]], [[0, 0], [0, 1]]]):
            got = apply_matrix(c, nested)
            assert np.array_equal(got, apply_matrix(c, np.array(nested, dtype=complex)))

    @pytest.mark.parametrize("shape,message", [
        ((3, 3), "cannot reshape array of size 9 into shape (4,)"),
        ((2, 3, 3), "cannot reshape array of size 18 into shape (2,4)"),
        ((5,), "cannot reshape array of size 5 into shape (4,)"),
    ], ids=str)
    def test_wrong_size_raises_the_reshape_error(self, rng, shape, message):
        c = random_channel(QUBIT, QUTRIT, 2, rng)
        with pytest.raises(ValueError) as info:
            apply_matrix(c, np.zeros(shape))
        assert str(info.value) == message


def fresh_support_verdict(cond):
    """The conditioning support measured now, or None within IDENTITY_TOL of I."""
    p = cond.conditioning_support()
    return None if max_abs(p - np.eye(len(p))) <= IDENTITY_TOL else p


class TestSupportVerdict:
    """A conditional settles its support verdict once, and the verdict it keeps is
    the one a fresh measurement gives."""

    def assert_kept(self, cond):
        kept, fresh = _restricted_support(cond), fresh_support_verdict(cond)
        assert (kept is None) == (fresh is None)
        assert kept is None or np.array_equal(kept, fresh)
        assert _restricted_support(cond) is kept

    @pytest.mark.parametrize("rank_a", [None, 1])
    def test_judged_and_conditioning_trusted(self, rng, rank_a):
        for shape_in, shape_out in [(QUBIT, QUTRIT), (MIXED, BIT), (QUTRIT, MIXED)]:
            j = random_joint_state(shape_in, shape_out, rng, rank_a=rank_a)
            trusted = conditional_from_joint(j, "a")
            judged = ConditionalState(shape_in, shape_out, np.array(trusted.matrix))
            assert trusted.floor < np.inf and judged.floor == np.inf
            for cond in (trusted, judged):
                # the projector test keeps the support it measured, judged on first use
                assert "_support" in vars(cond) and "_restricted" not in vars(cond)
                assert (_restricted_support(cond) is None) == (rank_a is None)
                self.assert_kept(cond)

    def test_certified_choi_is_unrestricted_by_its_certificate(self, rng):
        for shape_in, shape_out in [(QUBIT, QUTRIT), (MIXED, BIT), (BIT, QUBIT)]:
            c = random_channel(shape_in, shape_out, 2, rng)
            assert c._certifies
            cond = choi_conditional(c)
            assert vars(cond)["_restricted"] is None
            self.assert_kept(cond)
            p = cond.conditioning_support()
            assert max_abs(p - np.eye(len(p))) <= INPUT_TOL / (2 * shape_in.total_dim)

    def test_hand_trusted_is_measured_on_first_use(self):
        scaled = max_ent_conditional(QUBIT).matrix * 0.9
        for matrix in (scaled, np.zeros((4, 4), dtype=complex)):
            cond = _trusted(ConditionalState, QUBIT, QUBIT, matrix, floor=np.inf)
            assert "_support" not in vars(cond) and "_restricted" not in vars(cond)
            self.assert_kept(cond)
            assert vars(cond)["_restricted"] is not None

    def test_round_trip_takes_one_partial_trace_at_most(self, rng, monkeypatch):
        # a certified Choi form takes none, a judged conditional its projector test's
        traces = []
        original = conditional_module.partial_trace
        monkeypatch.setattr(conditional_module, "partial_trace",
                            lambda *args, **kw: traces.append(args[1:3]) or original(*args, **kw))
        for dims_in in [(2,), (3,), (2, 1), (1, 1)]:
            for dims_out in [(2,), (3,), (1, 1)]:
                c = random_channel(AlgebraShape(dims_in), AlgebraShape(dims_out), 2, rng)
                cond = choi_conditional(c)
                channel_from_conditional(cond)
                assert traces == []
                judged = ConditionalState(cond.shape_in, cond.shape_out, np.array(cond.matrix))
                channel_from_conditional(judged)
                assert len(traces) == 1
                del traces[:]
