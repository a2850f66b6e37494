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
    validate_channel,
)
from condchan.channels import apply_matrix
from condchan.scenarios import random_channel, random_state, random_unitary
from conftest import BIT, MIXED, QUBIT, QUTRIT, max_ent_conditional, maximally_mixed

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def depolarizing_qubit():
    kraus = tuple(
        np.outer(np.eye(2)[m], np.eye(2)[n]) / np.sqrt(2) for m in range(2) for n in range(2)
    )
    return Channel(QUBIT, QUBIT, kraus)


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
        cond = ConditionalState(QUBIT, QUBIT, scaled, check=False)
        # the recovered channel's constructor judges the 0.9·I support
        with pytest.raises(InvariantViolation) as info:
            channel_from_conditional(cond)
        assert info.value.invariant == "support_projector"
        assert info.value.deviation == pytest.approx(9e-2)

    def test_rejects_conditional_without_spectral_weight(self):
        cond = ConditionalState(QUBIT, QUBIT, np.zeros((4, 4)), check=False)
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
        report = validate_channel(identity_channel(QUBIT))
        assert report.tp_deviation < 1e-12
        assert abs(report.choi_min_eigenvalue) < 1e-12
        assert report.ok and not report.input_support_flagged

    def test_transpose_map_choi_is_not_cp(self):
        # Choi of the entry-wise transpose: the factor-swap operator, eigenvalue -1
        swap_op = np.zeros((4, 4), dtype=complex)
        for j in range(2):
            for k in range(2):
                swap_op[j * 2 + k, k * 2 + j] = 1.0
        w = herm_eig(swap_op).eigenvalues
        assert w[-1] < -1e-9  # flagged not CP by the minimum-eigenvalue test

    def test_random_channels_pass(self, rng):
        for shapes in [(QUBIT, QUBIT), (MIXED, QUTRIT), (BIT, BIT)]:
            report = validate_channel(random_channel(*shapes, 2, rng))
            assert report.ok

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
