import warnings

import numpy as np
import pytest

from condchan import (
    AlgebraShape,
    ConditionalState,
    InvariantViolation,
    JointState,
    ShapeMismatch,
    State,
    SupportMismatch,
    bayes_invert,
    conditional_from_joint,
    joint_from_conditional,
    herm_eig,
    kron,
    reduce,
)
from condchan.algebra import pair_mask
from condchan.conditional import _pinched_hermitian
from condchan.matcore import hermitize
from condchan.scenarios import random_joint_state, random_state, random_unitary
from condchan.tolerances import BLOCK_TOL
from conftest import BIT, MIXED, QUBIT, QUTRIT, maximally_mixed

# hand-computed from the diagonal joint (0.1, 0.2, 0.3, 0.4) on a pair of bits:
# marginal (0.3, 0.7), rows renormalized
CLASSICAL_JOINT = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
CLASSICAL_COND_DIAG = np.array([1 / 3, 2 / 3, 3 / 7, 4 / 7])


def max_ent_joint(d):
    phi = np.zeros(d * d, dtype=complex)
    for j in range(d):
        phi[j * d + j] = 1 / np.sqrt(d)
    shape = QUBIT if d == 2 else QUTRIT
    return JointState(shape, shape, np.outer(phi, phi.conj()))


class TestConditionalFromJoint:
    def test_product_state_factorizes(self, rng):
        a = random_state(QUBIT, rng)
        b = random_state(QUTRIT, rng)
        j = JointState(QUBIT, QUTRIT, kron(a.matrix, b.matrix))
        cond = conditional_from_joint(j, "a")
        np.testing.assert_allclose(cond.matrix, kron(np.eye(2), b.matrix), atol=1e-10)

    def test_product_state_rank_deficient_marginal(self, rng):
        # the identity factor degrades to the support projector of the marginal
        a = State(QUBIT, np.diag([1.0, 0.0]).astype(complex))
        b = random_state(QUTRIT, rng)
        j = JointState(QUBIT, QUTRIT, kron(a.matrix, b.matrix))
        cond = conditional_from_joint(j, "a")
        np.testing.assert_allclose(
            cond.matrix, kron(herm_eig(a.matrix).support(), b.matrix), atol=1e-10
        )
        assert cond.rank == 1

    def test_maximally_entangled_recovers_unnormalized_projector(self):
        j = max_ent_joint(2)
        cond = conditional_from_joint(j, "a")
        expected = np.zeros((4, 4), dtype=complex)
        for a in (0, 3):
            for b in (0, 3):
                expected[a, b] = 1.0
        np.testing.assert_allclose(cond.matrix, expected, atol=1e-10)
        assert cond.rank == 2
        assert abs(np.trace(cond.matrix).real - 2.0) < 1e-10

    def test_classical_row_normalization(self):
        j = JointState(BIT, BIT, CLASSICAL_JOINT)
        cond = conditional_from_joint(j, "a")
        np.testing.assert_allclose(np.diag(cond.matrix).real, CLASSICAL_COND_DIAG, atol=1e-12)

    def test_condition_on_b_reindexes(self):
        j = JointState(BIT, BIT, CLASSICAL_JOINT)
        cond = conditional_from_joint(j, "b")
        # marginal on B is (0.4, 0.6); matrix is stored with B (conditioning) slow
        expected = np.array([0.1 / 0.4, 0.3 / 0.4, 0.2 / 0.6, 0.4 / 0.6])
        np.testing.assert_allclose(np.diag(cond.matrix).real, expected, atol=1e-12)
        assert cond.shape_in == BIT and cond.shape_out == BIT

    def test_support_is_projector_of_marginal(self, rng):
        for shapes, rank in [((QUBIT, QUBIT), None), ((QUTRIT, BIT), 2), ((MIXED, QUBIT), 1)]:
            j = random_joint_state(*shapes, rng, rank_a=rank)
            cond = conditional_from_joint(j, "a")
            np.testing.assert_allclose(
                cond.conditioning_support(),
                herm_eig(reduce(j, "a").matrix).support(),
                atol=1e-9,
            )

    def test_trace_is_marginal_rank(self, rng):
        for rank in (1, 2, 3):
            j = random_joint_state(QUTRIT, QUBIT, rng, rank_a=rank)
            cond = conditional_from_joint(j, "a")
            assert cond.rank == rank
            assert abs(np.trace(cond.matrix).real - rank) < 1e-6

    def test_classical_row_sums_on_support(self, rng):
        j = random_joint_state(BIT, BIT, rng)
        cond = conditional_from_joint(j, "a")
        diag = np.diag(cond.matrix).real
        assert abs(diag[0] + diag[1] - 1.0) < 1e-9
        assert abs(diag[2] + diag[3] - 1.0) < 1e-9


class TestJointFromConditional:
    def test_maximally_mixed_marginal_gives_maximally_entangled(self):
        cond = conditional_from_joint(max_ent_joint(2), "a")
        j = joint_from_conditional(maximally_mixed(QUBIT), cond)
        np.testing.assert_allclose(j.matrix, max_ent_joint(2).matrix, atol=1e-10)

    def test_product_reconstruction(self, rng):
        b = random_state(QUTRIT, rng)
        cond = ConditionalState(QUBIT, QUTRIT, kron(np.eye(2), b.matrix))
        marg = random_state(QUBIT, rng)
        j = joint_from_conditional(marg, cond)
        np.testing.assert_allclose(j.matrix, kron(marg.matrix, b.matrix), atol=1e-10)

    def test_round_trip_full_rank(self, rng):
        for shapes in [(QUBIT, QUBIT), (MIXED, BIT), (BIT, QUTRIT)]:
            j = random_joint_state(*shapes, rng)
            back = joint_from_conditional(reduce(j, "a"), conditional_from_joint(j, "a"))
            np.testing.assert_allclose(back.matrix, j.matrix, atol=1e-9)

    def test_round_trip_rank_deficient(self, rng):
        j = random_joint_state(QUBIT, QUBIT, rng, rank_a=1)
        back = joint_from_conditional(reduce(j, "a"), conditional_from_joint(j, "a"))
        np.testing.assert_allclose(back.matrix, j.matrix, atol=1e-9)

    def test_reverse_round_trip(self, rng):
        j = random_joint_state(QUBIT, QUBIT, rng)
        cond = conditional_from_joint(j, "a")
        marg = reduce(j, "a")
        again = conditional_from_joint(joint_from_conditional(marg, cond), "a")
        np.testing.assert_allclose(again.matrix, cond.matrix, atol=1e-9)

    def test_support_mismatch_raises(self, rng):
        # conditional supported on a rank-1 conditioning subspace, full-rank marginal
        j = random_joint_state(QUBIT, QUBIT, rng, rank_a=1)
        cond = conditional_from_joint(j, "a")
        with pytest.raises(SupportMismatch) as info:
            joint_from_conditional(maximally_mixed(QUBIT), cond)
        # the deviation is the trace the rebuilt joint lost, as in the message
        assert info.value.deviation > 1e-10
        assert f"trace deviation {info.value.deviation:.3e};" in str(info.value)

    def test_shape_mismatch(self, rng):
        cond = conditional_from_joint(random_joint_state(QUBIT, QUBIT, rng), "a")
        with pytest.raises(ShapeMismatch):
            joint_from_conditional(maximally_mixed(QUTRIT), cond)


class TestBayes:
    def test_classical_hand_case(self):
        j = JointState(BIT, BIT, CLASSICAL_JOINT)
        cond_ab = conditional_from_joint(j, "b")
        inverted = bayes_invert(cond_ab, reduce(j, "a"), reduce(j, "b"))
        np.testing.assert_allclose(np.diag(inverted.matrix).real, CLASSICAL_COND_DIAG, atol=1e-12)

    def test_product_state_fixed_point(self, rng):
        a = random_state(QUBIT, rng)
        b = random_state(QUBIT, rng)
        j = JointState(QUBIT, QUBIT, kron(a.matrix, b.matrix))
        inverted = bayes_invert(conditional_from_joint(j, "b"), a, b)
        np.testing.assert_allclose(inverted.matrix, kron(np.eye(2), b.matrix), atol=1e-9)

    def test_matches_direct_conditional(self, rng):
        for _ in range(10):
            j = random_joint_state(QUBIT, QUBIT, rng)
            inverted = bayes_invert(conditional_from_joint(j, "b"), reduce(j, "a"), reduce(j, "b"))
            np.testing.assert_allclose(
                inverted.matrix, conditional_from_joint(j, "a").matrix, atol=1e-9
            )

    def test_involution_with_mirror(self, rng):
        j = random_joint_state(QUBIT, QUBIT, rng)
        marg_a, marg_b = reduce(j, "a"), reduce(j, "b")
        cond_ba = conditional_from_joint(j, "a")
        there = bayes_invert(cond_ba, marg_b, marg_a)  # gives A|B
        back = bayes_invert(there, marg_a, marg_b)  # and back to B|A
        np.testing.assert_allclose(back.matrix, cond_ba.matrix, atol=1e-9)

    def test_rank_deficient_marg_b_rejected(self, rng):
        j = random_joint_state(QUBIT, QUBIT, rng)
        cond_ab = conditional_from_joint(j, "b")
        deficient = State(QUBIT, np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(SupportMismatch) as info:
            bayes_invert(cond_ab, reduce(j, "a"), deficient)
        assert info.value.deviation == 0.0
        # the deviation is the largest eigenvalue at or below the support cutoff
        j = random_joint_state(QUBIT, QUTRIT, rng)
        low = State(QUTRIT, np.diag([1.0 - 3e-12, 2e-12, 1e-12]).astype(complex))
        with pytest.raises(SupportMismatch) as info:
            bayes_invert(conditional_from_joint(j, "b"), reduce(j, "a"), low)
        assert info.value.deviation == 2e-12


class TestValidation:
    def test_rejects_non_projector_partial_trace(self):
        # scaled maximally entangled operator: partial trace 0.9 I is no projector
        m = conditional_from_joint(max_ent_joint(2), "a").matrix * 0.9
        with pytest.raises(InvariantViolation) as err:
            ConditionalState(QUBIT, QUBIT, m)
        assert err.value.invariant == "support_projector"

    def test_rejects_negative(self):
        m = np.diag([1.0, -0.2, 1.0, 0.2]).astype(complex)
        with pytest.raises(InvariantViolation) as err:
            ConditionalState(BIT, BIT, m)
        assert err.value.invariant == "positive"

    @pytest.mark.parametrize("diag", [[1e308, -1e308], [1e308, 1e308]], ids=["indefinite", "huge"])
    def test_rejects_spectrum_lost_to_overflow(self, diag):
        # the Hermitian part overflows to ±inf (once the indefinite matrix was
        # accepted and the huge one crashed the rank test); that is reported as
        # an overflow, with no numpy warning on the way
        one = AlgebraShape((1,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation) as err:
                ConditionalState(one, QUBIT, np.diag(diag).astype(complex))
        assert err.value.invariant == "overflow"
        assert err.value.deviation == np.inf


class TestDerivedOperatorsArePinched:
    """A valid input may leave up to BLOCK_TOL on each entry off its blocks.
    The marginals, conditionals and inversions derived from it are pinched
    onto their algebras: each equals the result for the leak-free input, and
    none is rejected for a leak the input was allowed."""

    QUART = AlgebraShape((4,))

    def leaking_joint(self, rho_b):
        # diag(1/2, 1/2) ⊗ ρ_B on (1, 1) ⊗ (4,), with 0.4·BLOCK_TOL at the
        # four ((0, k), (1, k)) entries
        exact = kron(np.diag([0.5, 0.5]), rho_b)
        m = exact.copy()
        for k in range(4):
            m[k, 4 + k] = m[4 + k, k] = 0.4 * BLOCK_TOL
        return JointState(BIT, self.QUART, m), JointState(BIT, self.QUART, exact)

    def test_marginal_drops_the_summed_leak(self, rng):
        # the partial trace sums the four leaks to 1.6·BLOCK_TOL off the blocks
        j, exact = self.leaking_joint(random_state(self.QUART, rng).matrix)
        assert reduce(j, "a").matrix.tobytes() == reduce(exact, "a").matrix.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_conditional_drops_the_amplified_leak(self, seed):
        # conditioning on B scales the leak by up to 1/λ_min(ρ_B)
        j, exact = self.leaking_joint(random_state(self.QUART, np.random.default_rng(seed)).matrix)
        for side in "ab":
            np.testing.assert_allclose(
                conditional_from_joint(j, side).matrix,
                conditional_from_joint(exact, side).matrix, rtol=0, atol=1e-12,
            )

    def test_bayes_drops_the_amplified_leak(self):
        # the inverse root of the marginal spectrum (1e-3, 1 - 1e-3) scales a
        # leak of the conditional by about 30
        rho_a = np.diag([1e-3, 1 - 1e-3]).astype(complex)
        exact = kron(np.eye(4), rho_a)
        m = exact.copy()
        for k in range(4):
            m[2 * k, 2 * k + 1] = m[2 * k + 1, 2 * k] = 0.4 * BLOCK_TOL
        marg_a, marg_b = State(BIT, rho_a), maximally_mixed(self.QUART)
        inverted = bayes_invert(ConditionalState(self.QUART, BIT, m), marg_a, marg_b)
        expected = bayes_invert(ConditionalState(self.QUART, BIT, exact), marg_a, marg_b)
        np.testing.assert_allclose(inverted.matrix, expected.matrix, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "shapes", [(QUBIT, QUBIT), (MIXED, BIT), (BIT, QUTRIT)], ids=["qubit", "mixed-bit", "bit-qutrit"]
)
def test_pinched_hermitian_part_is_hermitize_then_mask(rng, shapes):
    d = shapes[0].total_dim * shapes[1].total_dim
    s = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    out = _pinched_hermitian(s, *shapes)
    assert out.tobytes() == (hermitize(s) * pair_mask(*shapes)).tobytes()
    assert np.array_equal(out, out.conj().T)


class TestNearCutoffVerdicts:
    """Product joints ρ_A ⊗ ρ_B on qutrit ⊗ qubit with spec(ρ_A) ∝ (1, 0.5, ε):
    the derived conditionals, joints and inversions are exactly Hermitian, so
    none is rejected as 'hermitian'.  Near the rank cutoff the conditioning
    support still misses the projector test, and the pinned counts say where
    (the bound that should settle those is not derived yet)."""

    EPSILONS = (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11)
    SEEDS = range(10, 16)
    # (condition accepted, condition support_projector, bayes accepted, bayes support_projector)
    COUNTS = {1e-6: (6, 0, 6, 0), 1e-7: (4, 2, 4, 2), 1e-8: (2, 4, 0, 6),
              1e-9: (0, 6, 0, 6), 1e-10: (1, 5, 1, 5), 1e-11: (6, 0, 6, 0)}

    @staticmethod
    def joint(eps, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(3, rng)
        w = np.array([1.0, 0.5, eps])
        w /= w.sum()
        rho_b = random_state(QUBIT, rng).matrix
        return JointState(QUTRIT, QUBIT, kron(hermitize((u * w) @ u.conj().T), rho_b))

    @staticmethod
    def verdict(derive):
        try:
            m = derive().matrix
        except InvariantViolation as err:
            return err.invariant
        assert np.array_equal(m, m.conj().T)
        return "accepted"

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_derived_operators_are_hermitian_and_counted(self, eps):
        verdicts = {"condition": [], "bayes": []}
        for seed in self.SEEDS:
            j = self.joint(eps, seed)
            marg_a, marg_b = reduce(j, "a"), reduce(j, "b")
            verdicts["condition"].append(self.verdict(lambda: conditional_from_joint(j, "a")))
            if verdicts["condition"][-1] == "accepted":
                cond = conditional_from_joint(j, "a")
                assert self.verdict(lambda: joint_from_conditional(marg_a, cond)) == "accepted"
            cond_b = conditional_from_joint(j, "b")
            verdicts["bayes"].append(self.verdict(lambda: bayes_invert(cond_b, marg_a, marg_b)))
        counts = tuple(
            verdicts[name].count(v) for name in verdicts for v in ("accepted", "support_projector")
        )
        assert counts == self.COUNTS[eps]
