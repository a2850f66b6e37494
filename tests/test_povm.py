import warnings

import numpy as np
import pytest

from condchan import (
    POVM,
    AlgebraShape,
    ConditionalState,
    Ensemble,
    InvariantViolation,
    NumericalFailure,
    ShapeMismatch,
    State,
    SupportMismatch,
    conditional_from_joint,
    herm_eig,
    joint_from_conditional,
    measure,
    povm_from_ensemble,
    prepare,
    reduce,
    sample,
)
from condchan.scenarios import random_povm, random_state, random_unitary
from conftest import BIT, MIXED, QUBIT, tiny_outcome_pair

COMPUTATIONAL = POVM(QUBIT, (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))


def trace_oracle(effect, rho):
    total = 0.0 + 0.0j
    d = effect.shape[0]
    for i in range(d):
        for j in range(d):
            total += effect[i, j] * rho[j, i]
    return total.real


class TestPOVMValidation:
    def test_rejects_bad_sum(self):
        with pytest.raises(InvariantViolation) as err:
            POVM(QUBIT, (np.diag([0.5, 0.5]).astype(complex),))
        assert err.value.invariant == "povm_sum"

    def test_overflowing_sum_is_named_without_numpy_warnings(self):
        # each element passes the PSD checks, but three times 8e307 overflows
        big = np.diag([8e307, 0.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation) as err:
                POVM(QUBIT, (big, big, big))
        assert err.value.invariant == "povm_sum"
        assert err.value.deviation == np.inf

    def test_rejects_negative_element(self):
        with pytest.raises(InvariantViolation):
            POVM(QUBIT, (np.diag([1.5, 0.5]).astype(complex), np.diag([-0.5, 0.5]).astype(complex)))

    def test_random_povms_are_valid(self, rng):
        for shape in (QUBIT, BIT, MIXED):
            for k in (1, 2, 4):
                random_povm(shape, k, rng)  # constructor validates


class TestEnsembleValidation:
    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_rejects_non_finite_weights(self, rng, weights):
        s = random_state(QUBIT, rng)
        with pytest.raises(InvariantViolation) as err:
            Ensemble(weights, (s, s), s)
        assert err.value.invariant == "finite"


class TestMeasure:
    def test_trivial_povm(self, rng):
        povm = POVM(QUBIT, (np.eye(2, dtype=complex),))
        np.testing.assert_allclose(measure(povm, random_state(QUBIT, rng)), [1.0], atol=1e-12)

    def test_computational_on_diagonal(self):
        s = State(QUBIT, np.diag([0.3, 0.7]).astype(complex))
        np.testing.assert_allclose(measure(COMPUTATIONAL, s), [0.3, 0.7], atol=1e-14)

    def test_matches_entry_loop_oracle(self, rng):
        povm = random_povm(MIXED, 3, rng)
        s = random_state(MIXED, rng)
        probs = measure(povm, s)
        expected = [trace_oracle(e, s.matrix) for e in povm.elements]
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_valid_probability_vector(self, rng):
        for _ in range(10):
            povm = random_povm(QUBIT, 4, rng)
            probs = measure(povm, random_state(QUBIT, rng))
            assert probs.min() > -1e-12
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            measure(COMPUTATIONAL, random_state(BIT, rng))


class TestPrepare:
    def test_trivial_povm_returns_state(self, rng):
        s = random_state(QUBIT, rng)
        ens = prepare(POVM(QUBIT, (np.eye(2, dtype=complex),)), s)
        np.testing.assert_allclose(ens.weights, [1.0])
        np.testing.assert_allclose(ens.members[0].matrix, s.matrix, atol=1e-12)

    def test_maximally_mixed_with_eigenprojectors(self):
        s = State(QUBIT, np.eye(2, dtype=complex) / 2)
        ens = prepare(COMPUTATIONAL, s)
        np.testing.assert_allclose(ens.weights, [0.5, 0.5])
        np.testing.assert_allclose(ens.members[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(ens.members[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_mixture_reconstructs_state(self, rng):
        s = random_state(QUBIT, rng)
        ens = prepare(random_povm(QUBIT, 4, rng), s)
        mix = sum(p * m.matrix for p, m in zip(ens.weights, ens.members))
        np.testing.assert_allclose(mix, s.matrix, atol=1e-9)

    def test_members_are_exactly_hermitian(self, rng):
        for shape in (QUBIT, MIXED, AlgebraShape((8,))):
            ens = prepare(random_povm(shape, 4, rng), random_state(shape, rng))
            assert all(np.array_equal(m.matrix, m.matrix.conj().T) for m in ens.members)

    @pytest.mark.any_kernel
    def test_members_of_a_state_below_zero_have_unit_trace(self):
        # ρ on C^8 with λmin = -9e-11 (the rest equal) is a valid State; root()
        # clips that eigenvalue, so √ρ E √ρ has trace tr(E ρ₊), not the Born
        # probability tr(E ρ): each member is divided by its own trace
        octet = AlgebraShape((8,))
        rng = np.random.default_rng(11)
        w = np.array([-9e-11] + [(1 + 9e-11) / 7] * 7)
        for _ in range(4):
            u = random_unitary(8, rng)
            s = State(octet, (u * w) @ u.conj().T)
            povm = random_povm(octet, 3, rng)
            ens = prepare(povm, s)
            assert ens.weights.tobytes() == measure(povm, s).tobytes()
            traces = [np.trace(m.matrix) for m in ens.members]
            np.testing.assert_allclose(traces, 1.0, rtol=0, atol=1e-14)

    @pytest.mark.any_kernel
    def test_member_of_a_tiny_probability_outcome_that_fails_is_a_numerical_failure(self):
        # √ρ E √ρ / p is PSD in exact arithmetic, but its rounding is scaled by 1/p: at
        # p ≈ 1.9e-9 some members fail `positive`, which blames the computation (exit 4),
        # not the valid state and POVM, and names κ = 1/p_min
        rng = np.random.default_rng(11)
        failures = 0
        for _ in range(20):
            s, povm = tiny_outcome_pair(3e-5, rng)
            try:
                prepare(povm, s)
            except NumericalFailure as exc:
                failures += 1
                cause = exc.__cause__
                assert type(cause) is InvariantViolation and exc.exit_code == 4
                assert (exc.map, exc.invariant, exc.deviation) == ("prepare", cause.invariant,
                                                                    cause.deviation)
                assert exc.invariant == "positive"
                assert exc.condition_number == 1 / measure(povm, s).min()
        assert failures

    def test_classical_reduces_to_bayesian_conditioning(self, rng):
        probs = rng.random(2)
        probs /= probs.sum()
        s = State(BIT, np.diag(probs).astype(complex))
        effects = rng.random((3, 2))
        effects = effects / effects.sum(axis=0)
        povm = POVM(BIT, tuple(np.diag(e).astype(complex) for e in effects))
        ens = prepare(povm, s)
        for weight, member, effect in zip(ens.weights, ens.members, effects):
            p = float(effect @ probs)
            assert abs(weight - p) < 1e-12
            np.testing.assert_allclose(
                np.diag(member.matrix).real, effect * probs / p, atol=1e-12
            )


class TestPOVMFromEnsemble:
    def test_single_member_full_rank(self, rng):
        s = random_state(QUBIT, rng)
        ens = Ensemble(np.array([1.0]), (s,), s)
        povm = povm_from_ensemble(ens, s)
        assert len(povm) == 1
        np.testing.assert_allclose(povm.elements[0], np.eye(2), atol=1e-9)

    def test_single_member_rank_deficient_adds_completion(self):
        s = State(QUBIT, np.diag([1.0, 0.0]).astype(complex))
        ens = Ensemble(np.array([1.0]), (s,), s)
        povm = povm_from_ensemble(ens, s)
        assert len(povm) == 2
        np.testing.assert_allclose(povm.elements[0], np.diag([1.0, 0.0]), atol=1e-9)
        np.testing.assert_allclose(povm.elements[1], np.diag([0.0, 1.0]), atol=1e-9)
        again = prepare(povm, s)  # the completion never fires under s
        np.testing.assert_allclose(again.weights, [1.0])

    def test_spectral_ensemble_gives_eigenprojectors(self, rng):
        s = random_state(QUBIT, rng)
        es = herm_eig(s.matrix)
        members = tuple(
            State(QUBIT, np.outer(v, v.conj())) for v in es.eigenvectors.T
        )
        ens = Ensemble(es.eigenvalues.copy(), members, s)
        povm = povm_from_ensemble(ens, s)
        for element, v in zip(povm.elements, es.eigenvectors.T):
            np.testing.assert_allclose(element, np.outer(v, v.conj()), atol=1e-9)

    def test_round_trip_full_rank(self, rng):
        for _ in range(5):
            s = random_state(MIXED, rng)
            povm = random_povm(MIXED, 3, rng)
            ens = prepare(povm, s)
            back = povm_from_ensemble(ens, s)
            assert len(back) == len(povm)
            for a, b in zip(back.elements, povm.elements):
                np.testing.assert_allclose(a, b, atol=1e-9)

    def test_support_violation(self):
        s = State(QUBIT, np.diag([1.0, 0.0]).astype(complex))
        leaking = State(QUBIT, np.diag([0.0, 1.0]).astype(complex))
        ens = Ensemble(np.array([1.0]), (leaking,), leaking)
        with pytest.raises(SupportMismatch, match="leaks outside the support of the state by 1.000e") as info:
            povm_from_ensemble(ens, s)
        assert info.value.deviation == 1.0


class TestSample:
    def test_trivial_all_on_first_outcome(self, rng):
        povm = POVM(QUBIT, (np.eye(2, dtype=complex),))
        counts = sample(povm, random_state(QUBIT, rng), np.random.default_rng(7), 100)
        assert counts.tolist() == [100]

    def test_fair_coin_concentration(self):
        s = State(QUBIT, np.eye(2, dtype=complex) / 2)
        n = 10**5
        counts = sample(COMPUTATIONAL, s, np.random.default_rng(123), n)
        assert counts.sum() == n
        assert abs(counts[0] / n - 0.5) < 5 * np.sqrt(0.25 / n)

    def test_rejects_a_negative_number_of_draws(self, rng):
        s = random_state(QUBIT, rng)
        with pytest.raises(ShapeMismatch, match="negative number of outcomes, got -1"):
            sample(COMPUTATIONAL, s, np.random.default_rng(1), -1)
        assert sample(COMPUTATIONAL, s, np.random.default_rng(1), 0).tolist() == [0, 0]

    def test_rejects_a_number_of_draws_that_is_not_an_integer(self, rng):
        # a float is not truncated, a bool is not read as 0 or 1 and a string is not parsed
        s = random_state(QUBIT, rng)
        for n in (2.7, 2.0, True, np.True_, "3"):
            with pytest.raises(ShapeMismatch, match="number of outcomes must be an integer"):
                sample(COMPUTATIONAL, s, np.random.default_rng(1), n)
        assert sample(COMPUTATIONAL, s, np.random.default_rng(1), np.int64(3)).sum() == 3

    def test_deterministic_given_seed(self, rng):
        povm = random_povm(QUBIT, 3, rng)
        s = random_state(QUBIT, rng)
        a = sample(povm, s, np.random.default_rng(99), 1000)
        b = sample(povm, s, np.random.default_rng(99), 1000)
        assert np.array_equal(a, b)


@pytest.mark.any_kernel
@pytest.mark.parametrize("dims, outcomes", [((2,), 2), ((3,), 4), ((8,), 3), ((1, 1), 2), ((1,) * 3, 4),
                                            ((2, 1), 3), ((4, 2, 1, 1), 4)], ids=str)
def test_povm_is_the_conditional_of_its_outcomes_given_the_system(rng, dims, outcomes):
    # the hybrid forms (Leifer & Spekkens, arXiv:1107.5849): {E_j} on A is the conditional
    # Σ_j E_j ⊗ |j⟩⟨j| of the classical outcome algebra given A, of conditioning support I;
    # joined to ρ it is Σ_j √ρ E_j √ρ ⊗ |j⟩⟨j|, whose outcome marginal is ``measure`` and whose
    # conditional on the outcome holds ``prepare``'s members on its diagonal blocks
    shape, outcome = AlgebraShape(dims), AlgebraShape((1,) * outcomes)
    povm, rho = random_povm(shape, outcomes, rng), random_state(shape, rng)
    projectors = np.eye(outcomes)[:, :, None] * np.eye(outcomes)[:, None, :]
    hybrid = ConditionalState(shape, outcome, sum(map(np.kron, povm.elements, projectors)))
    np.testing.assert_allclose(hybrid.conditioning_support(), np.eye(shape.total_dim), rtol=0, atol=1e-12)
    joint = joint_from_conditional(rho, hybrid)
    np.testing.assert_allclose(np.diag(reduce(joint, "b").matrix).real, measure(povm, rho),
                               rtol=0, atol=1e-12)
    cond = conditional_from_joint(joint, "b")
    ensemble = prepare(povm, rho)
    assert len(ensemble.members) == outcomes
    d = shape.total_dim
    blocks = cond.matrix.reshape(outcomes, d, outcomes, d)
    for j, member in enumerate(ensemble.members):
        np.testing.assert_allclose(blocks[j, :, j, :], member.matrix, rtol=0, atol=1e-12)
