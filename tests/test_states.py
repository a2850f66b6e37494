import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condchan import (
    InvariantViolation,
    JointState,
    State,
    herm_eig,
    kron,
    reduce,
    swap_factors,
)
from condchan.algebra import support_deviation
from condchan.states import states_from_stack
from condchan.scenarios import random_joint_state, random_state
from conftest import BIT, MIXED, QUBIT, QUTRIT, maximally_mixed
from test_matcore import partial_trace_oracle


def bell_joint():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return JointState(QUBIT, QUBIT, np.outer(phi, phi.conj()))


class TestValidation:
    def test_trace_violation_reports_deviation(self):
        with pytest.raises(InvariantViolation) as err:
            State(QUBIT, np.diag([0.4, 0.5]).astype(complex))
        assert err.value.invariant == "trace"
        assert err.value.deviation == pytest.approx(0.1)

    def test_not_positive(self):
        with pytest.raises(InvariantViolation) as err:
            State(QUBIT, np.diag([1.5, -0.5]).astype(complex))
        assert err.value.invariant == "positive"

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation) as err:
            State(QUBIT, m)
        assert err.value.invariant == "hermitian"

    def test_block_support(self):
        m = np.full((2, 2), 0.5, dtype=complex)
        with pytest.raises(InvariantViolation) as err:
            State(BIT, m)
        assert err.value.invariant == "block_support"

    @pytest.mark.parametrize(
        "diag,invariant",
        [([1e308, 1e308], "overflow"), ([1e308, -1e308], "overflow"), ([8e307] * 3, "trace")],
        ids=["huge", "indefinite", "trace_overflows"],
    )
    def test_overflow_is_named_without_numpy_warnings(self, diag, invariant):
        # m + m† (or, for three diagonal entries of 8e307, the trace) overflows;
        # the error names that, and numpy prints no RuntimeWarning on the way
        shape = QUTRIT if len(diag) == 3 else QUBIT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation) as err:
                State(shape, np.diag(diag).astype(complex))
        assert err.value.invariant == invariant
        assert err.value.deviation == np.inf

    def test_stack_is_checked_as_a_whole(self, rng):
        good = np.stack([random_state(QUBIT, rng).matrix for _ in range(3)])
        states = states_from_stack(QUBIT, good)
        assert [s.matrix.tobytes() for s in states] == [m.tobytes() for m in good]
        assert states_from_stack(QUBIT, good[:0]) == ()
        for bad, invariant in (
            (np.diag([1e308, 1e308]), "overflow"),
            (np.diag([1.5, -0.5]), "positive"),
            (np.diag([0.4, 0.5]), "trace"),
        ):
            stack = np.concatenate([good, bad[None].astype(complex)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvariantViolation) as err:
                    states_from_stack(QUBIT, stack)
            assert err.value.invariant == invariant

    def test_unchecked_constructor_allows_drift(self):
        State(QUBIT, np.diag([0.7, 0.7]).astype(complex), check=False)

    def test_matrices_are_read_only(self):
        s = maximally_mixed(QUBIT)
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 9.0


class TestReduce:
    def test_product_state(self, rng):
        a = random_state(QUBIT, rng)
        b = random_state(QUTRIT, rng)
        j = JointState(QUBIT, QUTRIT, kron(a.matrix, b.matrix))
        np.testing.assert_allclose(reduce(j, "a").matrix, a.matrix, atol=1e-12)
        np.testing.assert_allclose(reduce(j, "b").matrix, b.matrix, atol=1e-12)

    def test_bell_marginal(self):
        np.testing.assert_allclose(reduce(bell_joint(), "a").matrix, np.eye(2) / 2, atol=1e-14)

    def test_matches_loop_oracle(self, rng):
        j = random_joint_state(QUBIT, QUTRIT, rng)
        np.testing.assert_allclose(
            reduce(j, "a").matrix, partial_trace_oracle(j.matrix, 2, 3, "left"), atol=1e-12
        )
        np.testing.assert_allclose(
            reduce(j, "b").matrix, partial_trace_oracle(j.matrix, 2, 3, "right"), atol=1e-12
        )

    def test_reduced_state_is_valid_and_unit_trace(self, rng):
        for shapes in [(QUBIT, QUBIT), (MIXED, BIT), (BIT, QUTRIT)]:
            j = random_joint_state(*shapes, rng)
            for side in ("a", "b"):
                s = reduce(j, side)  # constructor validates
                assert abs(np.trace(s.matrix).real - 1.0) < 1e-10


def swap(j):
    """The joint state with its two factors exchanged."""
    da, db = j.shape_a.total_dim, j.shape_b.total_dim
    return JointState(j.shape_b, j.shape_a, swap_factors(j.matrix, da, db))


class TestSwap:
    def test_swap_involution(self, rng):
        j = random_joint_state(QUBIT, QUTRIT, rng)
        back = swap(swap(j))
        np.testing.assert_allclose(back.matrix, j.matrix)
        assert back.shape_a == j.shape_a

    def test_swap_exchanges_marginals(self, rng):
        j = random_joint_state(MIXED, BIT, rng)
        np.testing.assert_allclose(reduce(swap(j), "a").matrix, reduce(j, "b").matrix, atol=1e-12)


class TestTranspose:
    def test_involution_and_spectrum(self, rng):
        # the entry-wise transpose is a valid state with the same spectrum,
        # and its root is the transposed root (which verify_theorem relies on)
        s = random_state(MIXED, rng)
        t = State(MIXED, s.matrix.T)
        np.testing.assert_allclose(t.matrix.T, s.matrix)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(t.matrix), np.linalg.eigvalsh(s.matrix), atol=1e-9
        )
        np.testing.assert_allclose(herm_eig(t.matrix).root(), herm_eig(s.matrix).root().T, atol=1e-12)


class TestIsClassical:
    """A state is classical when it lies in the classical algebra of its
    dimension: nothing outside the diagonal."""

    def test_diagonal_bit_state(self):
        assert support_deviation(np.diag([0.3, 0.7]).astype(complex), BIT) <= 1e-12

    def test_bell_state_is_not(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert support_deviation(State(QUBIT, plus).matrix, BIT) > 1e-12

    def test_dephased_random_state(self, rng):
        s = random_state(QUBIT, rng)
        dephased = State(QUBIT, np.diag(np.diag(s.matrix)))
        assert support_deviation(dephased.matrix, BIT) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_joint_states_always_valid(seed):
    r = np.random.default_rng(seed)
    j = random_joint_state(MIXED, BIT, r)
    assert abs(np.trace(j.matrix).real - 1.0) < 1e-10
