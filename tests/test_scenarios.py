import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from condchan import (
    POVM,
    AlgebraShape,
    Channel,
    InvariantViolation,
    JointState,
    ShapeMismatch,
    State,
    apply,
    herm_eig,
    identity_channel,
    kron,
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
    random_unitary,
    teleport,
    teleport_classical,
    validate_channel,
    verify_theorem,
)
from condchan.scenarios import random_block_unitary, random_support_projector
from test_contractions import bad_bell_basis, bell_basis
from conftest import BIT, MIXED, QUBIT, QUTRIT
from test_channels import classical_channel, depolarizing_qubit


def trivial_povm(shape):
    return POVM(shape, (np.eye(shape.total_dim, dtype=complex),))


class TestVerifyTheorem:
    def test_product_state_trivial_povms(self, rng):
        a, b = random_state(QUBIT, rng), random_state(QUTRIT, rng)
        j = JointState(QUBIT, QUTRIT, kron(a.matrix, b.matrix))
        report = verify_theorem(j, trivial_povm(QUBIT), trivial_povm(QUTRIT))
        np.testing.assert_allclose(report.lhs, [[1.0]], atol=1e-12)
        np.testing.assert_allclose(report.rhs, [[1.0]], atol=1e-9)

    def test_maximally_entangled_computational(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        j = JointState(QUBIT, QUBIT, np.outer(phi, phi.conj()))
        comp = POVM(QUBIT, (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        report = verify_theorem(j, comp, comp)
        np.testing.assert_allclose(report.lhs, np.eye(2) / 2, atol=1e-12)
        assert report.max_deviation < 1e-9

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [(QUBIT, QUBIT), (QUBIT, QUTRIT), (BIT, QUBIT), (MIXED, BIT)],
    )
    def test_random_instances(self, rng, shape_a, shape_b):
        for k in range(5):
            j = random_joint_state(shape_a, shape_b, rng)
            n = random_povm(shape_a, 1 + k % 3, rng)
            m = random_povm(shape_b, 3, rng)
            report = verify_theorem(j, n, m)
            assert report.max_deviation < 1e-9
            assert report.distributions_valid()
            assert not report.support_restricted

    def test_rank_deficient_marginal_is_flagged_and_holds(self, rng):
        for _ in range(5):
            j = random_joint_state(QUBIT, QUBIT, rng, rank_a=1)
            report = verify_theorem(j, random_povm(QUBIT, 3, rng), random_povm(QUBIT, 2, rng))
            assert report.support_restricted
            assert report.max_deviation < 1e-9

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
    def test_nan_distribution_is_invalid(self, rng, side, entry):
        j = random_joint_state(QUBIT, QUBIT, rng)
        report = verify_theorem(j, random_povm(QUBIT, 2, rng), random_povm(QUBIT, 2, rng))
        assert report.distributions_valid()
        bad = getattr(report, side).copy()
        bad[entry] = np.nan
        assert not replace(report, **{side: bad}).distributions_valid()

    def test_shape_mismatch(self, rng):
        j = random_joint_state(QUBIT, QUBIT, rng)
        with pytest.raises(ShapeMismatch):
            verify_theorem(j, random_povm(QUTRIT, 2, rng), random_povm(QUBIT, 2, rng))


class TestTeleport:
    def test_identity_qubit_bell_basis(self, rng):
        c = Channel(QUBIT, QUBIT, (np.eye(2, dtype=complex),))
        s = random_state(QUBIT, rng)
        report = teleport(c, s)
        assert abs(report.success_probability - 0.25) < 1e-12
        np.testing.assert_allclose(report.bob_state_on_success.matrix, s.matrix, atol=1e-9)
        # every branch corrects back to the input for the identity channel
        for corrected in report.corrected_states:
            np.testing.assert_allclose(corrected.matrix, s.matrix, atol=1e-9)

    def test_qutrit_unitary_success_probability(self, rng):
        c = Channel(QUTRIT, QUTRIT, (random_unitary(3, rng),))
        report = teleport(c, random_state(QUTRIT, rng))
        assert abs(report.success_probability - 1 / 9) < 1e-12

    def test_qutrit_identity_corrections(self, rng):
        # every branch of standard teleportation corrects back, in dimension 3 too
        c = Channel(QUTRIT, QUTRIT, (np.eye(3, dtype=complex),))
        s = random_state(QUTRIT, rng)
        report = teleport(c, s)
        assert len(report.corrected_states) == 9
        for outcome_prob, corrected in zip(report.outcome_probabilities, report.corrected_states):
            assert abs(outcome_prob - 1 / 9) < 1e-12
            np.testing.assert_allclose(corrected.matrix, s.matrix, atol=1e-9)

    def test_depolarizing_success_branch(self, rng):
        report = teleport(depolarizing_qubit(), random_state(QUBIT, rng))
        np.testing.assert_allclose(report.bob_state_on_success.matrix, np.eye(2) / 2, atol=1e-9)

    def test_success_probability_independent_of_channel_and_input(self, rng):
        for d, out_shape in [(2, QUTRIT), (3, BIT), (4, QUBIT)]:
            shape = AlgebraShape((d,))
            c = random_channel(shape, out_shape, 2, rng)
            s = random_state(shape, rng)
            report = teleport(c, s)
            assert abs(report.success_probability - 1 / d**2) < 1e-9
            np.testing.assert_allclose(
                report.bob_state_on_success.matrix, apply(c, s).matrix, atol=1e-9
            )

    def test_outcome_probabilities_sum_to_one(self, rng):
        c = random_channel(QUBIT, QUBIT, 2, rng)
        report = teleport(c, random_state(QUBIT, rng))
        assert abs(report.outcome_probabilities.sum() - 1.0) < 1e-9

    def test_dimension_16_without_a_basis_in_memory(self, rng):
        # the effect stack of the Bell basis alone would take 268 MB here
        shape = AlgebraShape((16,))
        c, s = random_channel(shape, shape, 2, rng), random_state(shape, rng)
        identity = identity_channel(shape)
        tracemalloc.start()
        try:
            report = teleport(c, s)
            corrected = teleport(identity, s).corrected_states
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert abs(report.success_probability - 1 / 256) < 1e-12
        np.testing.assert_allclose(report.bob_state_on_success.matrix, apply(c, s).matrix, atol=1e-9)
        assert len(corrected) == 256
        for state in corrected:
            np.testing.assert_allclose(state.matrix, s.matrix, atol=1e-9)

    def test_rejects_reducible_input_algebra(self, rng):
        # the bit takes the parity route; any other reducible algebra needs a basis
        for shape in (MIXED, AlgebraShape((1, 1, 1))):
            with pytest.raises(ShapeMismatch, match=r"^the canonical measurement needs an "
                               r"irreducible input algebra or the classical bit; pass a basis$"):
                teleport(identity_channel(shape), random_state(shape, rng))

    def test_rejects_basis_without_success_effect(self, rng):
        c = Channel(QUBIT, QUBIT, (np.eye(2, dtype=complex),))
        basis = [np.eye(4, dtype=complex)]
        with pytest.raises(InvariantViolation) as info:
            teleport(c, random_state(QUBIT, rng), measurement_basis=basis)
        # I − Φ/2 is largest, 1, on the diagonal entries where Φ is zero
        assert (info.value.invariant, info.value.deviation) == ("success_effect", 1.0)

    def test_rejects_non_povm_basis(self, rng):
        c = Channel(QUBIT, QUBIT, (np.eye(2, dtype=complex),))
        basis = list(bell_basis(2))[:3]  # dropped one effect: no resolution
        with pytest.raises(InvariantViolation) as caught:
            teleport(c, random_state(QUBIT, rng), measurement_basis=basis)
        assert caught.value.invariant == "povm_sum"

    def test_bell_basis_is_a_povm_of_max_ent_effects(self):
        for d in (2, 3):
            effects = bell_basis(d)
            assert len(effects) == d * d
            np.testing.assert_allclose(sum(effects), np.eye(d * d), atol=1e-12)
            for e in effects:
                w = np.linalg.eigvalsh(e)
                assert abs(w[-1] - 1.0) < 1e-12  # rank one
                # each effect has a maximally mixed marginal on either side
                from condchan import partial_trace

                np.testing.assert_allclose(
                    partial_trace(e, d, d, keep="left"), np.eye(d) / d, atol=1e-12
                )


class TestBasisValidation:
    """An explicit basis gets the verdict of a POVM of the same effects."""

    @pytest.mark.parametrize("position", [0, 3], ids=["first", "last"])
    @pytest.mark.parametrize(
        "kind,error,message",
        [
            ("shape", ShapeMismatch, r"element shape \(3, 3\) does not match total dim 4"),
            ("hermitian", InvariantViolation, "'hermitian' violated"),
            ("negative", InvariantViolation, r"'positive' violated \(deviation 1.000e-01\)"),
            ("non_finite", InvariantViolation, "non-finite entries"),
        ],
        ids=["shape", "hermitian", "negative", "non_finite"],
    )
    def test_rejects_one_bad_effect(self, rng, kind, error, message, position):
        c = random_channel(QUBIT, QUBIT, 2, rng)
        s = random_state(QUBIT, rng)
        basis = bad_bell_basis(kind, position)
        with pytest.raises(error, match=message):
            teleport(c, s, measurement_basis=basis)

    def test_rejects_an_asymmetry_that_a_povm_rejects(self, rng):
        # 5e-10 lies between INPUT_TOL, which judges a POVM, and IDENTITY_TOL
        c = random_channel(QUBIT, QUBIT, 2, rng)
        basis = [np.array(e) for e in bell_basis(2)]
        basis[1][0, 1] += 5e-10
        with pytest.raises(InvariantViolation) as via_teleport:
            teleport(c, random_state(QUBIT, rng), basis)
        with pytest.raises(InvariantViolation) as via_povm:
            POVM(AlgebraShape((4,)), basis)
        assert via_teleport.value.invariant == via_povm.value.invariant == "hermitian"
        assert via_teleport.value.deviation == via_povm.value.deviation

    def test_rejects_empty_basis(self, rng):
        c = random_channel(QUBIT, QUBIT, 2, rng)
        with pytest.raises(ShapeMismatch, match="at least one element"):
            teleport(c, random_state(QUBIT, rng), [], 0)

    def test_rejects_success_index_out_of_range(self, rng):
        c = random_channel(QUBIT, QUBIT, 2, rng)
        with pytest.raises(ShapeMismatch, match="out of range"):
            teleport(c, random_state(QUBIT, rng), bell_basis(2), 4)

    def test_rejects_success_outcome_of_zero_probability(self, rng):
        success = bell_basis(2)[0]
        basis = [success, np.eye(4) - success, np.zeros((4, 4))]
        with pytest.raises(InvariantViolation) as info:
            teleport(identity_channel(QUBIT), random_state(QUBIT, rng), basis, 2)
        assert (info.value.invariant, info.value.deviation) == ("success_probability", 0.0)
        assert str(info.value) == "success outcome has vanishing probability"

    def test_rejects_input_on_another_algebra(self, rng):
        c = random_channel(QUBIT, QUBIT, 2, rng)
        for run in (teleport, lambda c, s: teleport(c, s, bell_basis(2), 0)):
            with pytest.raises(ShapeMismatch):
                run(c, random_state(BIT, rng))


class TestTeleportClassical:
    def test_identity_pure_bit(self):
        c = identity_channel(BIT)
        s = State(BIT, np.diag([1.0, 0.0]).astype(complex))
        report = teleport_classical(c, s)
        assert report.grouping_used
        assert abs(report.success_probability - 0.5) < 1e-12
        for corrected in report.corrected_states:
            np.testing.assert_allclose(corrected.matrix, s.matrix, atol=1e-12)

    def test_maximally_mixed_fixed_point(self):
        c = identity_channel(BIT)
        s = State(BIT, np.diag([0.5, 0.5]).astype(complex))
        report = teleport_classical(c, s)
        for branch in report.branch_states:
            np.testing.assert_allclose(branch.matrix, s.matrix, atol=1e-12)

    def test_binary_symmetric_channel_success_branch(self):
        c = classical_channel([[0.9, 0.1], [0.1, 0.9]])
        s = State(BIT, np.diag([1.0, 0.0]).astype(complex))
        report = teleport_classical(c, s)
        assert abs(report.success_probability - 0.5) < 1e-12
        np.testing.assert_allclose(
            report.bob_state_on_success.matrix, np.diag([0.9, 0.1]), atol=1e-12
        )
        assert report.corrected_states is None  # corrections only for the identity

    def test_grouped_success_doubles_ungrouped(self, rng):
        c = random_channel(BIT, BIT, 2, rng)
        s = random_state(BIT, rng)
        grouped = teleport_classical(c, s)
        ungrouped = teleport(c, s, bell_basis(2), 0)
        assert abs(grouped.success_probability - 0.5) < 1e-12
        assert abs(ungrouped.success_probability - 0.25) < 1e-12
        assert grouped.grouping_used and not ungrouped.grouping_used

    def test_requires_bit_algebra(self, rng):
        with pytest.raises(ShapeMismatch):
            teleport_classical(identity_channel(QUBIT), random_state(QUBIT, rng))

    def test_teleport_takes_the_parity_route_on_the_bit(self, rng):
        channels = (random_channel(BIT, BIT, 2, rng), random_channel(BIT, QUBIT, 2, rng),
                    identity_channel(BIT))
        for c in channels:
            s = random_state(BIT, rng)
            got, want = teleport(c, s), teleport_classical(c, s)
            assert got.grouping_used and got.success_index == 0
            assert abs(got.success_probability - 0.5) < 1e-12
            assert got.success_probability == want.success_probability
            np.testing.assert_array_equal(got.outcome_probabilities, want.outcome_probabilities)
            for field in ("branch_states", "corrected_states"):
                ours, theirs = getattr(got, field), getattr(want, field)
                assert (ours is None) == (theirs is None), field
                for a, b in zip(ours or (), theirs or ()):
                    assert np.array_equal(a.matrix, b.matrix), field
            assert np.array_equal(got.bob_state_on_success.matrix, want.bob_state_on_success.matrix)

    def test_teleport_corrects_the_bit_by_the_one_time_pad(self, rng):
        for s in (random_state(BIT, rng), State(BIT, np.diag([0.0, 1.0]).astype(complex))):
            report = teleport(identity_channel(BIT), s)
            assert len(report.corrected_states) == 2
            for corrected in report.corrected_states:
                np.testing.assert_allclose(corrected.matrix, s.matrix, atol=1e-12)


class TestTeleportGeneral:
    """``teleport`` with an explicit measurement basis, on any input algebra."""

    def test_reducible_algebra_reports_measured_probability(self, rng):
        # no closed form is asserted for reducible algebras; the measured
        # probability is reported and checked against a loop-trace oracle
        from condchan import choi_conditional
        from condchan.channels import max_ent_matrix

        c = random_channel(MIXED, QUBIT, 2, rng)
        s = random_state(MIXED, rng)
        d = MIXED.total_dim
        grouped_success = herm_eig(max_ent_matrix(MIXED)).support()
        rest = np.eye(d * d, dtype=complex) - grouped_success
        report = teleport(c, s, [grouped_success, rest], 0)
        assert report.grouping_used
        assert abs(report.outcome_probabilities.sum() - 1.0) < 1e-9
        assert report.outcome_probabilities.min() > -1e-12
        resource = choi_conditional(c).matrix / d
        total = kron(s.matrix, resource)
        op = kron(grouped_success, np.eye(2, dtype=complex))
        expected = sum(
            op[i, j] * total[j, i] for i in range(total.shape[0]) for j in range(total.shape[0])
        ).real
        assert abs(report.success_probability - expected) < 1e-12

    def test_grouping_used_says_whether_some_effect_has_rank_above_one(self, rng):
        even = np.diag(np.array([1.0, 0, 0, 1.0], dtype=complex))
        c, s = random_channel(BIT, BIT, 2, rng), random_state(BIT, rng)
        assert teleport(c, s, [even, np.eye(4) - even], 0).grouping_used
        assert not teleport(c, s, bell_basis(2)).grouping_used
        success = bell_basis(3)[0]
        c, s = random_channel(MIXED, QUBIT, 2, rng), random_state(MIXED, rng)
        report = teleport(c, s, [success, np.eye(9) - success])
        assert report.grouping_used and report.success_index == 0

    def test_matches_classical_grouping(self, rng):
        c = random_channel(BIT, BIT, 2, rng)
        s = random_state(BIT, rng)
        even = np.diag(np.array([1.0, 0, 0, 1.0], dtype=complex))
        odd = np.diag(np.array([0.0, 1.0, 1.0, 0.0], dtype=complex))
        general = teleport(c, s, [even, odd], 0)
        dedicated = teleport_classical(c, s)
        assert general.grouping_used and general.success_index == 0
        assert abs(general.success_probability - dedicated.success_probability) < 1e-12
        np.testing.assert_allclose(
            general.bob_state_on_success.matrix, dedicated.bob_state_on_success.matrix, atol=1e-12
        )


class TestRandomInstances:
    def test_random_states_always_valid(self):
        for seed in range(1000):
            r = np.random.default_rng(seed)
            random_state(MIXED, r)  # constructor validates

    def test_random_channels_always_valid(self):
        for seed in range(1000):
            r = np.random.default_rng(seed)
            c = random_channel(QUBIT, MIXED, 2, r)
            assert validate_channel(c).ok

    def test_determinism(self):
        a = random_state(QUBIT, np.random.default_rng(5)).matrix
        b = random_state(QUBIT, np.random.default_rng(5)).matrix
        assert np.array_equal(a, b)
        ca = random_channel(QUBIT, QUBIT, 2, np.random.default_rng(5))
        cb = random_channel(QUBIT, QUBIT, 2, np.random.default_rng(5))
        assert all(np.array_equal(x, y) for x, y in zip(ca.kraus, cb.kraus))

    def test_random_unitary_is_unitary(self, rng):
        u = random_unitary(4, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_random_block_unitary_stays_in_algebra(self, rng):
        u = random_block_unitary(MIXED, rng)
        assert u[2, 0] == 0 and u[0, 2] == 0
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_random_support_projector(self, rng):
        p = random_support_projector(MIXED, 2, rng)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p).real - 2.0) < 1e-12

    def test_rank_deficient_joint_state_marginal(self, rng):
        from condchan import reduce

        j = random_joint_state(QUTRIT, QUBIT, rng, rank_a=2)
        w = np.linalg.eigvalsh(reduce(j, "a").matrix)
        assert np.count_nonzero(w > 1e-10) == 2
