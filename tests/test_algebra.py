import numpy as np
import pytest

from condchan import AlgebraShape, ShapeMismatch, kron
from condchan.algebra import (
    block_mask,
    block_projectors,
    pair_mask,
    support_deviation,
)
from conftest import BIT, MIXED, QUBIT
from test_matcore import mul_oracle


def eq10_oracle(m, shape):
    """Pinching as the explicit sum of block-projector sandwiches."""
    total = np.zeros_like(np.asarray(m, dtype=complex))
    for p in block_projectors(shape):
        total += mul_oracle(mul_oracle(p, m), p)
    return total


def pinch(m, shape):
    """Zero every entry outside the algebra's blocks, as the library pinches."""
    return m * block_mask(shape)


def random_element(rng, shape):
    d = shape.total_dim
    return pinch(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), shape)


class TestShape:
    def test_total_dim_and_flags(self):
        assert BIT.total_dim == 2 and not BIT.is_irreducible
        assert QUBIT.total_dim == 2 and QUBIT.is_irreducible
        assert MIXED.total_dim == 3 and not MIXED.is_irreducible

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeMismatch):
            AlgebraShape(())
        with pytest.raises(ShapeMismatch):
            AlgebraShape((2, 0))


class TestEmbed:
    """The block mask: the entries an embedded algebra element may occupy."""

    def test_classical_bit(self):
        np.testing.assert_array_equal(block_mask(BIT), np.eye(2, dtype=bool))

    def test_irreducible_is_the_block(self):
        assert block_mask(QUBIT).all()

    def test_off_block_entries_zero(self):
        mask = block_mask(MIXED)
        for i in range(3):
            for j in range(3):
                in_block = (i < 2 and j < 2) or (i == 2 and j == 2)
                assert mask[i, j] == in_block


class TestProject:
    def test_bell_projector_onto_classical_factor(self):
        # normalized maximally entangled projector, second factor pinched to bits
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        bell = np.outer(phi, phi.conj())
        got = bell * pair_mask(QUBIT, BIT)
        expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_block_diagonal_fixed_point(self, rng):
        m = random_element(rng, MIXED)
        np.testing.assert_allclose(pinch(m, MIXED), m)
        assert support_deviation(m, MIXED) == 0.0

    def test_matches_projector_sum_oracle(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(pinch(m, MIXED), eq10_oracle(m, MIXED), atol=1e-13)
        assert support_deviation(m, MIXED) == np.abs(m - eq10_oracle(m, MIXED)).max()

    def test_linear_positive_trace_preserving_idempotent(self, rng):
        for _ in range(20):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            psd = g @ g.conj().T
            pinched = pinch(psd, MIXED)
            assert abs(np.trace(pinched) - np.trace(psd)) < 1e-12
            assert np.linalg.eigvalsh((pinched + pinched.conj().T) / 2).min() > -1e-12
            np.testing.assert_allclose(pinch(pinched, MIXED), pinched, atol=1e-12)
        x = rng.standard_normal((3, 3)) + 0j
        y = rng.standard_normal((3, 3)) + 0j
        np.testing.assert_allclose(
            pinch(2 * x + 3j * y, MIXED),
            2 * pinch(x, MIXED) + 3j * pinch(y, MIXED),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            support_deviation(np.eye(4), MIXED)


class TestTensorShape:
    """The tensor-product algebra, read off its support on the kron space:
    entry (i, j) is in a block of size n exactly when row i holds n entries."""

    @staticmethod
    def block_sizes(mask):
        return sorted(mask.sum(axis=1).tolist(), reverse=True)

    def test_irreducible(self):
        assert self.block_sizes(pair_mask(QUBIT, QUBIT)) == [4] * 4

    def test_classical_product(self):
        np.testing.assert_array_equal(pair_mask(BIT, BIT), np.eye(4, dtype=bool))

    def test_mixed_lexicographic(self):
        assert self.block_sizes(pair_mask(MIXED, AlgebraShape((3,)))) == [6] * 6 + [3] * 3

    def test_total_dim_multiplies(self):
        for a in (QUBIT, BIT, MIXED):
            for b in (QUBIT, BIT, MIXED):
                d = a.total_dim * b.total_dim
                mask = pair_mask(a, b)
                assert mask.shape == (d, d)
                assert mask.sum() == sum((x * y) ** 2 for x in a.block_dims for y in b.block_dims)

    def test_pair_mask_matches_kron_of_masks(self, rng):
        # the kron-space support is the kron of the single-system supports
        composite = kron(random_element(rng, MIXED), random_element(rng, BIT))
        mask = pair_mask(MIXED, BIT)
        assert np.all(composite[~mask] == 0)
        np.testing.assert_array_equal(mask, np.kron(block_mask(MIXED), block_mask(BIT)))


class TestIdentity:
    """The block projectors resolve the algebra's identity."""

    def test_irreducible(self):
        np.testing.assert_allclose(sum(block_projectors(QUBIT)), np.eye(2))

    def test_classical(self):
        np.testing.assert_allclose(sum(block_projectors(BIT)), np.diag([1.0, 1.0]))

    @pytest.mark.parametrize("shape", [QUBIT, BIT, MIXED, AlgebraShape((3, 2, 1))])
    def test_idempotent_with_full_trace(self, shape):
        m = sum(block_projectors(shape))
        np.testing.assert_allclose(m @ m, m)
        assert np.trace(m).real == shape.total_dim
        for p in block_projectors(shape):
            np.testing.assert_allclose(p @ p, p)
