import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condchan import (
    InvariantViolation,
    ShapeMismatch,
    herm_eig,
    kron,
    partial_trace,
    swap_factors,
)
from condchan.matcore import herm_eigvals
from conftest import random_hermitian, random_psd

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def mul_oracle(a, b):
    """Brute-force matrix multiply by explicit index loops."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def partial_trace_oracle(m, dl, dr, keep):
    """Element-wise sum over explicit index loops."""
    if keep == "left":
        out = np.zeros((dl, dl), dtype=complex)
        for i in range(dl):
            for j in range(dl):
                for r in range(dr):
                    out[i, j] += m[i * dr + r, j * dr + r]
    else:
        out = np.zeros((dr, dr), dtype=complex)
        for r in range(dr):
            for s in range(dr):
                for i in range(dl):
                    out[r, s] += m[i * dr + r, i * dr + s]
    return out


def kron_oracle(a, b):
    na, ma = a.shape
    nb, mb = b.shape
    out = np.zeros((na * nb, ma * mb), dtype=complex)
    for i in range(na):
        for j in range(ma):
            for r in range(nb):
                for s in range(mb):
                    out[i * nb + r, j * mb + s] = a[i, j] * b[r, s]
    return out


class TestHermEig:
    def test_identity(self):
        es = herm_eig(np.eye(2))
        np.testing.assert_allclose(es.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(es.eigenvectors, np.eye(2))

    def test_pauli_x_spectrum(self):
        es = herm_eig(PAULI_X)
        np.testing.assert_allclose(es.eigenvalues, [1.0, -1.0], atol=1e-14)

    def test_random_reconstruction(self, rng):
        m = random_hermitian(rng, 4)
        es = herm_eig(m)
        rebuilt = mul_oracle(mul_oracle(es.eigenvectors, np.diag(es.eigenvalues)),
                             es.eigenvectors.conj().T)
        np.testing.assert_allclose(rebuilt, m, atol=1e-10)

    def test_descending_order(self, rng):
        es = herm_eig(random_hermitian(rng, 5))
        assert np.all(np.diff(es.eigenvalues) <= 0)

    def test_unitary_columns(self, rng):
        es = herm_eig(random_hermitian(rng, 4))
        v = es.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_phase_convention(self, rng):
        es = herm_eig(random_hermitian(rng, 4))
        for col in es.eigenvectors.T:
            pivot = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
            assert pivot.real > 0
            assert abs(pivot.imag) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation) as info:
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
        assert (info.value.invariant, info.value.deviation) == ("hermitian", 1.0)
        assert str(info.value) == "invariant 'hermitian' violated (deviation 1.000e+00)"

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            herm_eig(np.zeros((2, 3)))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    @pytest.mark.parametrize("decompose", [herm_eig, herm_eigvals])
    def test_rejects_non_finite_before_solving(self, decompose, entry):
        # judged before Hermiticity and before the solver, which would return a
        # NaN spectrum for an infinite entry and fail to converge on a NaN
        m = np.eye(3, dtype=complex)
        m[1, 2] = entry
        with pytest.raises(InvariantViolation) as info:
            decompose(m)
        assert (info.value.invariant, info.value.deviation) == ("finite", np.inf)

    @pytest.mark.parametrize("decompose", [herm_eig, herm_eigvals])
    def test_rejects_overflow_before_solving(self, decompose):
        # finite entries whose Hermitian part overflows, named as the
        # constructors name them, without a numpy warning
        with pytest.raises(InvariantViolation) as info:
            decompose(np.array([[1e308] * 2] * 2))
        assert (info.value.invariant, info.value.deviation) == ("overflow", np.inf)

    def test_empty_matrix_has_the_empty_system(self):
        es = herm_eig(np.zeros((0, 0)))
        assert es.eigenvalues.shape == (0,) and es.eigenvectors.shape == (0, 0)
        assert es.rank == 0
        for view in (es.root(), es.inv_root(), es.support()):
            assert view.shape == (0, 0)
        assert herm_eigvals(np.zeros((0, 0))).shape == (0,)


class TestMatSqrt:
    def test_identity(self):
        np.testing.assert_allclose(herm_eig(np.eye(3)).root(), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        root = herm_eig(np.diag([4.0, 9.0])).root()
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-14)

    def test_random_psd_squares_back(self, rng):
        p = random_psd(rng, 3)
        root = herm_eig(p).root()
        np.testing.assert_allclose(mul_oracle(root, root), p, atol=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(InvariantViolation) as info:
            herm_eig(np.diag([1.0, -0.5])).root()
        assert (info.value.invariant, info.value.deviation) == ("positive", 0.5)
        assert str(info.value) == "minimum eigenvalue -5.000e-01 below -1.000e-10"


class TestGenInvSqrt:
    def test_nulls_zero_eigenvalue(self):
        inv = herm_eig(np.diag([4.0, 0.0])).inv_root()
        np.testing.assert_allclose(inv, np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(herm_eig(np.eye(2)).inv_root(), np.eye(2), atol=1e-14)

    def test_resolves_support(self, rng):
        p = random_psd(rng, 4)
        es = herm_eig(p)
        g = es.inv_root()
        np.testing.assert_allclose(g @ p @ g, es.support(), atol=1e-9)

    def test_resolves_support_rank_deficient(self, rng):
        p = random_psd(rng, 4, rank=2)
        es = herm_eig(p)
        g = es.inv_root()
        np.testing.assert_allclose(g @ p @ g, es.support(), atol=1e-9)

    def test_all_zero(self):
        np.testing.assert_allclose(herm_eig(np.zeros((3, 3))).inv_root(), np.zeros((3, 3)))


class TestSupportProjector:
    def test_rank_one_diagonal(self):
        proj = herm_eig(np.diag([0.3, 0.0])).support()
        np.testing.assert_allclose(proj, np.diag([1.0, 0.0]), atol=1e-14)

    def test_full_rank(self, rng):
        p = random_psd(rng, 3)
        np.testing.assert_allclose(herm_eig(p).support(), np.eye(3), atol=1e-12)

    def test_rank_two_trace(self, rng):
        p = random_psd(rng, 4, rank=2)
        proj = herm_eig(p).support()
        # independent rank count straight from the spectrum
        w = np.linalg.eigvalsh((p + p.conj().T) / 2)
        expected_rank = int(np.count_nonzero(w > 1e-10 * w.max()))
        assert expected_rank == 2
        np.testing.assert_allclose(np.trace(proj).real, 2.0, atol=1e-12)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)


class TestKron:
    def test_identities(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_allclose(
            kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
        )

    def test_first_factor_slow(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(kron(a, b), kron_oracle(a, b))

    def test_mixed_product(self, rng):
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
        a, b, c, d = mats
        lhs = mul_oracle(kron(a, b), kron(c, d))
        rhs = kron(mul_oracle(a, c), mul_oracle(b, d))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_associativity(self, da, db, dc, seed):
        r = np.random.default_rng(seed)
        a, b, c = (r.standard_normal((d, d)) + 1j * r.standard_normal((d, d)) for d in (da, db, dc))
        np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


class TestPartialTrace:
    def test_product_case(self, rng):
        a = random_psd(rng, 2)
        b = random_psd(rng, 3)
        got = partial_trace(kron(a, b), 2, 3, keep="left")
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)

    def test_bell_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        bell = np.outer(phi, phi.conj())
        np.testing.assert_allclose(partial_trace(bell, 2, 2, keep="left"), np.eye(2) / 2, atol=1e-14)

    @pytest.mark.parametrize("keep", ["left", "right"])
    def test_matches_loop_oracle(self, rng, keep):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        np.testing.assert_allclose(
            partial_trace(m, 2, 3, keep=keep), partial_trace_oracle(m, 2, 3, keep), atol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
    def test_preserves_trace(self, dl, dr, seed):
        r = np.random.default_rng(seed)
        d = dl * dr
        m = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        for keep in ("left", "right"):
            assert abs(np.trace(partial_trace(m, dl, dr, keep)) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            partial_trace(np.eye(5), 2, 3, keep="left")


class TestSwapFactors:
    def test_roundtrip_and_oracle(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        swapped = swap_factors(m, 2, 3)
        # loop oracle over composite indices
        expected = np.zeros((6, 6), dtype=complex)
        for i in range(2):
            for r in range(3):
                for j in range(2):
                    for s in range(3):
                        expected[r * 2 + i, s * 2 + j] = m[i * 3 + r, j * 3 + s]
        np.testing.assert_allclose(swapped, expected)
        np.testing.assert_allclose(swap_factors(swapped, 3, 2), m)

    def test_swaps_kron_order(self, rng):
        a = random_psd(rng, 2)
        b = random_psd(rng, 3)
        np.testing.assert_allclose(swap_factors(kron(a, b), 2, 3), kron(b, a), atol=1e-12)
