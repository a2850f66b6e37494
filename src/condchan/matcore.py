"""Dense complex-matrix primitives used by every higher layer.

Conventions fixed here once and relied on project-wide:

* matrices are 2-D ``numpy.ndarray`` of complex128 in row-major order;
* ``kron(a, b)`` places the FIRST factor on the slow (outer) index, so a
  composite index reads ``i_a * dim_b + i_b``; hence a bipartite matrix has
  the 4-index view ``t[i_a, i_b, j_a, j_b] = m.reshape(da, db, da, db)``,
  and every local operator product, partial trace or sandwich is a
  contraction of ``t`` rather than a product with a materialized ``kron``;
* eigenvalues are returned in descending order, with each eigenvector's
  phase fixed so that its first nonzero component is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPositive

# Relative eigenvalue cutoff for support/rank decisions, scaled by the largest
# eigenvalue; the absolute floor guards the all-zero matrix.
DEFAULT_RANK_TOL = 1e-10
RANK_TOL_FLOOR = 1e-14

DEFAULT_HERM_TOL = 1e-10
# Phase fixing treats components below this relative magnitude as zero.
PHASE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; column ``j`` of
    ``eigenvectors`` is the unit eigenvector paired with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return V @ diag(w) @ V†."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D row-major complex128 array (copies; result is read-only)."""
    arr = np.array(m, dtype=np.complex128, copy=True, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m†)/2."""
    return (m + m.conj().T) / 2


def herm_deviation(m: np.ndarray) -> float:
    """Largest entry of |m - m†|."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (0 for empty input)."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible component is real positive."""
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        scale = np.max(np.abs(col))
        if scale == 0.0:
            continue
        nz = np.flatnonzero(np.abs(col) > PHASE_TOL * scale)
        if nz.size == 0:
            continue
        pivot = col[nz[0]]
        out[:, j] = col * (pivot.conjugate() / abs(pivot))
    return out


def herm_eig(m, tol: float = DEFAULT_HERM_TOL) -> EigenSystem:
    """Full spectral decomposition of a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian within ``tol`` (max entry of |m - m†|).
    tol : float
        Hermiticity tolerance; the matrix is symmetrized before
        decomposition so floating-point drift cannot leak into spectra.

    Raises
    ------
    NotHermitian
        If the Hermiticity deviation exceeds ``tol``.
    NoConvergence
        If the underlying iterative solver fails.
    """
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"eigendecomposition needs a square matrix, got {arr.shape}")
    dev = herm_deviation(arr)
    if dev > tol:
        raise NotHermitian(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.3e})")
    try:
        w, v = np.linalg.eigh(hermitize(arr))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    return EigenSystem(eigenvalues=w[order], eigenvectors=_fix_phases(v[:, order]))


def mat_sqrt(p, tol: float = DEFAULT_HERM_TOL) -> np.ndarray:
    """Unique PSD square root of a PSD matrix.

    Eigenvalues in [-tol, 0) are clipped to 0; anything below -tol raises
    ``NotPositive``.
    """
    es = herm_eig(p, tol=tol)
    w = es.eigenvalues
    if w.size and w[-1] < -tol:
        raise NotPositive(f"minimum eigenvalue {w[-1]:.3e} below -{tol:.3e}")
    root = np.sqrt(np.maximum(w, 0.0))
    v = es.eigenvectors
    return hermitize((v * root) @ v.conj().T)


def _support_cutoff(eigenvalues: np.ndarray, rank_tol: float) -> float:
    top = float(eigenvalues[0]) if eigenvalues.size else 0.0
    return max(rank_tol * max(top, 0.0), RANK_TOL_FLOOR)


def gen_inv_sqrt(p, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Generalized inverse square root: eigenvalues above the relative cutoff
    map to 1/sqrt, the rest to 0, eigenvectors preserved."""
    es = herm_eig(p)
    w = es.eigenvalues
    cutoff = _support_cutoff(w, rank_tol)
    if w.size and w[-1] < -cutoff:
        raise NotPositive(f"minimum eigenvalue {w[-1]:.3e} below -{cutoff:.3e}")
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)
    v = es.eigenvectors
    return hermitize((v * inv) @ v.conj().T)


def support_projector(p, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors above the cutoff."""
    es = herm_eig(p)
    w = es.eigenvalues
    cutoff = _support_cutoff(w, rank_tol)
    if w.size and w[-1] < -cutoff:
        raise NotPositive(f"minimum eigenvalue {w[-1]:.3e} below -{cutoff:.3e}")
    keep = es.eigenvectors[:, w > cutoff]
    d = es.eigenvectors.shape[0]
    if keep.shape[1] == 0:
        return np.zeros((d, d), dtype=np.complex128)
    return hermitize(keep @ keep.conj().T)


def matrix_rank_psd(p, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of eigenvalues above the relative support cutoff."""
    es = herm_eig(p)
    cutoff = _support_cutoff(es.eigenvalues, rank_tol)
    return int(np.count_nonzero(es.eigenvalues > cutoff))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the slow (outer) index."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def _check_bipartite(m: np.ndarray, dim_left: int, dim_right: int) -> None:
    total = dim_left * dim_right
    if m.shape != (total, total):
        raise DimensionMismatch(
            f"matrix shape {m.shape} incompatible with factors {dim_left}x{dim_right}"
        )


def partial_trace(m, dim_left: int, dim_right: int, keep: str) -> np.ndarray:
    """Trace out one factor of a bipartite matrix in the kron ordering above.

    ``keep`` is ``"left"`` or ``"right"``; the other factor is traced out.
    The trace of the output equals the trace of the input.
    """
    arr = np.asarray(m, dtype=np.complex128)
    _check_bipartite(arr, dim_left, dim_right)
    t = arr.reshape(dim_left, dim_right, dim_left, dim_right)
    if keep == "left":
        return np.einsum("irjr->ij", t)
    if keep == "right":
        return np.einsum("iris->rs", t)
    raise DimensionMismatch(f"keep must be 'left' or 'right', got {keep!r}")


def swap_factors(m, dim_left: int, dim_right: int) -> np.ndarray:
    """Exchange the two kron factors of a bipartite matrix."""
    arr = np.asarray(m, dtype=np.complex128)
    _check_bipartite(arr, dim_left, dim_right)
    t = arr.reshape(dim_left, dim_right, dim_left, dim_right)
    return t.transpose(1, 0, 3, 2).reshape(dim_right * dim_left, dim_right * dim_left)
