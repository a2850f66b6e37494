"""Dense complex-matrix primitives used by every higher layer.

Conventions fixed here once and relied on project-wide:

* matrices are 2-D ``numpy.ndarray`` of complex128 in row-major order;
* ``kron(a, b)`` places the FIRST factor on the slow (outer) index, so a
  composite index reads ``i_a * dim_b + i_b``; hence a bipartite matrix has
  the 4-index view ``t[i_a, i_b, j_a, j_b] = m.reshape(da, db, da, db)``,
  and every local operator product, partial trace or sandwich is a
  contraction of ``t`` rather than a product with a materialized ``kron``;
* eigenvalues are returned in descending order, with each eigenvector's
  phase fixed so that its first nonzero component is real and positive;
* a matrix is judged once, by one routine (``judge``); a constructor certifies
  its Hermitian part positive (``validate_psd``), or ``herm_eig`` decomposes it;
* a Hermitian matrix is decomposed once, by ``herm_eig``, and everything the
  library reads off a PSD spectrum is a view of that ``EigenSystem``: the
  root, the generalized inverse root, the support projector and the rank.
  The last three, and Kraus extraction, keep the eigenvalues above one
  cutoff, ``CUTOFF_REL`` times the largest eigenvalue with the floor
  ``CUTOFF_FLOOR`` (see ``tolerances``);
* a matrix of a reducible algebra (or tensor product of algebras) of
  dimension at least ``BLOCKWISE_MIN_DIM`` is judged, certified and
  decomposed per block, by its ``BlockIndex`` (``algebra.block_index``), with
  one stacked solver call per distinct block size, so its eigenvectors, and
  the Kraus operators read off them, are exactly zero outside their block.
  Within a degenerate eigenspace the basis (and so a Kraus set) may differ
  from the one a whole-matrix decomposition gives; the spanned subspaces do
  not.  A smaller matrix has no index and is judged and decomposed whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, NoConvergence, ShapeMismatch
from .tolerances import BLOCK_TOL, CUTOFF_FLOOR, CUTOFF_REL, INPUT_TOL, NEGLIGIBLE

# Smallest matrix dimension given a block index.  Below it one solver call
# on the whole matrix costs less than one call per block size plus the
# gather and scatter: on 1-thread OpenBLAS, over the reducible shape pairs
# of dimension 4 to 64, the per-block ``herm_eig`` took 1.0-1.5x the
# whole-matrix time below 16, 0.6-1.5x (median about 0.95x) at 16, and
# 0.2-1.0x from 25 up.  The per-block Cholesky of ``validate_psd`` pays from
# about 32: a Cholesky costs a fraction of an eigh, so the leak scan, gather
# and one call per block size take a larger matrix to repay.  On valid joints
# it took a median 1.17x (0.9-1.7x) the whole-matrix time at 16, 1.05x at 24,
# 0.91x at 32, 0.46x at 64 and 0.1-0.2x at 256; one index serves both, at a
# cost of a few µs per matrix at 16-24.
BLOCKWISE_MIN_DIM = 16


class BlockGroup(NamedTuple):
    """The n blocks of one size s: where their (n, s, s) stack sits in
    ``BlockIndex.entries`` and their n·s eigenvectors in its columns."""

    n: int
    size: int
    entries: slice
    columns: slice


@dataclass(frozen=True, eq=False)
class BlockIndex:
    """Where the blocks of a block-diagonal (D, D) matrix sit.

    The blocks are grouped by size, ascending.  ``entries`` lists the flat
    positions of every block entry, group by group, each group as its
    (n, s, s) stack in C order, and ``mirror`` the positions of their
    transposes, and ``outside`` the positions of the entries outside every
    block.

    The eigenvectors are laid out compactly first: column c of an (s_max, D)
    matrix holds the s components of the c-th, zero-padded, where the
    columns follow the groups, then the blocks, then each block's solver.
    ``compact`` masks the components that exist, and ``scatter`` gives the
    flat position of each (in C order) in the (D, D) eigenvector matrix.

    ``mirror`` and ``compact`` pay for themselves: without them, ``herm_eig`` on
    1-thread OpenBLAS went from 0.57-0.77 to 5.9-9.4 ms on (1,)*16 ⊗ (1,)*16, 4.5-4.8
    to 7.1-7.9 ms on (8, 8) ⊗ (8, 8) and 99-118 to 212-241 µs on (1,)*8 ⊗ (1,)*8.
    """

    groups: tuple[BlockGroup, ...]
    entries: np.ndarray
    mirror: np.ndarray
    outside: np.ndarray
    compact: np.ndarray
    scatter: np.ndarray

    @classmethod
    def from_labels(cls, labels: np.ndarray, outside: np.ndarray | None) -> BlockIndex | None:
        """Index of the blocks that ``labels`` (the block 0, 1, ... of each
        embedding index) defines, with ``outside`` its read-only off-block
        positions; None for a single block or a dimension below
        ``BLOCKWISE_MIN_DIM``, so that the matrix is judged and decomposed
        whole."""
        d = labels.size
        if d < BLOCKWISE_MIN_DIM or not labels.any():
            return None
        sets = [np.flatnonzero(labels == k) for k in range(int(labels.max()) + 1)]
        sizes = sorted({len(idx) for idx in sets})
        compact = np.zeros((sizes[-1], d), dtype=bool)
        target = np.zeros((sizes[-1], d), dtype=np.intp)
        groups, entries, mirror, start, col = [], [], [], 0, 0
        for size in sizes:
            idx = np.array([ix for ix in sets if len(ix) == size])
            n = len(idx)
            cols = slice(col, col + n * size)
            groups.append(BlockGroup(n, size, slice(start, start + n * size * size), cols))
            entries.append((idx[:, :, None] * d + idx[:, None, :]).ravel())
            mirror.append((idx[:, None, :] * d + idx[:, :, None]).ravel())
            # component i of the eigenvector in column b·s + k of the group
            # sits in row idx[b, i]
            compact[:size, cols] = True
            target[:size, cols] = np.repeat(idx.T * d, size, axis=1) + np.arange(d)[cols]
            start, col = start + n * size * size, col + n * size
        arrays = (*map(np.concatenate, (entries, mirror)), outside, compact, target[compact])
        for arr in arrays:
            arr.setflags(write=False)
        return cls(tuple(groups), *arrays)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix, and its PSD views.

    ``eigenvalues`` are real and sorted descending; column ``j`` of
    ``eigenvectors`` is the unit eigenvector paired with ``eigenvalues[j]``.
    ``root`` clips eigenvalues in [-INPUT_TOL, 0) to 0; ``inv_root``
    and ``support`` keep the eigenvalues above ``cutoff`` and raise
    ``InvariantViolation('positive', -λmin)`` for one below -``cutoff``, and
    ``rank`` counts them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def cutoff(self) -> float:
        """Support cutoff: CUTOFF_REL times the largest eigenvalue, at least
        CUTOFF_FLOOR."""
        w = self.eigenvalues
        top = float(w[0]) if w.size else 0.0
        return max(CUTOFF_REL * max(top, 0.0), CUTOFF_FLOOR)

    @property
    def kept(self) -> np.ndarray:
        """Mask of the eigenvalues above the cutoff."""
        return self.eigenvalues > self.cutoff

    @property
    def rank(self) -> int:
        """Number of eigenvalues above the cutoff."""
        return int(np.count_nonzero(self.kept))

    def _require_above(self, floor: float) -> None:
        w = self.eigenvalues
        if w.size and w[-1] < -floor:
            raise InvariantViolation(
                "positive", -w[-1], f"minimum eigenvalue {w[-1]:.3e} below -{floor:.3e}"
            )

    def _with_eigenvalues(self, w: np.ndarray) -> np.ndarray:
        v = self.eigenvectors
        return hermitize((v * w) @ v.conj().T)

    def root(self) -> np.ndarray:
        """Unique PSD square root."""
        self._require_above(INPUT_TOL)
        return self._with_eigenvalues(np.sqrt(np.maximum(self.eigenvalues, 0.0)))

    def inv_root(self) -> np.ndarray:
        """Generalized inverse square root: 1/sqrt on the eigenvalues above
        the cutoff, 0 on the rest."""
        cutoff = self.cutoff
        self._require_above(cutoff)
        w = self.eigenvalues
        inv = np.where(w > cutoff, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)
        return self._with_eigenvalues(inv)

    def support(self) -> np.ndarray:
        """Orthogonal projector onto the eigenvectors above the cutoff."""
        self._require_above(self.cutoff)
        keep = self.eigenvectors[:, self.kept]
        if keep.shape[1] == 0:
            d = self.eigenvectors.shape[0]
            return np.zeros((d, d), dtype=np.complex128)
        return hermitize(keep @ keep.conj().T)


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D row-major complex128 array (copies; result is read-only)."""
    arr = np.array(m, dtype=np.complex128, copy=True, order="C")
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m†)/2 of a matrix or of each matrix in
    a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude (0 for empty input)."""
    arr = np.asarray(m)
    return float(np.abs(arr).max()) if arr.size else 0.0


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible component is real positive.

    Columns with no component above ``NEGLIGIBLE`` times their largest one
    (all zero, or holding NaN or infinity) are left as they are.
    """
    out = np.array(vectors, copy=True)
    if not out.size:  # the (0, 0) matrix has no column to rotate
        return out
    mag = np.abs(out)
    above = mag > NEGLIGIBLE * mag.max(axis=0)
    first = above.argmax(axis=0)
    cols = np.flatnonzero(above[first, np.arange(out.shape[1])])
    pivot = out[first[cols], cols]
    # Rounded as a per-column loop rounds them, so phases (and documents) stay
    # bit-stable: hypot matches the scalar abs, which np.abs of a complex array
    # may not, and each column is scaled by its own broadcast scalar.
    factor = pivot.conjugate() / np.hypot(pivot.real, pivot.imag)
    out.T[cols] = out.T[cols] * factor[:, None]
    return out


@np.errstate(over="ignore", invalid="ignore")
def judge(
    stack: np.ndarray, outside: np.ndarray | None, blocks: BlockIndex | None, unit_trace=False
) -> list[np.ndarray]:
    """Judge a (n, d, d) stack (a matrix is a batch of one) and return its
    Hermitian part (m + m†)/2, fresh: the stack, or with ``blocks`` one
    (n·k, s, s) stack per group of k blocks of size s.  Judged in order over
    the whole stack: finite, overflow, hermitian, block_support (the entries
    at the flat positions ``outside``, None for one block, against BLOCK_TOL)
    and, with ``unit_trace``, trace.  With ``blocks`` and a leak within
    BLOCK_TOL, only the block entries are gathered: such a leak is finite and
    moves |m - m†| by at most 2·BLOCK_TOL < INPUT_TOL.  Warnings are off: a
    Hermitian part that overflows raises ``overflow``."""
    n = len(stack)
    flat = stack.reshape(n, -1)
    leak = 0.0 if outside is None else max_abs(flat.take(outside, axis=1))
    if blocks is not None and leak <= BLOCK_TOL:
        entries = flat.take(blocks.entries, axis=1)
        adjoint = flat.take(blocks.mirror, axis=1).conj()
    else:
        blocks, entries, adjoint = None, stack, stack.conj().swapaxes(-1, -2)
    herm = entries + adjoint
    herm *= 0.5
    if not np.isfinite(herm).all():
        if not np.isfinite(entries).all():
            raise InvariantViolation("finite", np.inf, "matrix has non-finite entries")
        raise InvariantViolation("overflow", np.inf)
    dev = max_abs(entries - adjoint)
    if dev > INPUT_TOL:
        raise InvariantViolation("hermitian", dev)
    if not leak <= BLOCK_TOL:
        raise InvariantViolation("block_support", leak)
    if unit_trace:
        traces = stack.trace(axis1=1, axis2=2).tolist()
        trace_dev = max(abs(t.real - 1.0) + abs(t.imag) for t in traces)
        if not trace_dev <= INPUT_TOL:
            raise InvariantViolation("trace", trace_dev)
    if blocks is None:
        return [herm]
    return [herm[:, g.entries].reshape(n * g.n, g.size, g.size) for g in blocks.groups]


@lru_cache(maxsize=32)
def _tol_identity(d: int) -> np.ndarray:
    """INPUT_TOL·I on C^d (cached, read-only): adding it shifts a diagonal in one step."""
    out = np.eye(d, dtype=np.complex128) * INPUT_TOL
    out.setflags(write=False)
    return out


def validate_psd(
    stack: np.ndarray, outside: np.ndarray | None, blocks: BlockIndex | None, unit_trace=False
) -> None:
    """``judge`` a (n, d, d) stack, then certify each Hermitian part + INPUT_TOL·I
    positive definite by one stacked Cholesky, a backward-stable certificate
    that every λmin ≥ -INPUT_TOL (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 10); per block with ``blocks``, as a block-diagonal
    matrix is positive exactly when each block is.  Only a failed certificate
    pays an ``eigvalsh`` of the whole stack, whose lowest eigenvalue decides
    and is the deviation of ``InvariantViolation('positive')``."""
    parts = judge(stack, outside, blocks, unit_trace)
    try:
        for herm in parts:
            herm += _tol_identity(herm.shape[-1])
            np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(hermitize(stack)).min())
        if not low >= -INPUT_TOL:
            raise InvariantViolation("positive", -low) from None


def _solved(solver, m, blocks: BlockIndex | None) -> list:
    """``judge`` one square matrix, then run ``solver`` on its Hermitian part,
    or with ``blocks`` on each group's stack."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeMismatch(f"eigendecomposition needs a square matrix, got {arr.shape}")
    if blocks is None:
        parts = [judge(arr[None], None, None)[0][0]]
    elif arr.shape[0] != blocks.compact.shape[1]:
        raise ShapeMismatch(f"matrix shape {arr.shape} does not fit its block index")
    else:
        parts = judge(arr[None], blocks.outside, blocks)
    try:
        return [solver(part) for part in parts]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def herm_eig(m, blocks: BlockIndex | None = None) -> EigenSystem:
    """Full spectral decomposition of a square matrix that is Hermitian
    within ``INPUT_TOL`` (max entry of |m - m†|); the matrix is
    symmetrized first, so floating-point drift cannot leak into spectra.
    With ``blocks`` it is decomposed per block, one stacked ``eigh`` per
    block size, and each eigenvector is exactly zero outside its block.

    Raises
    ------
    InvariantViolation
        From ``judge``: ``finite``, if an entry is NaN or infinite;
        ``overflow``, if the Hermitian part overflows; ``hermitian``, if the
        Hermiticity deviation exceeds ``INPUT_TOL``; ``block_support``, if
        ``blocks`` is given and an entry outside them exceeds ``BLOCK_TOL``.
    NoConvergence
        If the underlying iterative solver fails.
    """
    solved = _solved(np.linalg.eigh, m, blocks)
    if blocks is None:
        w, v = solved[0]
        v = _fix_phases(v)
    else:
        w = np.concatenate([pw.ravel() for pw, _ in solved])
        compact = np.zeros(blocks.compact.shape, dtype=np.complex128)
        for group, (_, pv) in zip(blocks.groups, solved):
            compact[: group.size, group.columns] = pv.transpose(1, 0, 2).reshape(group.size, -1)
        v = np.zeros((w.size, w.size), dtype=np.complex128)
        v.ravel()[blocks.scatter] = _fix_phases(compact)[blocks.compact]
    order = np.argsort(-w, kind="stable")
    return EigenSystem(eigenvalues=w[order], eigenvectors=v[:, order])


def herm_eigvals(m, blocks: BlockIndex | None = None) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending, from one
    ``eigvalsh`` call (one per block size with ``blocks``): ``herm_eig``
    without the eigenvectors, with the same checks and errors."""
    parts = _solved(np.linalg.eigvalsh, m, blocks)
    if blocks is None:
        return parts[0][::-1]
    return np.sort(np.concatenate([w.ravel() for w in parts]))[::-1]


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor on the slow (outer) index."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def _check_bipartite(m: np.ndarray, dim_left: int, dim_right: int) -> None:
    total = dim_left * dim_right
    if m.shape != (total, total):
        raise ShapeMismatch(
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
    raise ShapeMismatch(f"keep must be 'left' or 'right', got {keep!r}")


def swap_factors(m, dim_left: int, dim_right: int) -> np.ndarray:
    """Exchange the two kron factors of a bipartite matrix."""
    arr = np.asarray(m, dtype=np.complex128)
    _check_bipartite(arr, dim_left, dim_right)
    t = arr.reshape(dim_left, dim_right, dim_left, dim_right)
    return t.transpose(1, 0, 3, 2).reshape(dim_right * dim_left, dim_right * dim_left)
