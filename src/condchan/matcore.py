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
* a matrix is judged once, by one routine (``judge``); a constructor certifies its Hermitian
  part positive (``validate_psd``, with a floor on λmin), or ``herm_eig`` decomposes it.  A map
  decomposes a validated object's matrix by ``_valid_eig``, which forms its Hermitian part unjudged;
* a single unit-trace matrix of dimension at most ``SCALAR_MAX_DIM`` is first offered
  to a pass on Python scalars that can only prove it definite (floor 0.0); ``judge``
  decides every matrix it does not prove, so no verdict depends on the pass; a
  certifying channel's Choi form, its output on a state the pass proves definite, and
  a conditional within its bound go unjudged;
* a Hermitian matrix is decomposed once, by ``herm_eig``, and everything the library
  reads off a PSD spectrum is a view of that ``EigenSystem``: the root, the
  generalized inverse root, the support projector and the rank.  The last three, and
  Kraus extraction, keep the eigenvalues above one cutoff, ``CUTOFF_REL`` times the
  largest eigenvalue with the floor ``CUTOFF_FLOOR`` (see ``tolerances``);
* every map that judges, certifies or decomposes an element of an algebra (or tensor
  product of algebras) passes its ``Layout`` (``algebra.layout``).  A reducible layout of
  dimension at least ``BLOCKWISE_MIN_DIM`` groups its blocks, and the element is judged,
  certified and decomposed per block, one stacked solver call per block size, so its
  eigenvectors, and the Kraus operators read off them, are exactly zero outside their
  block.  Within a degenerate eigenspace the basis (and so a Kraus set) may differ from
  the one a whole-matrix decomposition gives; the spanned subspaces do not.  Any other
  layout has no groups, and the element is judged and decomposed whole.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, NoConvergence, ShapeMismatch
from .tolerances import BLOCK_TOL, CUTOFF_FLOOR, CUTOFF_REL, INPUT_TOL, NEGLIGIBLE, _cholesky_floor

# Smallest dimension of a ``Layout`` that groups its blocks.  Below it one solver call
# on the whole matrix costs less than one call per block size plus the
# gather and scatter: on 1-thread OpenBLAS, over the reducible shape pairs
# of dimension 4 to 64, the per-block ``herm_eig`` took 1.0-1.5x the
# whole-matrix time below 16, 0.6-1.5x (median about 0.95x) at 16, and
# 0.2-1.0x from 25 up.  The per-block Cholesky of ``validate_psd`` pays from
# about 32: a Cholesky costs a fraction of an eigh, so the leak scan, gather
# and one call per block size take a larger matrix to repay.  On valid joints
# it took a median 1.17x (0.9-1.7x) the whole-matrix time at 16, 1.05x at 24,
# 0.91x at 32, 0.46x at 64 and 0.1-0.2x at 256; one grouping serves both, at a
# cost of a few µs per matrix at 16-24.
BLOCKWISE_MIN_DIM = 16

# Largest dimension of a single unit-trace matrix that ``validate_psd`` first offers to
# ``_proves_definite``, whose compiled proof took about 1.3, 2.2, 3.6, 5.3, 7.5, 10.7 and 14.5 µs
# on a definite state at d = 2 to 8, and 1.2, 1.4, 1.8, 2.2, 2.5, 3 and 3.5 µs to fail on a pure
# one, against 19-22 µs for the judge and Cholesky at any of them (timeit best of 7×2000, one
# shared Xeon core, 1-thread OpenBLAS).  A pure ``State`` pays both: 1.11-1.16× its cost without
# the pass at d = 6, and 1.2-1.25× at d = 7 and 8.
SCALAR_MAX_DIM = 6
_EPS = float(np.finfo(np.float64).eps)


class BlockGroup(NamedTuple):
    """The n blocks of one size s: where their (n, s, s) stack sits in
    ``Layout.entries`` and their n·s eigenvectors in its columns."""

    n: int
    size: int
    entries: slice
    columns: slice


@dataclass(frozen=True, eq=False)
class Layout:
    """Where the entries of a block-diagonal (D, D) matrix may sit (every array read-only).

    ``mask`` is the support and ``outside`` the flat positions off it (None for one block);
    (m + m†)·``half_mask`` (0.5 on the support, built on first use) pinches exactly.  A
    reducible layout from ``BLOCKWISE_MIN_DIM`` up groups its blocks by size, ascending;
    any other has no ``groups`` and None for the four positions.  ``entries`` lists the
    flat positions of every block entry, group by group, each group as its (n, s, s)
    stack in C order, and ``mirror`` the positions of their transposes.  The eigenvectors
    are laid out compactly first: column c of an (s_max, D) matrix holds the s components
    of the c-th, zero-padded, where the columns follow the groups, then the blocks, then
    each block's solver.  ``compact`` masks the components that exist, and ``scatter``
    gives the flat position of each (in C order) in the (D, D) eigenvector matrix.

    ``mirror`` and ``compact`` pay for themselves: without them, ``herm_eig`` on
    1-thread OpenBLAS went from 0.57-0.77 to 5.9-9.4 ms on (1,)*16 ⊗ (1,)*16, 4.5-4.8
    to 7.1-7.9 ms on (8, 8) ⊗ (8, 8) and 99-118 to 212-241 µs on (1,)*8 ⊗ (1,)*8.
    """

    mask: np.ndarray
    outside: np.ndarray | None
    groups: tuple[BlockGroup, ...] = ()
    entries: np.ndarray | None = None
    mirror: np.ndarray | None = None
    compact: np.ndarray | None = None
    scatter: np.ndarray | None = None

    def __post_init__(self):
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    @cached_property
    def half_mask(self) -> np.ndarray:
        out = 0.5 * self.mask
        out.setflags(write=False)
        return out

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> Layout:
        """The layout of the blocks that ``labels`` (the block 0, 1, ... of each
        embedding index) defines."""
        d = labels.size
        mask = labels[:, None] == labels[None, :]
        outside = np.flatnonzero(~mask)
        if d < BLOCKWISE_MIN_DIM or not outside.size:
            return cls(mask, outside if outside.size else None)
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
        positions = (*map(np.concatenate, (entries, mirror)), compact, target[compact])
        return cls(mask, outside, tuple(groups), *positions)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix, and its PSD views.

    ``eigenvalues`` are real and sorted descending; column ``j`` of
    ``eigenvectors`` is the unit eigenvector paired with ``eigenvalues[j]``.
    Each view raises ``InvariantViolation('positive', -λmin)`` for an eigenvalue
    below -INPUT_TOL, the rule every constructor applies.  ``root`` clips
    eigenvalues in [-INPUT_TOL, 0) to 0; ``inv_root`` and ``support`` keep the
    eigenvalues above ``cutoff``, and ``rank`` counts them.
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

    def _require_above(self) -> None:
        w = self.eigenvalues
        if w.size and w[-1] < -INPUT_TOL:
            raise InvariantViolation(
                "positive", -w[-1], f"minimum eigenvalue {w[-1]:.3e} below -{INPUT_TOL:.3e}"
            )

    def _with_eigenvalues(self, w: np.ndarray) -> np.ndarray:
        v = self.eigenvectors
        return hermitize((v * w) @ v.conj().T)

    def root(self) -> np.ndarray:
        """Unique PSD square root."""
        self._require_above()
        return self._with_eigenvalues(np.sqrt(np.maximum(self.eigenvalues, 0.0)))

    def inv_root(self) -> np.ndarray:
        """Generalized inverse square root: 1/sqrt on the eigenvalues above
        the cutoff, 0 on the rest."""
        self._require_above()
        cutoff, w = self.cutoff, self.eigenvalues
        inv = np.where(w > cutoff, 1.0 / np.sqrt(np.maximum(w, cutoff)), 0.0)
        return self._with_eigenvalues(inv)

    def support(self) -> np.ndarray:
        """Orthogonal projector onto the eigenvectors above the cutoff."""
        self._require_above()
        keep = self.eigenvectors[:, self.kept]
        return hermitize(keep @ keep.conj().T)


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D row-major complex128 array (copies; result is read-only)."""
    arr = np.array(m, dtype=np.complex128, copy=True, order="C")
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


def _as_stack(items) -> np.ndarray:
    """A read-only row-major complex128 copy of an array or a sequence of equal-shape matrices."""
    arr = np.array(items if isinstance(items, np.ndarray) else [*items], np.complex128, order="C")
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


@np.errstate(over="ignore", invalid="ignore")
def projector_deviation(p: np.ndarray) -> float:
    """Largest entry of |p² - p| and |p - p†|, or inf where one is NaN
    (a product overflowed), so that ``not dev <= tol`` rejects; no warnings."""
    devs = (max_abs(p @ p - p), max_abs(p - p.conj().T))
    return math.inf if any(map(math.isnan, devs)) else max(devs)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible component is real positive (a new array).

    Columns with no component above ``NEGLIGIBLE`` times their largest one
    (all zero, or holding NaN or infinity) are left as they are.
    """
    mag = np.abs(vectors)
    if not mag.size:  # the (0, 0) matrix has no column to rotate
        return np.array(vectors, copy=True)
    # Rounded as a per-column loop rounds them, so phases (and documents) stay bit-stable: hypot
    # matches the scalar abs, which np.abs of a complex array may not; each column is scaled by its
    # own broadcast scalar, in one product where all have a pivot on two or more rows (on one row,
    # an in-place product took another numpy kernel and moved the last bit).  Where row 0 holds
    # every pivot, as in an irreducible spectrum's eigenvectors, it is read without a search.
    above = mag > NEGLIGIBLE * mag.max(axis=0)
    if len(mag) > 1 and all(above[0].tolist()):  # Python's all: a fraction of numpy's cost
        pivot, whole = vectors[0], True
    else:
        first, cols = above.argmax(axis=0), np.arange(mag.shape[1])
        found = above[first, cols]  # whether the column has a pivot
        whole = len(mag) > 1 and all(found.tolist())
        if not whole:
            cols = np.flatnonzero(found)
            first = first[cols]
        pivot = vectors[first, cols]
    factor = pivot.conjugate() / np.hypot(pivot.real, pivot.imag)
    if whole:
        return (vectors.T * factor[:, None]).T
    out = np.array(vectors, copy=True)
    out.T[cols] = out.T[cols] * factor[:, None]
    return out


@np.errstate(over="ignore", invalid="ignore")
def judge(stack: np.ndarray, layout: Layout | None, unit_trace=False) -> tuple[list, float]:
    """Judge a (n, d, d) stack (a matrix is a batch of one) and return its
    Hermitian part (m + m†)/2, fresh: the stack, or where ``layout`` groups its blocks
    one (n·k, s, s) stack per group of k blocks of size s; and the largest entry those
    parts leave out (0.0 for the stack).  Judged in order over the whole stack: finite,
    overflow, hermitian, block_support (the entries at the layout's ``outside``, none
    without a layout, against BLOCK_TOL) and, with ``unit_trace``, trace.  With groups
    and a leak within BLOCK_TOL, only the block entries are gathered: such a leak is
    finite and moves |m - m†| by at most 2·BLOCK_TOL < INPUT_TOL.  Warnings are off: a
    Hermitian part that overflows raises ``overflow``."""
    outside = None if layout is None else layout.outside
    leak = 0.0 if outside is None else max_abs(stack.reshape(len(stack), -1).take(outside, axis=1))
    groups = layout.groups if layout is not None and leak <= BLOCK_TOL else ()
    parts, herm, entries, adjoint = _hermitian_part(stack, layout if groups else None)
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
    return parts, leak if groups else 0.0


def _hermitian_part(stack: np.ndarray, layout: Layout | None) -> tuple:
    """The Hermitian part of a (n, d, d) stack on ``layout`` as ``judge`` returns it, then the whole
    part and the two terms it adds: the stack and its adjoint, or their (n, N) block entries."""
    if layout is None or not layout.groups:
        herm = stack + (adjoint := stack.conj().swapaxes(-1, -2))
        herm *= 0.5
        return [herm], herm, stack, adjoint
    flat = stack.reshape(n := len(stack), -1)
    entries, adjoint = flat.take(layout.entries, axis=1), flat.take(layout.mirror, axis=1).conj()
    herm = entries + adjoint
    herm *= 0.5
    parts = [herm[:, g.entries].reshape(n * g.n, g.size, g.size) for g in layout.groups]
    return parts, herm, entries, adjoint


@lru_cache(maxsize=64)
def identity(dim: int) -> np.ndarray:
    """The identity on C^dim (cached, read-only)."""
    return _as_stack(np.eye(dim))


@lru_cache(maxsize=64)
def _tight_shift(size: int, dim: int) -> tuple[np.ndarray, float]:
    """t·I on C^size (read-only), t the shift of ``tolerances._cholesky_floor``, and the floor a
    factor of H + t·I proves for unit-trace dim × dim H: cached, as every validation reads it."""
    shift, floor = _cholesky_floor(size, dim)
    out = np.eye(size, dtype=np.complex128) * shift
    out.setflags(write=False)
    return out, floor


@lru_cache(maxsize=SCALAR_MAX_DIM)
def _scalar_proof(d: int):
    """``_proves_definite`` at dimension d, compiled once from straight-line source (as
    ``dataclasses`` builds ``__init__``): entry p of the (d, d) matrix in the local x{p}, the
    diagonal's real parts in h{j} and entry (j, i) of the Cholesky factor R in r{j}_{i}.  The
    source holds only integers and the reprs of the trace budget INPUT_TOL/4 - 4dε and the
    shift coefficient -2(d+1)dε, and it runs a loop's float operations in that loop's order."""
    n, x, h = range(d), [f"x{p}" for p in range(d * d)], [f"h{j}" for j in range(d)]
    diag = [x[j * d + j] for j in n]
    pairs = [(x[i * d + j], x[j * d + i]) for i in n for j in n[i + 1 :]]
    budget, coefficient = INPUT_TOL / 4 - 4 * d * _EPS, -2 * (d + 1) * d * _EPS
    lines = [
        f"{', '.join(x)}, = flat = m.ravel().tolist()",
        f"if {' or '.join(z + '.imag' for z in diag)}: return False",
        f"{', '.join(h)}, = {', '.join(z + '.real' for z in diag)},",
        f"if not ({' and '.join(f'isfinite(2 * {v})' for v in h)}): return False",
        # a chain: sum() of floats is compensated from Python 3.12
        f"if not abs({' + '.join(['0.0', *h])} - 1.0) <= {budget!r}: return False",
        f"shift = {coefficient!r} * max([{', '.join(h)}])",
    ]
    # R†R = H - μ·I + E, ‖E‖₂ ≤ γ_{2d+2}·‖R‖²_F ≲ (d+1)·ε·d·top (Higham 10.3, §3.6); μ is twice
    # that, so a factor proves λmin(H) > 0.  R reads m's upper triangle, H's once the tests after
    # it pass; it raises on no input (root > 0), so a pure state fails early, at the same verdict.
    for j in n:  # row j of R from the column above its diagonal
        column = [f"r{k}_{j}" for k in range(j)]
        norm = "".join(f" - ({r}.real * {r}.real + {r}.imag * {r}.imag)" for r in column)
        lines += [f"pivot = h{j} + shift{norm}", "if not pivot > 0.0: return False"]
        lines.append("root = sqrt(pivot)")
        for i in n[j + 1 :]:
            dots = "".join(f" - {r}.conjugate() * r{k}_{i}" for k, r in enumerate(column))
            lines.append(f"r{j}_{i} = ({x[j * d + i]}{dots}) / root")
    lines += [  # exactly Hermitian, so its own Hermitian part: x == x̄ with x + x finite
        *(f"if {z} != {w}.conjugate() or not cisfinite({z} + {z}): return False"
          for z, w in pairs),
        "if outside is not None and any(map(flat.__getitem__, outside.tolist())): return False",
    ]
    scope = {"isfinite": math.isfinite, "cisfinite": cmath.isfinite, "sqrt": math.sqrt}
    exec("\n ".join(["def proof(m, outside):", *lines, "return True"]), scope)
    return scope["proof"]


def _proves_definite(m: np.ndarray, outside: np.ndarray | None) -> bool:
    """Whether one unit-trace (d, d) matrix is proved definite on Python complex
    scalars: exactly Hermitian with a finite Hermitian part (so a real diagonal),
    exactly 0 at the flat positions ``outside``, of trace within INPUT_TOL/4 of 1
    with a margin of 4dε for numpy's summation order, and H - μ·I has a Cholesky
    factor.  Then ``judge`` accepts it and λmin(H) > 0.  False proves nothing."""
    return _scalar_proof(len(m))(m, outside)


def validate_psd(stack: np.ndarray, layout: Layout, unit_trace=False) -> float:
    """``judge`` a (n, d, d) stack on ``layout``, then certify each Hermitian part + t·I positive
    definite by one stacked Cholesky, per block where it groups them (a block-diagonal matrix is positive exactly
    when each block is), t the shift of ``tolerances._cholesky_floor`` (Rump, "Verification of
    positive definiteness", BIT 46, 2006; Higham, *Accuracy and Stability*, ch. 10).  A PSD state,
    conditional or POVM element has diagonal ≤ 1, so it factors.  A stack that does not pays one
    ``eigvalsh`` of the whole stack, whose lowest eigenvalue decides against -INPUT_TOL and is the
    deviation of ``InvariantViolation('positive')``.  A single unit-trace matrix of dimension at
    most ``SCALAR_MAX_DIM`` is first offered to ``_proves_definite``; what it does not prove, the
    judge decides.  Returns a floor, λmin ≥ -floor over the whole Hermitian part: 0.0 where the
    scalar pass proved it definite; for a unit-trace stack that factors, the floor of
    ``_cholesky_floor`` plus d·(leak the blocks left out); else inf."""
    small = unit_trace and len(stack) == 1 and 0 < stack.shape[-1] <= SCALAR_MAX_DIM
    if small and _proves_definite(stack[0], layout.outside):
        return 0.0
    parts, leak = judge(stack, layout, unit_trace)
    dim = stack.shape[-1]
    try:  # block groups grow in size, and so does their floor: the last is the largest
        for herm in parts:
            shift, floor = _tight_shift(herm.shape[-1], dim)
            herm += shift
            np.linalg.cholesky(herm)
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(hermitize(stack)).min())
        if not low >= -INPUT_TOL:
            raise InvariantViolation("positive", -low) from None
        return math.inf
    return floor + dim * leak if unit_trace else math.inf


def herm_eig(m, layout: Layout | None = None) -> EigenSystem:
    """Full spectral decomposition of a square matrix that is Hermitian
    within ``INPUT_TOL`` (max entry of |m - m†|), the library's one spectral
    routine: the matrix is judged and symmetrized first, so floating-point drift
    cannot leak into spectra.  Where ``layout`` groups its blocks it is judged on them
    and decomposed per block, one stacked ``eigh`` per block size, and each
    eigenvector is exactly zero outside its block; else it is decomposed whole.  Exactly tied eigenvalues keep ``eigh``'s order.

    Raises
    ------
    ShapeMismatch
        If the matrix is not square, or does not fit ``layout``.
    InvariantViolation
        From ``judge``: ``finite``, if an entry is NaN or infinite;
        ``overflow``, if the Hermitian part overflows; ``hermitian``, if the
        Hermiticity deviation exceeds ``INPUT_TOL``; ``block_support``, if
        ``layout`` groups its blocks and an entry off them exceeds ``BLOCK_TOL``.
    NoConvergence
        If the underlying iterative solver fails.
    """
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeMismatch(f"eigendecomposition needs a square matrix, got {arr.shape}")
    if layout is not None and arr.shape != layout.mask.shape:
        raise ShapeMismatch(f"matrix shape {arr.shape} does not fit its layout")
    grouped = layout if layout is not None and layout.groups else None
    return _valid_eig(arr, grouped, judge(arr[None], grouped)[0])


def _valid_eig(m: np.ndarray, layout: Layout | None, parts: list | None = None) -> EigenSystem:
    """``herm_eig(m, layout)`` of a matrix that passed the judge: from the ``parts`` it returned, or
    (a validated object's matrix) from its Hermitian part, formed as ``judge`` forms it, unjudged."""
    parts = parts or _hermitian_part(m[None], layout)[0]
    groups = () if layout is None else layout.groups
    try:
        solved = [np.linalg.eigh(part if groups else part[0]) for part in parts]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    if not groups:
        w, v = solved[0]
        v = _fix_phases(v)
    else:
        w = np.concatenate([pw.ravel() for pw, _ in solved])
        compact = np.zeros(layout.compact.shape, dtype=np.complex128)
        for group, (_, pv) in zip(groups, solved):
            compact[: group.size, group.columns] = pv.transpose(1, 0, 2).reshape(group.size, -1)
        v = np.zeros((w.size, w.size), dtype=np.complex128)
        v.ravel()[layout.scatter] = _fix_phases(compact)[layout.compact]
    # no tie: reversed, column-major as indexed (on floats: 1 µs less when small, 4 µs more at 64)
    if not groups and all(map(float.__lt__, ws := w.tolist(), ws[1:])):
        return EigenSystem(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy(order="F"))
    order = np.argsort(-w, kind="stable")  # tied eigenvectors keep eigh's order
    return EigenSystem(eigenvalues=w[order], eigenvectors=v[:, order])


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
