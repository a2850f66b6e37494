"""Finite-dimensional operator algebras as direct sums of full matrix blocks.

An algebra is described by its block dimensions (d1, ..., dn) and realized
concretely as the block-diagonal matrices inside the full matrix algebra of
dimension d1 + ... + dn.  Elements of a tensor product of two algebras live
on the kron space of the two embeddings and are supported on the kron of the
two block masks (see ``pair_mask``); the tensor blocks are not contiguous
there, which is why composite objects carry the pair of shapes as metadata
instead of a single merged shape, and ``block_index`` gathers them for the
decompositions that run per block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch
from .matcore import BlockIndex


def is_integer(value) -> bool:
    """Whether ``value`` is an integer or a numpy integer, not a bool, a float or a string."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


@dataclass(frozen=True)
class AlgebraShape:
    """Block structure (d1, ..., dn) of a finite-dimensional operator algebra."""

    block_dims: tuple[int, ...]
    total_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(self.block_dims)
        if not all(map(is_integer, dims)):
            raise ShapeMismatch(f"block dimensions must be integers, got {dims!r}")
        dims = tuple(map(operator.index, dims))
        if not dims:
            raise ShapeMismatch("an algebra needs at least one block")
        if any(d < 1 for d in dims):
            raise ShapeMismatch(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "total_dim", sum(dims))

    @property
    def is_irreducible(self) -> bool:
        """Single block: the full matrix algebra."""
        return len(self.block_dims) == 1

    def block_slices(self) -> tuple[slice, ...]:
        """Index ranges of the blocks in the embedding, in declaration order."""
        slices = []
        start = 0
        for d in self.block_dims:
            slices.append(slice(start, start + d))
            start += d
        return tuple(slices)


# Shapes whose support masks and block indices are kept; a process touches only a few.
MASK_CACHE_SIZE = 32


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _masks(shapes: tuple[AlgebraShape, ...]) -> tuple:
    """Read-only support mask of the tensor product of ``shapes`` on the kron
    space, the flat positions of the entries outside it (None for a single
    block, which has none), and the index of its blocks (see
    ``BlockIndex.from_labels`` for when it is None)."""
    # the block of a kron index is the tuple of its factors' blocks, numbered
    # in the same slow-to-fast order
    labels = np.zeros(1, dtype=np.intp)
    for shape in shapes:
        n = len(shape.block_dims)
        labels = (labels[:, None] * n + np.repeat(np.arange(n), shape.block_dims)).ravel()
    mask = labels[:, None] == labels[None, :]
    outside = np.flatnonzero(~mask)
    for arr in (mask, outside):
        arr.setflags(write=False)
    return mask, outside if outside.size else None, BlockIndex.from_labels(labels, outside)


def block_mask(shape: AlgebraShape) -> np.ndarray:
    """Boolean mask of the entries an algebra element may occupy (cached, read-only)."""
    return _masks((shape,))[0]


def pair_mask(shape_a: AlgebraShape, shape_b: AlgebraShape) -> np.ndarray:
    """Support mask of the tensor-product algebra on the kron space (cached, read-only)."""
    return _masks((shape_a, shape_b))[0]


@lru_cache(maxsize=MASK_CACHE_SIZE)
def half_pair_mask(shape_a: AlgebraShape, shape_b: AlgebraShape) -> np.ndarray:
    """0.5 on the support of the tensor-product algebra, 0.0 off it (float64, cached, read-only)."""
    out = 0.5 * pair_mask(shape_a, shape_b)
    out.setflags(write=False)
    return out


def block_index(*shapes: AlgebraShape) -> BlockIndex | None:
    """Block index of the tensor product of ``shapes`` (of one algebra when
    one shape is given) on the kron space, for ``herm_eig`` (cached); None
    for a single block or a dimension below ``matcore.BLOCKWISE_MIN_DIM``."""
    return _masks(shapes)[2]


def support_index(*shapes: AlgebraShape) -> tuple[np.ndarray | None, BlockIndex | None]:
    """The ``outside`` and ``blocks`` that ``matcore.validate_psd`` judges an
    element of the tensor product of ``shapes`` by (cached)."""
    return _masks(shapes)[1:]


@lru_cache(maxsize=MASK_CACHE_SIZE)
def choi_leak_index(shape_in: AlgebraShape, shape_out: AlgebraShape) -> np.ndarray | None:
    """Flat positions, in a channel's (d_in², d_out²) superoperator, of its Choi entries off the
    pair blocks: rows in the input blocks, columns off the output blocks (read-only, or None)."""
    out = np.flatnonzero(np.outer(block_mask(shape_in), ~block_mask(shape_out)))
    out.setflags(write=False)
    return out if out.size else None


def block_projectors(shape: AlgebraShape) -> tuple[np.ndarray, ...]:
    """Embedded orthogonal projectors onto the individual blocks."""
    d = shape.total_dim
    projectors = []
    for sl in shape.block_slices():
        p = np.zeros((d, d), dtype=np.complex128)
        p[sl, sl] = np.eye(sl.stop - sl.start)
        projectors.append(p)
    return tuple(projectors)
