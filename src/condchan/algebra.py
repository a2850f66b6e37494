"""Finite-dimensional operator algebras as direct sums of full matrix blocks.

An algebra is described by its block dimensions (d1, ..., dn) and realized
concretely as the block-diagonal matrices inside the full matrix algebra of
dimension d1 + ... + dn.  Elements of a tensor product of two algebras live
on the kron space of the two embeddings and are supported on the kron of the
two block masks; the tensor blocks are not contiguous there, which is why
composite objects carry the pair of shapes as metadata instead of a single
merged shape.  ``layout`` describes, once per tuple of shapes, where an element's
entries may sit and how the decompositions that run per block gather them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch
from .matcore import Layout


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


# Shape tuples whose layouts are kept; a process touches only a few.
LAYOUT_CACHE_SIZE = 32


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def layout(*shapes: AlgebraShape) -> Layout:
    """The layout of the tensor product of ``shapes`` (of one algebra when one
    shape is given) on the kron space (cached)."""
    # the block of a kron index is the tuple of its factors' blocks, numbered
    # in the same slow-to-fast order
    labels = np.zeros(1, dtype=np.intp)
    for shape in shapes:
        n = len(shape.block_dims)
        labels = (labels[:, None] * n + np.repeat(np.arange(n), shape.block_dims)).ravel()
    return Layout.from_labels(labels)


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def choi_leak_index(shape_in: AlgebraShape, shape_out: AlgebraShape) -> np.ndarray | None:
    """Flat positions, in a channel's (d_in², d_out²) superoperator, of its Choi entries off the
    pair blocks: rows in the input blocks, columns off the output blocks (read-only, or None)."""
    out = np.flatnonzero(np.outer(layout(shape_in).mask, ~layout(shape_out).mask))
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
