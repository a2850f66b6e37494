"""Finite-dimensional operator algebras as direct sums of full matrix blocks.

An algebra is described by its block dimensions (d1, ..., dn) and realized
concretely as the block-diagonal matrices inside the full matrix algebra of
dimension d1 + ... + dn.  Elements of a tensor product of two algebras live
on the kron space of the two embeddings and are supported on the kron of the
two block masks (see ``pair_mask``); the tensor blocks are not contiguous
there, which is why composite objects carry the pair of shapes as metadata
instead of a single merged shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .matcore import as_matrix, max_abs


@dataclass(frozen=True)
class AlgebraShape:
    """Block structure (d1, ..., dn) of a finite-dimensional operator algebra."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if not dims:
            raise DimensionMismatch("an algebra needs at least one block")
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def is_classical(self) -> bool:
        """All blocks one-dimensional (commutative / diagonal algebra)."""
        return all(d == 1 for d in self.block_dims)

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


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An algebra element stored block by block."""

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(as_matrix(b) for b in self.blocks)
        if len(blocks) != len(self.shape.block_dims):
            raise DimensionMismatch(
                f"expected {len(self.shape.block_dims)} blocks, got {len(blocks)}"
            )
        for b, d in zip(blocks, self.shape.block_dims):
            if b.shape != (d, d):
                raise DimensionMismatch(f"block of shape {b.shape} does not fit dimension {d}")
        object.__setattr__(self, "blocks", blocks)


def embed(e: AlgebraElement) -> np.ndarray:
    """Place the blocks on the diagonal of a total_dim x total_dim matrix."""
    d = e.shape.total_dim
    out = np.zeros((d, d), dtype=np.complex128)
    for block, sl in zip(e.blocks, e.shape.block_slices()):
        out[sl, sl] = block
    return out


# Shapes whose support masks are kept; a process touches only a few.
MASK_CACHE_SIZE = 32


@lru_cache(maxsize=MASK_CACHE_SIZE)
def _masks(shapes: tuple[AlgebraShape, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only support mask of the tensor product of ``shapes`` on the kron
    space, and its complement (the off-block entries)."""
    mask = np.ones((1, 1), dtype=bool)
    for shape in shapes:
        labels = np.repeat(np.arange(len(shape.block_dims)), shape.block_dims)
        mask = np.kron(mask, labels[:, None] == labels[None, :])
    off = ~mask
    mask.setflags(write=False)
    off.setflags(write=False)
    return mask, off


def block_mask(shape: AlgebraShape) -> np.ndarray:
    """Boolean mask of the entries an algebra element may occupy (cached, read-only)."""
    return _masks((shape,))[0]


def pair_mask(shape_a: AlgebraShape, shape_b: AlgebraShape) -> np.ndarray:
    """Support mask of the tensor-product algebra on the kron space (cached, read-only)."""
    return _masks((shape_a, shape_b))[0]


def project_matrix(m, shape: AlgebraShape) -> np.ndarray:
    """Pinch onto the block diagonal: sum of P_j m P_j over block projectors.

    Equivalent to zeroing every off-block entry.
    """
    arr = np.asarray(m, dtype=np.complex128)
    d = shape.total_dim
    if arr.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {arr.shape} does not match total dim {d}")
    return arr * block_mask(shape)


def project(m, shape: AlgebraShape) -> AlgebraElement:
    """Project a full matrix onto the algebra and return it block by block."""
    arr = np.asarray(m, dtype=np.complex128)
    d = shape.total_dim
    if arr.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {arr.shape} does not match total dim {d}")
    blocks = tuple(arr[sl, sl] for sl in shape.block_slices())
    return AlgebraElement(shape=shape, blocks=blocks)


def project_pair(m, shape_a: AlgebraShape, shape_b: AlgebraShape) -> np.ndarray:
    """Pinch a kron-space matrix onto the tensor-product algebra."""
    arr = np.asarray(m, dtype=np.complex128)
    d = shape_a.total_dim * shape_b.total_dim
    if arr.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {arr.shape} does not match kron dim {d}")
    return arr * pair_mask(shape_a, shape_b)


def _off_support_deviation(m, off: np.ndarray) -> float:
    arr = np.asarray(m)
    if arr.shape[-2:] != off.shape:
        raise DimensionMismatch(f"matrix shape {arr.shape} does not match support {off.shape}")
    return max_abs(arr[..., off])


def block_support_deviation(m, shape: AlgebraShape) -> float:
    """Largest entry of m (or of a stack of matrices) outside the algebra's
    block support."""
    return _off_support_deviation(m, _masks((shape,))[1])


def pair_support_deviation(m, shape_a: AlgebraShape, shape_b: AlgebraShape) -> float:
    """Largest entry of m (or of a stack of matrices) outside the
    tensor-product algebra's support."""
    return _off_support_deviation(m, _masks((shape_a, shape_b))[1])


def tensor_shape(a: AlgebraShape, b: AlgebraShape) -> AlgebraShape:
    """Block dimensions of the tensor-product algebra, products in (i, j)
    lexicographic order to match the kron convention."""
    return AlgebraShape(tuple(da * db for da in a.block_dims for db in b.block_dims))


def algebra_identity(shape: AlgebraShape) -> AlgebraElement:
    """The identity element: an identity block in every factor."""
    return AlgebraElement(
        shape=shape, blocks=tuple(np.eye(d, dtype=np.complex128) for d in shape.block_dims)
    )


def block_projectors(shape: AlgebraShape) -> tuple[np.ndarray, ...]:
    """Embedded orthogonal projectors onto the individual blocks."""
    d = shape.total_dim
    projectors = []
    for sl in shape.block_slices():
        p = np.zeros((d, d), dtype=np.complex128)
        p[sl, sl] = np.eye(sl.stop - sl.start)
        projectors.append(p)
    return tuple(projectors)
