import os
from pathlib import Path

import numpy as np
import pytest

from condchan import AlgebraShape, ConditionalState, State
from condchan.channels import max_ent_matrix

QUBIT = AlgebraShape((2,))
QUTRIT = AlgebraShape((3,))
BIT = AlgebraShape((1, 1))
MIXED = AlgebraShape((2, 1))


def pytest_configure(config):
    # The CLI tests run ``python -m condchan.cli`` in a subprocess; point it at
    # the source tree that the ``pythonpath`` setting in pyproject.toml puts
    # on sys.path for the test process itself.
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_psd(rng, dim, rank=None):
    cols = dim if rank is None else rank
    g = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
    return g @ g.conj().T


def maximally_mixed(shape):
    """The identity over the total dimension, as a State."""
    d = shape.total_dim
    return State(shape, np.eye(d, dtype=np.complex128) / d)


def max_ent_conditional(shape):
    """The maximally entangled conditional of an algebra with itself."""
    return ConditionalState(shape, shape, max_ent_matrix(shape))
