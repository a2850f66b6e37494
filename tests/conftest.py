import os
from pathlib import Path

import numpy as np
import pytest

import condchan.scenarios as scenarios_module
from condchan import POVM, AlgebraShape, ConditionalState, ShapeMismatch, State, teleport
from condchan.algebra import layout
from condchan.channels import max_ent_matrix
from condchan.matcore import max_abs

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


def support_deviation(m, *shapes):
    """Largest entry of m (or of a stack of matrices) outside the support of
    the tensor product of ``shapes`` (of one algebra when one shape is given)."""
    arr, off = np.asarray(m), ~layout(*shapes).mask
    if arr.shape[-2:] != off.shape:
        raise ShapeMismatch(f"matrix shape {arr.shape} does not match support {off.shape}")
    return max_abs(arr[..., off])


def maximally_mixed(shape):
    """The identity over the total dimension, as a State."""
    d = shape.total_dim
    return State(shape, np.eye(d, dtype=np.complex128) / d)


def tiny_outcome_pair(theta, rng):
    """A valid qubit state ρ = (1 − 1e-9)|u₀⟩⟨u₀| + 1e-9|u₁⟩⟨u₁| and the POVM {I − |χ⟩⟨χ|, |χ⟩⟨χ|},
    χ = cos θ·u₁ + sin θ·u₀ for a random unitary u: the outcome χ has probability about
    θ² + 1e-9, and ``prepare`` divides its member's rounding by that."""
    u = scenarios_module.random_unitary(2, rng)
    u0, u1 = u[:, 0], u[:, 1]
    rho = (1 - 1e-9) * np.outer(u0, u0.conj()) + 1e-9 * np.outer(u1, u1.conj())
    chi = np.cos(theta) * u1 + np.sin(theta) * u0
    e = np.outer(chi, chi.conj())
    return State(QUBIT, rho), POVM(QUBIT, (np.eye(2) - e, e))


def max_ent_conditional(shape):
    """The maximally entangled conditional of an algebra with itself."""
    return ConditionalState(shape, shape, max_ent_matrix(shape))


def teleport_branches(monkeypatch, *args):
    """``teleport(*args)`` and what its one ``_run_branches`` call returned: the
    outcome probabilities, the kept mask and every branch, unnormalized."""
    seen, run = [], scenarios_module._run_branches
    with monkeypatch.context() as patch:
        patch.setattr(scenarios_module, "_run_branches", lambda *a: seen.append(run(*a)) or seen[-1])
        report = teleport(*args)
    (branches,) = seen
    return report, branches
