"""POVMs, the generalized Born rule, and POVM-driven ensemble preparations.

A POVM both measures a state (outcome j with probability Tr(M_j rho)) and
prepares one: draw j with that probability and emit sqrt(rho) M_j sqrt(rho)
normalized.  The two directions are mutually inverse on full-rank states,
which is what ``prepare`` / ``povm_from_ensemble`` implement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraShape, block_index, support_index
from .errors import InvariantViolation, ShapeMismatch, SupportMismatch
from .matcore import as_matrix, herm_eig, hermitize, max_abs, validate_psd
from .states import State, states_from_stack
from .tolerances import IDENTITY_TOL, NEGLIGIBLE


@dataclass(frozen=True, eq=False)
class POVM:
    """Positive elements of an algebra summing to its identity."""

    shape: AlgebraShape
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(as_matrix(e) for e in self.elements)
        if not elems:
            raise ShapeMismatch("a POVM needs at least one element")
        d = self.shape.total_dim
        for e in elems:
            if e.shape != (d, d):
                raise ShapeMismatch(f"element shape {e.shape} does not match total dim {d}")
        object.__setattr__(self, "elements", elems)
        stack = np.stack(elems)
        validate_psd(stack, *support_index(self.shape))
        # elements that pass the PSD checks can still overflow their sum
        with np.errstate(over="ignore"):
            sum_dev = max_abs(stack.sum(0) - np.eye(d))
        if not sum_dev <= IDENTITY_TOL:
            raise InvariantViolation("povm_sum", sum_dev)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted states decomposing a declared average state."""

    weights: np.ndarray
    members: tuple[State, ...]
    average: State

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) != w.size:
            raise ShapeMismatch("one weight per member required")
        if not np.isfinite(w).all():
            raise InvariantViolation("finite", np.inf, "weights have non-finite entries")
        if w.size and float(w.min()) < -IDENTITY_TOL:
            raise InvariantViolation("weights_nonnegative", -float(w.min()))
        wsum_dev = abs(float(w.sum()) - 1.0)
        if wsum_dev > IDENTITY_TOL:
            raise InvariantViolation("weights_sum", wsum_dev)
        mix = sum(p * m.matrix for p, m in zip(w, members))
        mix_dev = max_abs(mix - self.average.matrix)
        if mix_dev > IDENTITY_TOL:
            raise InvariantViolation("mixture", mix_dev)


def measure(m: POVM, s: State) -> np.ndarray:
    """Outcome probabilities Tr(M_j rho) as a real vector."""
    if m.shape != s.shape:
        raise ShapeMismatch("POVM and state live on different algebras")
    return np.einsum("jab,ba->j", np.stack(m.elements), s.matrix).real


def prepare(m: POVM, s: State) -> Ensemble:
    """POVM-preparation of a state: weights from the Born rule, members the
    Hermitian parts of sqrt(s) M_j sqrt(s) normalized.  Outcomes of negligible
    probability are dropped; their conditional state is undefined."""
    probs = measure(m, s)
    root = herm_eig(s.matrix).root()
    kept = probs > NEGLIGIBLE
    members = hermitize(root @ np.stack(m.elements)[kept] @ root / probs[kept, None, None])
    return Ensemble(weights=probs[kept], members=states_from_stack(s.shape, members), average=s)


def povm_from_ensemble(e: Ensemble, s: State) -> POVM:
    """POVM whose preparation of ``s`` reproduces the ensemble.

    Elements are inv_sqrt(s) p_j rho_j inv_sqrt(s) with the generalized
    inverse; when ``s`` is rank-deficient a completion element on the null
    space is appended so the elements resolve the identity of the full
    algebra (that element has probability zero under ``s``).
    """
    if e.average.shape != s.shape:
        raise ShapeMismatch("ensemble and state live on different algebras")
    spectrum = herm_eig(s.matrix, block_index(s.shape))
    complement = np.eye(s.shape.total_dim) - spectrum.support()
    for member in e.members:
        leak = max_abs(complement @ member.matrix @ complement)
        if leak > IDENTITY_TOL:
            raise SupportMismatch(
                f"ensemble member leaks outside the support of the state by {leak:.3e}", leak
            )
    mix_dev = max_abs(sum(p * m.matrix for p, m in zip(e.weights, e.members)) - s.matrix)
    if mix_dev > IDENTITY_TOL:
        raise InvariantViolation("mixture", mix_dev)
    inv_root = spectrum.inv_root()
    elements = [inv_root @ (p * member.matrix) @ inv_root for p, member in zip(e.weights, e.members)]
    remainder = np.eye(s.shape.total_dim) - sum(elements)
    if max_abs(remainder) > IDENTITY_TOL:
        elements.append(remainder)
    return POVM(shape=s.shape, elements=tuple(elements))


def sample(m: POVM, s: State, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` outcomes by inverse-CDF over the outcome index order.

    Deterministic given the generator's seed; returns a count per element.
    """
    probs = np.clip(measure(m, s), 0.0, None)
    cdf = np.cumsum(probs)
    if cdf[-1] <= 0.0:
        raise InvariantViolation("probability_mass", 1.0)
    cdf = cdf / cdf[-1]
    draws = rng.random(int(n))
    outcomes = np.searchsorted(cdf, draws, side="right")
    return np.bincount(outcomes, minlength=len(m.elements))
