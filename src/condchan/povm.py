"""POVMs, the generalized Born rule, and POVM-driven ensemble preparations.

A POVM both measures a state (outcome j with probability Tr(M_j rho)) and
prepares one: draw j with that probability and emit sqrt(rho) M_j sqrt(rho)
normalized.  The two directions are mutually inverse on full-rank states,
which is what ``prepare`` / ``povm_from_ensemble`` implement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraShape, is_integer, layout
from .errors import InvariantViolation, NumericalFailure, ShapeMismatch, SupportMismatch
from .matcore import _as_stack, _valid_eig, as_matrix, hermitize, identity, max_abs, validate_psd
from .states import State, states_from_stack
from .tolerances import IDENTITY_TOL, NEGLIGIBLE


@dataclass(frozen=True, eq=False)
class POVM:
    """Positive elements of an algebra summing to its identity, held as one read-only tensor."""

    shape: AlgebraShape
    elements: np.ndarray

    def __post_init__(self):
        d = self.shape.total_dim
        items = self.elements if isinstance(self.elements, np.ndarray) else list(self.elements)
        try:
            stack = _as_stack(items)
        except (TypeError, ValueError):
            stack = None
        if stack is None or stack.shape[1:] != (d, d) or not len(stack):
            # element by element, so that each malformed input keeps its own error
            elems = [as_matrix(e) for e in items]
            if not elems:
                raise ShapeMismatch("a POVM needs at least one element")
            for e in elems:
                if e.shape != (d, d):
                    raise ShapeMismatch(f"element shape {e.shape} does not match total dim {d}")
            stack = _as_stack(elems)
        object.__setattr__(self, "elements", stack)
        validate_psd(stack, layout(self.shape))
        # elements that pass the PSD checks can still overflow their sum
        with np.errstate(over="ignore"):
            sum_dev = max_abs(stack.sum(0) - identity(d))
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
    return np.einsum("jab,ba->j", m.elements, s.matrix).real


def prepare(m: POVM, s: State) -> Ensemble:
    """POVM-preparation of a state: weights from the Born rule, members the
    Hermitian parts of sqrt(s) M_j sqrt(s), each divided by its own trace, since
    ``root`` clips a slightly negative eigenvalue of s.  Outcomes of negligible
    probability are dropped; their conditional state is undefined.  A member's rounding is
    scaled by 1/p, so a check that fails on them raises ``NumericalFailure`` with κ = 1/p_min."""
    probs = measure(m, s)
    root = _valid_eig(s.matrix, layout(s.shape)).root()
    kept = probs > NEGLIGIBLE
    try:
        members = hermitize(root @ m.elements[kept] @ root)
        members /= members.trace(axis1=1, axis2=2).real[:, None, None]
        return Ensemble(weights=probs[kept], members=states_from_stack(s.shape, members), average=s)
    except InvariantViolation as exc:
        raise NumericalFailure(exc.invariant, exc.deviation, "prepare", 1 / probs[kept].min()) from exc


def povm_from_ensemble(e: Ensemble, s: State) -> POVM:
    """POVM whose preparation of ``s`` reproduces the ensemble.

    Elements are inv_sqrt(s) p_j rho_j inv_sqrt(s) with the generalized
    inverse; when ``s`` is rank-deficient a completion element on the null
    space is appended so the elements resolve the identity of the full
    algebra (that element has probability zero under ``s``).
    """
    if e.average.shape != s.shape:
        raise ShapeMismatch("ensemble and state live on different algebras")
    spectrum = _valid_eig(s.matrix, layout(s.shape))
    complement = identity(s.shape.total_dim) - spectrum.support()
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
    remainder = identity(s.shape.total_dim) - sum(elements)
    if max_abs(remainder) > IDENTITY_TOL:
        elements.append(remainder)
    return POVM(shape=s.shape, elements=tuple(elements))


def sample(m: POVM, s: State, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` outcomes by inverse-CDF over the outcome index order.

    Deterministic given the generator's seed; returns a count per element.
    An ``n`` that is negative or not an integer raises ``ShapeMismatch``.
    """
    if not is_integer(n):
        raise ShapeMismatch(f"the number of outcomes must be an integer, got {n!r}")
    count = operator.index(n)
    if count < 0:
        raise ShapeMismatch(f"cannot draw a negative number of outcomes, got {n}")
    probs = np.clip(measure(m, s), 0.0, None)
    cdf = np.cumsum(probs)
    if cdf[-1] <= 0.0:
        raise InvariantViolation("probability_mass", 1.0)
    cdf = cdf / cdf[-1]
    draws = rng.random(count)
    outcomes = np.searchsorted(cdf, draws, side="right")
    return np.bincount(outcomes, minlength=len(m.elements))
