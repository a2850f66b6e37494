"""Randomized invariant suite behind the ``selftest`` CLI command.

Each check draws ``trials`` seeded instances and yields the deviations of
one contract in the order it draws them; a boolean check yields 1.0 on a
failure.  ``run_selftest`` folds each stream into its worst deviation and
compares that against the contract's threshold.  The run is deterministic
for a given seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraShape
from .channels import (
    Channel,
    apply,
    apply_matrix,
    apply_via_conditional,
    canonical_reduction,
    channel_from_conditional,
    choi_conditional,
    identity_channel,
    is_isometry,
)
from .conditional import bayes_invert, conditional_from_joint, joint_from_conditional
from .matcore import herm_eig, max_abs, partial_trace
from .povm import measure, povm_from_ensemble, prepare, sample
from .scenarios import (
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
    random_unitary,
    teleport,
    verify_theorem,
)
from .states import reduce
from .tolerances import IDENTITY_TOL, NEGLIGIBLE, RANK_TOL

QUBIT = AlgebraShape((2,))
QUTRIT = AlgebraShape((3,))
BIT = AlgebraShape((1, 1))
MIXED = AlgebraShape((2, 1))

ISO_PAIRS = [
    (a, b)
    for a in (QUBIT, QUTRIT, MIXED, BIT)
    for b in (QUBIT, QUTRIT, BIT)
]
THEOREM_PAIRS = [(QUBIT, QUBIT), (QUBIT, QUTRIT), (BIT, QUBIT), (MIXED, BIT)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.threshold


def _worse(dev: float, x: float) -> float:
    """The larger deviation, NaN when either is NaN (the built-in ``max``
    keeps its first argument when the comparison with NaN is false)."""
    return dev if math.isnan(dev) or dev >= x else x


def _check_matrix_roots(rng, trials):
    for _ in range(trials):
        s = random_state(MIXED, rng)
        p = s.matrix * 3.0
        spectrum = herm_eig(p)  # judged: the selftest checks the public routine whole
        root = spectrum.root()
        yield max_abs(root @ root - p)
        inv = spectrum.inv_root()
        yield max_abs(inv @ p @ inv - spectrum.support())


def _check_partial_trace(rng, trials):
    for _ in range(trials):
        j = random_joint_state(QUBIT, QUTRIT, rng)
        left = partial_trace(j.matrix, 2, 3, keep="left")
        right = partial_trace(j.matrix, 2, 3, keep="right")
        yield abs(np.trace(left) - np.trace(j.matrix))
        yield abs(np.trace(right) - np.trace(j.matrix))


def _check_conditional_round_trip(rng, trials):
    for i in range(trials):
        shape_a, shape_b = THEOREM_PAIRS[i % len(THEOREM_PAIRS)]
        j = random_joint_state(shape_a, shape_b, rng)
        cond = conditional_from_joint(j, "a")
        back = joint_from_conditional(reduce(j, "a"), cond)
        yield max_abs(back.matrix - j.matrix)


def _check_conditional_support(rng, trials):
    for i in range(trials):
        rank = 1 + i % 2
        j = random_joint_state(QUBIT, QUBIT, rng, rank_a=rank)
        cond = conditional_from_joint(j, "a")
        p = cond.conditioning_support()
        yield max_abs(p @ p - p)
        yield max_abs(p - herm_eig(reduce(j, "a").matrix).support())  # judged, as above


def _check_integer_rank(rng, trials):
    for i in range(trials):
        rank = 1 + i % 2
        j = random_joint_state(QUBIT, QUTRIT, rng, rank_a=rank)
        cond = conditional_from_joint(j, "a")
        trace = float(np.trace(cond.matrix).real)
        yield abs(trace - rank)


def _check_classical_conditional(rng, trials):
    for _ in range(trials):
        j = random_joint_state(BIT, BIT, rng)
        cond = conditional_from_joint(j, "a")
        diag = np.diag(j.matrix).real
        marg = np.array([diag[0] + diag[1], diag[2] + diag[3]])
        expected = np.array(
            [diag[0] / marg[0], diag[1] / marg[0], diag[2] / marg[1], diag[3] / marg[1]]
        )
        yield max_abs(np.diag(cond.matrix).real - expected)


def _check_isomorphism(rng, trials):
    for i in range(trials):
        shape_in, shape_out = ISO_PAIRS[i % len(ISO_PAIRS)]
        c = random_channel(shape_in, shape_out, 2, rng)
        cond = choi_conditional(c)
        c2 = channel_from_conditional(cond)
        s = random_state(shape_in, rng)
        yield max_abs(apply(c, s).matrix - apply(c2, s).matrix)
        yield max_abs(apply_via_conditional(cond, s) - apply_matrix(c, s.matrix))


def _check_purity_isometry(rng, trials):
    for i in range(trials):
        dim = 2 + i % 3
        shape = AlgebraShape((dim,))
        unitary = Channel(shape, shape, (random_unitary(dim, rng),))
        if not is_isometry(unitary):
            yield 1.0
        noisy = random_channel(QUBIT, QUBIT, 2, rng)
        if len(canonical_reduction(noisy).kraus) >= 2 and is_isometry(noisy):
            yield 1.0


def _check_theorem(rng, trials):
    for i in range(trials):
        shape_a, shape_b = THEOREM_PAIRS[i % len(THEOREM_PAIRS)]
        rank_a = None if i % 4 else 1
        j = random_joint_state(shape_a, shape_b, rng, rank_a=rank_a)
        n = random_povm(shape_a, 1 + i % 4, rng)
        m = random_povm(shape_b, 1 + (i + 1) % 4, rng)
        report = verify_theorem(j, n, m)
        yield report.max_deviation
        if not report.distributions_valid():
            yield 1.0


def _check_teleport(rng, trials):
    for i in range(trials):
        dim = 2 + i % 2
        shape = AlgebraShape((dim,))
        c = random_channel(shape, QUBIT, 2, rng)
        s = random_state(shape, rng)
        report = teleport(c, s)
        yield abs(report.success_probability - 1.0 / dim**2)
        yield max_abs(report.bob_state_on_success.matrix - apply(c, s).matrix)


def _check_teleport_classical(rng, trials):
    for _ in range(trials):
        c = random_channel(BIT, BIT, 2, rng)
        s = random_state(BIT, rng)
        report = teleport(c, s)
        yield abs(report.success_probability - 0.5)
        yield max_abs(report.bob_state_on_success.matrix - apply(c, s).matrix)
    pad_input = random_state(BIT, rng)
    pad = teleport(identity_channel(BIT), pad_input)
    for corrected in pad.corrected_states:
        yield max_abs(corrected.matrix - pad_input.matrix)


def _check_lemma(rng, trials):
    for i in range(trials):
        s = random_state(QUBIT if i % 2 else MIXED, rng)
        povm = random_povm(s.shape, 2 + i % 3, rng)
        ens = prepare(povm, s)
        mix = sum(p * m.matrix for p, m in zip(ens.weights, ens.members))
        yield max_abs(mix - s.matrix)
        back = povm_from_ensemble(ens, s)
        for recovered, original in zip(back.elements, povm.elements):
            yield max_abs(recovered - original)


def _check_bayes(rng, trials):
    for i in range(trials):
        shape = QUBIT if i % 2 else BIT
        j = random_joint_state(shape, shape, rng)
        cond_ab = conditional_from_joint(j, "b")
        direct = conditional_from_joint(j, "a")
        inverted = bayes_invert(cond_ab, reduce(j, "a"), reduce(j, "b"))
        yield max_abs(inverted.matrix - direct.matrix)


def _check_sampling(rng, trials):
    s = random_state(QUBIT, rng)
    povm = random_povm(QUBIT, 3, rng)
    seed = int(rng.integers(0, 2**32))
    a = sample(povm, s, np.random.default_rng(seed), 200 * trials)
    b = sample(povm, s, np.random.default_rng(seed), 200 * trials)
    if not np.array_equal(a, b):
        yield 1.0
    probs = measure(povm, s)
    if not (float(probs.min()) >= -NEGLIGIBLE and abs(float(probs.sum()) - 1.0) <= IDENTITY_TOL):
        yield 1.0


# ``--tol`` replaces the threshold of a floating-point identity, the checks
# judged at IDENTITY_TOL; exact-arithmetic, integer-rank and boolean checks
# keep their own threshold.
CHECKS = (
    ("matrix_roots", _check_matrix_roots, IDENTITY_TOL),
    ("partial_trace_preserves_trace", _check_partial_trace, NEGLIGIBLE),
    ("conditional_round_trip", _check_conditional_round_trip, IDENTITY_TOL),
    ("conditioning_support_projector", _check_conditional_support, IDENTITY_TOL),
    ("conditional_integer_rank", _check_integer_rank, RANK_TOL),
    ("classical_conditional_rows", _check_classical_conditional, NEGLIGIBLE),
    ("isomorphism_round_trip", _check_isomorphism, IDENTITY_TOL),
    ("purity_iff_isometry", _check_purity_isometry, 0.5),
    ("prepare_measure_theorem", _check_theorem, IDENTITY_TOL),
    ("teleport_success_probability", _check_teleport, IDENTITY_TOL),
    ("classical_teleport_grouping", _check_teleport_classical, NEGLIGIBLE),
    ("povm_preparation_round_trip", _check_lemma, IDENTITY_TOL),
    ("bayes_involution", _check_bayes, IDENTITY_TOL),
    ("sampling_determinism", _check_sampling, 0.5),
)


def run_selftest(seed: int, trials: int, tol: float | None = None) -> list[CheckResult]:
    """Run every check with child seeds spawned from ``seed``.

    ``tol`` replaces every threshold equal to ``IDENTITY_TOL``; the others
    stay.
    """
    results = []
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(len(CHECKS))
    for (name, fn, threshold), child in zip(CHECKS, children):
        if tol is not None and threshold == IDENTITY_TOL:
            threshold = tol
        dev = functools.reduce(_worse, fn(np.random.default_rng(child), trials), 0.0)
        results.append(CheckResult(name, float(dev), float(threshold)))
    return results
