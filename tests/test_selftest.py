"""Selftest thresholds: ``--tol`` replaces only the overridable ones."""

import pytest

from condchan.selftest import CHECKS, EXACT, OVERRIDABLE, run_selftest

# The thresholds of the report before the tolerance classes: --tol replaced
# exactly the 1e-9 thresholds.
THRESHOLDS = {
    "matrix_roots": 1e-9,
    "partial_trace_preserves_trace": 1e-12,
    "conditional_round_trip": 1e-9,
    "conditioning_support_projector": 1e-9,
    "conditional_integer_rank": 1e-6,
    "classical_conditional_rows": 1e-12,
    "isomorphism_round_trip": 1e-9,
    "purity_iff_isometry": 0.5,
    "prepare_measure_theorem": 1e-9,
    "teleport_success_probability": 1e-9,
    "classical_teleport_grouping": 1e-12,
    "povm_preparation_round_trip": 1e-9,
    "bayes_involution": 1e-9,
    "sampling_determinism": 0.5,
}


def test_every_check_has_a_tolerance_class():
    assert [name for name, *_ in CHECKS] == list(THRESHOLDS)
    assert {cls for *_, cls in CHECKS} == {OVERRIDABLE, EXACT}


@pytest.mark.parametrize("tol", [None, 1e-7])
def test_tol_replaces_only_overridable_thresholds(tol):
    results = run_selftest(3, 1, tol=tol)
    expected = {
        name: tol if tol is not None and threshold == 1e-9 else threshold
        for name, threshold in THRESHOLDS.items()
    }
    assert {r.name: r.threshold for r in results} == expected
    assert all(r.passed for r in results)
