"""Selftest thresholds: ``--tol`` replaces only the overridable ones."""

import math

import pytest

from condchan import selftest
from condchan.selftest import CHECKS, run_selftest

# The thresholds of the report: --tol replaces exactly the 1e-9 ones.
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


@pytest.mark.parametrize("tol", [None, 1e-7])
def test_tol_replaces_only_overridable_thresholds(tol):
    results = run_selftest(3, 1, tol=tol)
    expected = {
        name: tol if tol is not None and threshold == 1e-9 else threshold
        for name, threshold in THRESHOLDS.items()
    }
    assert {r.name: r.threshold for r in results} == expected
    assert all(r.passed for r in results)


def test_nan_deviation_fails_its_check(monkeypatch):
    # every check built on max_abs now measures NaN; none may report a pass
    monkeypatch.setattr(selftest, "max_abs", lambda m: math.nan)
    results = {r.name: r for r in run_selftest(3, 2)}
    for name in ("matrix_roots", "conditional_round_trip", "isomorphism_round_trip",
                 "teleport_success_probability", "povm_preparation_round_trip"):
        assert math.isnan(results[name].max_deviation), name
        assert not results[name].passed, name


@pytest.mark.parametrize(
    "devs", [(0.0, math.nan), (math.nan, 0.0), (math.nan, 2.0, 1.0), (1.0, math.nan, 2.0)]
)
def test_worst_deviation_keeps_nan(devs):
    dev = 0.0
    for x in devs:
        dev = selftest._worse(dev, x)
    assert math.isnan(dev)


def test_worst_deviation_is_the_largest():
    assert selftest._worse(1.0, 2.0) == 2.0
    assert selftest._worse(2.0, 1.0) == 2.0
