"""The tolerance policy: every threshold the library judges a value against.

Each name judges one kind of question; deviations are max-entry (or
trace) distances and are accepted when at most the tolerance.
"""

INPUT_TOL = 1e-10
"""Hermiticity, positivity and unit trace of an input operator."""

BLOCK_TOL = 1e-12
"""Leakage of an input operator outside its algebra's block support."""

CUTOFF_REL = 1e-10
"""Support cutoff, relative: eigenvalues at most this times the largest are dropped."""

CUTOFF_FLOOR = 1e-14
"""Support cutoff, absolute floor, so that the all-zero matrix has empty support."""

IDENTITY_TOL = 1e-9
"""An identity checked on computed values, such as a resolution of the identity."""

NEGLIGIBLE = 1e-12
"""A probability, relative magnitude or exact-arithmetic deviation treated as zero."""

RANK_TOL = 1e-6
"""Distance of a trace from the integer rank it stands for."""


def _apply_rounding(d_in: int, d_out: int, kraus_count: int) -> float:
    """Bound on the spectral-norm and trace error of ``channels.apply`` on a state: twice
    the first-order γ_n = n·ε/2 of the sums in the superoperator, the product, Σ K†K
    (what its measured deviation hides) and the trace (Higham, *Accuracy and Stability*, §3)."""
    terms = d_in * d_out * (kraus_count + d_in * d_in + 4) + d_in * (kraus_count * d_out + 3)
    return 2.0**-52 * (terms + d_out)


def _cholesky_floor(size: int, dim: int) -> tuple[float, float]:
    """Shift t for s × s blocks of dim × dim H: Thm 10.7's margin s·γ̃_{s+1}·(1 + INPUT_TOL), complex
    γ̃_{s+1} ≤ √2·γ_{s+3} rounded up, for a PSD H of diagonal ≤ 1 + INPUT_TOL, capped at INPUT_TOL;
    and for unit-trace H the floor t + γ_{2s+6}·tr(H + t·I) ≥ -λmin(H) that a factor of
    fl(H + t·I) proves (Higham, *Accuracy and Stability*, Thms 10.3 and 10.7)."""
    shift = min(2.0**-52 * size * (size + 3) * (1 + INPUT_TOL), INPUT_TOL)
    gamma = (2 * size + 6) * 2.0**-53
    return shift, shift + gamma / (1 - gamma) * (1 + INPUT_TOL + dim * shift)


def _condition_rounding(floor: float, kept_min: float, d_in: int) -> float:
    """-λmin of pinch(herm(fl((M ⊗ I) ρ (M ⊗ I)))) if λmin(herm ρ) ≥ -floor: ‖M‖² ≤ (1 + 8d²ε)/kept_min
    times floor + γ_{2d+6}·d·‖|ρ|‖₂, ‖|ρ|‖₂ ≤ 2, d = d_in (Higham, §3.5; README, Conventions)."""
    return (1 + 8 * d_in * d_in * 2.0**-52) / kept_min * (floor + 2.0**-52 * d_in * (2 * d_in + 6))
