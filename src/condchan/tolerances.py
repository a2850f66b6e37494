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
