#!/usr/bin/env python3
"""Sweep the prepare-and-measure identity over shape configurations.

For each algebra pair, draws random joint states (full-rank and with
rank-deficient conditioning marginals), random POVMs of varying sizes, and
tabulates the worst disagreement between the two outcome distributions and
the number of reports whose distributions are not valid.  Exits 1 when a
worst disagreement exceeds ``IDENTITY_TOL`` or some distribution is invalid.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

# Import condchan from this checkout's src/, as pytest does via pyproject.toml.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from condchan import AlgebraShape, random_joint_state, random_povm, verify_theorem
from condchan.tolerances import IDENTITY_TOL

CONFIGS = [
    ((2,), (2,)),
    ((2,), (3,)),
    ((1, 1), (2,)),
    ((2, 1), (1, 1)),
    ((3,), (2, 1)),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--instances", type=int, default=100)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    failed = False
    print(f"{'A-shape':>10} {'B-shape':>10} {'instances':>9} {'restricted':>10} {'invalid':>7} "
          f"{'max dev':>12}")
    for dims_a, dims_b in CONFIGS:
        shape_a, shape_b = AlgebraShape(dims_a), AlgebraShape(dims_b)
        worst = 0.0
        restricted = invalid = 0
        for i in range(args.instances):
            rank_a = None if i % 4 else max(1, shape_a.total_dim - 1)
            j = random_joint_state(shape_a, shape_b, rng, rank_a=rank_a)
            n = random_povm(shape_a, 1 + i % 4, rng)
            m = random_povm(shape_b, 1 + (i + 1) % 4, rng)
            rep = verify_theorem(j, n, m)
            worst = max(worst, rep.max_deviation)  # a NaN deviation is caught as invalid
            restricted += rep.support_restricted
            invalid += not rep.distributions_valid()
        failed |= invalid > 0 or not worst <= IDENTITY_TOL
        print(f"{str(dims_a):>10} {str(dims_b):>10} {args.instances:>9} {restricted:>10} "
              f"{invalid:>7} {worst:>12.3e}")
    if failed:
        print(f"FAILED: a worst deviation above IDENTITY_TOL = {IDENTITY_TOL:g} "
              "or an invalid distribution", file=sys.stderr)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
