#!/usr/bin/env python3
"""Sweep the prepare-and-measure identity over shape configurations.

For each algebra pair, draws random joint states (full-rank and with
rank-deficient conditioning marginals), random POVMs of varying sizes, and
tabulates the worst disagreement between the two outcome distributions.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

# Import condchan from this checkout's src/, as pytest does via pyproject.toml.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from condchan import AlgebraShape, random_joint_state, random_povm, verify_theorem

CONFIGS = [
    ((2,), (2,)),
    ((2,), (3,)),
    ((1, 1), (2,)),
    ((2, 1), (1, 1)),
    ((3,), (2, 1)),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--instances", type=int, default=100)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'A-shape':>10} {'B-shape':>10} {'instances':>9} {'restricted':>10} {'max dev':>12}")
    for dims_a, dims_b in CONFIGS:
        shape_a, shape_b = AlgebraShape(dims_a), AlgebraShape(dims_b)
        worst = 0.0
        restricted = 0
        for i in range(args.instances):
            rank_a = None if i % 4 else max(1, shape_a.total_dim - 1)
            j = random_joint_state(shape_a, shape_b, rng, rank_a=rank_a)
            n = random_povm(shape_a, 1 + i % 4, rng)
            m = random_povm(shape_b, 1 + (i + 1) % 4, rng)
            rep = verify_theorem(j, n, m)
            worst = max(worst, rep.max_deviation)
            restricted += rep.support_restricted
        print(f"{str(dims_a):>10} {str(dims_b):>10} {args.instances:>9} {restricted:>10} {worst:>12.3e}")


if __name__ == "__main__":
    main()
