#!/usr/bin/env python3
"""Teleportation success probabilities across input dimensions.

Shows the 1/d^2 law for irreducible input algebras with arbitrary noisy
channels, and the classical-bit case where grouping the parity outcomes
lifts the success probability to 1/2 (the one-time-pad degeneration).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

# Import condchan from this checkout's src/, as pytest does via pyproject.toml.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from condchan import (
    AlgebraShape,
    identity_channel,
    random_channel,
    random_state,
    teleport,
    teleport_classical,
)
from condchan.states import State

BIT = AlgebraShape((1, 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--instances", type=int, default=20)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'input dim':>9} {'channels':>8} {'mean p_success':>15} {'expected':>9}")
    for d in (2, 3, 4):
        shape = AlgebraShape((d,))
        probs = []
        for _ in range(args.instances):
            c = random_channel(shape, shape, 2, rng)
            probs.append(teleport(c, random_state(shape, rng)).success_probability)
        print(f"{d:>9} {args.instances:>8} {np.mean(probs):>15.10f} {1 / d**2:>9.6f}")

    probs = [
        teleport_classical(random_channel(BIT, BIT, 2, rng), random_state(BIT, rng)).success_probability
        for _ in range(args.instances)
    ]
    print(f"{'bit':>9} {args.instances:>8} {np.mean(probs):>15.10f} {0.5:>9.6f}  (grouped)")

    rep = teleport_classical(identity_channel(BIT), State(BIT, np.diag([1.0, 0.0]).astype(complex)))
    fixed = all(
        np.allclose(s.matrix, np.diag([1.0, 0.0])) for s in rep.corrected_states
    )
    print(f"one-time pad: corrected branches reproduce the input: {fixed}")


if __name__ == "__main__":
    main()
