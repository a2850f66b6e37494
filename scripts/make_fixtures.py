#!/usr/bin/env python3
"""Regenerate the JSON fixtures shipped under tests/fixtures/.

Fixtures are committed as data; rerun this only when the schema changes.
"""

import sys
from pathlib import Path

import numpy as np

# Import condchan from this checkout's src/, as pytest does via pyproject.toml.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from condchan import AlgebraShape, Channel, State, random_joint_state, random_povm, random_state
from condchan.serialize import serialize

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
SEED = 987654321


def main() -> None:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)
    qubit = AlgebraShape((2,))

    joint = random_joint_state(qubit, qubit, rng)
    povm_a = random_povm(qubit, 3, rng)
    povm_b = random_povm(qubit, 2, rng)
    input_state = random_state(qubit, rng)
    identity = Channel(qubit, qubit, (np.eye(2, dtype=complex),))
    bit = AlgebraShape((1, 1))
    bit_identity = Channel(bit, bit, (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
    bit_state = State(bit, np.diag([1.0, 0.0]).astype(complex))

    for name, obj in [
        ("theorem_joint.json", joint),
        ("theorem_povm_a.json", povm_a),
        ("theorem_povm_b.json", povm_b),
        ("qubit_state.json", input_state),
        ("identity_channel.json", identity),
        ("bit_identity_channel.json", bit_identity),
        ("bit_state.json", bit_state),
    ]:
        (FIXTURES / name).write_text(serialize(obj), encoding="utf-8")
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
