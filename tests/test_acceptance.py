"""Acceptance suite: every release gate in one module, one test per
criterion, each printing a PASS/FAIL line with its measured worst case.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import subprocess
import sys
import time

import numpy as np

from condchan import (
    AlgebraShape,
    Channel,
    apply,
    bayes_invert,
    canonical_reduction,
    channel_from_conditional,
    choi_conditional,
    conditional_from_joint,
    herm_eig,
    is_isometry,
    povm_from_ensemble,
    prepare,
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
    random_unitary,
    reduce,
    teleport,
    verify_theorem,
)
from condchan.channels import identity_channel
from condchan.states import State
from conftest import BIT, MIXED, QUBIT, QUTRIT

SEED = 0xC0FFEE


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_isomorphism_round_trip():
    shapes_in = [QUBIT, QUTRIT, MIXED, BIT]
    shapes_out = [QUBIT, QUTRIT, BIT]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    start = time.monotonic()
    for si in shapes_in:
        for so in shapes_out:
            for _ in range(200):
                c = random_channel(si, so, 2, rng)
                c2 = channel_from_conditional(choi_conditional(c))
                for _ in range(10):
                    s = random_state(si, rng)
                    dev = np.max(np.abs(apply(c, s).matrix - apply(c2, s).matrix))
                    worst = max(worst, float(dev))
    elapsed = time.monotonic() - start
    report(
        "1 isomorphism round trip",
        worst < 1e-9 and elapsed < 60.0,
        f"max deviation {worst:.2e}, 2400 channels x 10 states in {elapsed:.1f}s",
    )


def test_criterion_2_main_theorem():
    configs = [(QUBIT, QUBIT), (QUBIT, QUTRIT), (BIT, QUBIT), (MIXED, BIT)]
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    restricted_count = 0
    for shape_a, shape_b in configs:
        for i in range(200):
            rank_a = None
            if i % 8 == 0:  # 25 rank-deficient instances per configuration
                rank_a = 1 + i % max(shape_a.total_dim - 1, 1)
            j = random_joint_state(shape_a, shape_b, rng, rank_a=rank_a)
            n = random_povm(shape_a, 1 + i % 5, rng)
            m = random_povm(shape_b, 1 + (i + 2) % 5, rng)
            rep = verify_theorem(j, n, m)
            worst = max(worst, rep.max_deviation)
            if rep.support_restricted:
                restricted_count += 1
            if not rep.distributions_valid():
                worst = max(worst, 1.0)
    report(
        "2 main theorem",
        worst < 1e-9 and restricted_count >= 20 * len(configs),
        f"max deviation {worst:.2e}, {restricted_count} support-restricted instances",
    )


def test_criterion_3_teleportation_numbers():
    rng = np.random.default_rng(SEED + 3)
    worst_quantum = 0.0
    out_shapes = [QUBIT, QUTRIT, BIT]
    for d in (2, 3, 4):
        shape = AlgebraShape((d,))
        for i in range(50):
            c = random_channel(shape, out_shapes[i % 3], 2, rng)
            s = random_state(shape, rng)
            rep = teleport(c, s)
            worst_quantum = max(worst_quantum, abs(rep.success_probability - 1.0 / d**2))
            worst_quantum = max(
                worst_quantum,
                float(np.max(np.abs(rep.bob_state_on_success.matrix - apply(c, s).matrix))),
            )

    worst_classical = 0.0
    for _ in range(50):
        c = random_channel(BIT, BIT, 2, rng)
        rep = teleport(c, random_state(BIT, rng))
        worst_classical = max(worst_classical, abs(rep.success_probability - 0.5))

    worst_pad = 0.0
    ident = identity_channel(BIT)
    for probe in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7]):
        s = State(BIT, np.diag(probe).astype(complex))
        rep = teleport(ident, s)
        for corrected in rep.corrected_states:
            worst_pad = max(worst_pad, float(np.max(np.abs(corrected.matrix - s.matrix))))

    report(
        "3 teleportation numbers",
        worst_quantum < 1e-9 and worst_classical < 1e-12 and worst_pad < 1e-12,
        f"1/d^2 deviation {worst_quantum:.2e}, grouped-1/2 deviation {worst_classical:.2e}, "
        f"one-time-pad deviation {worst_pad:.2e}",
    )


def test_criterion_4_conditional_invariants():
    rng = np.random.default_rng(SEED + 4)
    configs = [(QUBIT, QUBIT), (QUTRIT, QUBIT), (MIXED, BIT), (BIT, QUTRIT), (QUBIT, MIXED)]
    worst_proj = 0.0
    worst_rank = 0.0
    for i in range(500):
        shape_a, shape_b = configs[i % len(configs)]
        rank_a = None if i % 3 else 1 + i % shape_a.total_dim
        j = random_joint_state(shape_a, shape_b, rng, rank_a=rank_a)
        cond = conditional_from_joint(j, "a")
        p = cond.conditioning_support()
        worst_proj = max(worst_proj, float(np.max(np.abs(p @ p - p))))
        # independent rank oracle: eigenvalue count of the marginal
        w = np.linalg.eigvalsh(reduce(j, "a").matrix)
        expected_rank = int(np.count_nonzero(w > 1e-10 * w.max()))
        trace = float(np.trace(cond.matrix).real)
        worst_rank = max(worst_rank, abs(trace - expected_rank))

    worst_classical = 0.0
    for _ in range(100):
        j = random_joint_state(BIT, BIT, rng)
        cond = conditional_from_joint(j, "a")
        diag = np.diag(j.matrix).real
        marg = np.array([diag[0] + diag[1], diag[2] + diag[3]])
        rows = np.array([diag[0] / marg[0], diag[1] / marg[0], diag[2] / marg[1], diag[3] / marg[1]])
        worst_classical = max(
            worst_classical, float(np.max(np.abs(np.diag(cond.matrix).real - rows)))
        )

    report(
        "4 conditional-state invariants",
        worst_proj < 1e-9 and worst_rank < 1e-6 and worst_classical < 1e-12,
        f"projector deviation {worst_proj:.2e}, rank deviation {worst_rank:.2e}, "
        f"classical-row deviation {worst_classical:.2e}",
    )


def test_criterion_5_lemma_round_trip():
    rng = np.random.default_rng(SEED + 5)
    shapes = [QUBIT, QUTRIT, MIXED, BIT]
    worst_inverse = 0.0
    worst_mix = 0.0
    for i in range(200):
        shape = shapes[i % len(shapes)]
        s = random_state(shape, rng)
        povm = random_povm(shape, 1 + i % 5, rng)
        ens = prepare(povm, s)
        worst_mix = max(
            worst_mix,
            float(
                np.max(
                    np.abs(sum(p * m.matrix for p, m in zip(ens.weights, ens.members)) - s.matrix)
                )
            ),
        )
        back = povm_from_ensemble(ens, s)
        for a, b in zip(back.elements, povm.elements):
            worst_inverse = max(worst_inverse, float(np.max(np.abs(a - b))))
        again = prepare(back, s)
        worst_inverse = max(
            worst_inverse, float(np.max(np.abs(again.weights - ens.weights)))
        )
        for a, b in zip(again.members, ens.members):
            worst_inverse = max(worst_inverse, float(np.max(np.abs(a.matrix - b.matrix))))
    report(
        "5 preparation lemma round trip",
        worst_inverse < 1e-9 and worst_mix < 1e-9,
        f"round-trip deviation {worst_inverse:.2e}, mixture deviation {worst_mix:.2e}",
    )


def test_criterion_6_purity_iff_isometry():
    rng = np.random.default_rng(SEED + 6)
    unitary_ok = 0
    for i in range(100):
        d = 2 + i % 3
        shape = AlgebraShape((d,))
        c = Channel(shape, shape, (random_unitary(d, rng),))
        w = herm_eig(choi_conditional(c).matrix).eigenvalues
        rank = int(np.count_nonzero(w > 1e-9 * w[0]))
        if rank == 1 and is_isometry(c):
            unitary_ok += 1

    noisy_ok = 0
    shapes = [(QUBIT, QUBIT), (QUTRIT, QUBIT), (QUBIT, MIXED), (MIXED, QUTRIT)]
    for i in range(100):
        si, so = shapes[i % len(shapes)]
        c = random_channel(si, so, 2 + i % 2, rng)
        kraus_count = len(canonical_reduction(c).kraus)
        if kraus_count < 2:
            continue  # not verifiably noisy; does not count either way
        w = herm_eig(choi_conditional(c).matrix).eigenvalues
        rank = int(np.count_nonzero(w > 1e-9 * w[0]))
        if rank >= 2 and not is_isometry(c):
            noisy_ok += 1
    report(
        "6 purity iff isometry",
        unitary_ok == 100 and noisy_ok == 100,
        f"{unitary_ok}/100 unitaries rank one, {noisy_ok}/100 noisy channels rank >= 2",
    )


def test_criterion_7_bayes_rule():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for shape in (QUBIT, BIT):
        for _ in range(200):
            j = random_joint_state(shape, shape, rng)
            cond_ab = conditional_from_joint(j, "b")
            inverted = bayes_invert(cond_ab, reduce(j, "a"), reduce(j, "b"))
            direct = conditional_from_joint(j, "a")
            worst = max(worst, float(np.max(np.abs(inverted.matrix - direct.matrix))))
    report("7 Bayes-rule analog", worst < 1e-9, f"max deviation {worst:.2e}")


def test_criterion_8_selftest_cli():
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-m", "condchan.cli", "selftest", "--seed", "42", "--trials", "50"],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    payload = json.loads(completed.stdout) if completed.stdout else {}
    report(
        "8 selftest CLI",
        completed.returncode == 0 and elapsed < 120.0 and payload.get("pass") is True,
        f"exit {completed.returncode} in {elapsed:.1f}s",
    )
