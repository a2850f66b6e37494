"""Command-line front end.

Every subcommand reads JSON documents (see ``serialize``), writes a JSON
document or report to stdout and a one-line human summary to stderr.  Exit
codes: 0 success, 1 usage, 2 parse error, 3 invariant violation, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import serialize as docs
from .channels import Channel, channel_from_conditional, choi_conditional
from .conditional import ConditionalState, bayes_invert, conditional_from_joint, joint_from_conditional
from .errors import CondChanError, DocumentSyntaxError, UsageError
from .povm import POVM, prepare
from .scenarios import TeleportReport, teleport, teleport_classical, verify_theorem
from .selftest import run_selftest
from .states import JointState, State
from .tolerances import IDENTITY_TOL

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NUMERICAL = 4

_LABELS = {
    EXIT_USAGE: "usage error",
    EXIT_PARSE: "parse error",
    EXIT_INVARIANT: "invariant violation",
    EXIT_NUMERICAL: "numerical failure",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(path: str, want: type):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise DocumentSyntaxError(f"cannot read {path}: {exc}") from exc
    obj = docs.parse(text)
    if not isinstance(obj, want):
        raise DocumentSyntaxError(
            f"{path}: expected a {want.__name__} document, got {type(obj).__name__}"
        )
    return obj


def _emit(payload_text: str, summary: str) -> None:
    sys.stdout.write(payload_text)
    sys.stderr.write(summary.rstrip() + "\n")


def _emit_json(payload: dict, summary: str) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=1) + "\n", summary)


def _cmd_choi(args) -> int:
    channel = _load(args.channel, Channel)
    cond = choi_conditional(channel)
    _emit(docs.serialize(cond), f"conditional form: trace {cond.rank}, kron dim {cond.matrix.shape[0]}")
    return EXIT_OK


def _cmd_channel(args) -> int:
    cond = _load(args.conditional, ConditionalState)
    channel = channel_from_conditional(cond)
    note = " (support-restricted)" if channel.input_support is not None else ""
    _emit(docs.serialize(channel), f"recovered channel with {len(channel.kraus)} Kraus operators{note}")
    return EXIT_OK


def _cmd_condition(args) -> int:
    joint = _load(args.joint, JointState)
    side = args.on.lower()
    cond = conditional_from_joint(joint, side)
    _emit(docs.serialize(cond), f"conditioned on side {side}: rank {cond.rank}")
    return EXIT_OK


def _cmd_join(args) -> int:
    marginal = _load(args.marginal, State)
    cond = _load(args.conditional, ConditionalState)
    joint = joint_from_conditional(marginal, cond)
    _emit(docs.serialize(joint), "joint state rebuilt from marginal and conditional")
    return EXIT_OK


def _cmd_bayes(args) -> int:
    cond = _load(args.conditional, ConditionalState)
    marg_a = _load(args.marginal_a, State)
    marg_b = _load(args.marginal_b, State)
    inverted = bayes_invert(cond, marg_a, marg_b)
    _emit(docs.serialize(inverted), "conditional inverted")
    return EXIT_OK


def _cmd_verify_theorem(args) -> int:
    joint = _load(args.joint, JointState)
    povm_a = _load(args.povm_a, POVM)
    povm_b = _load(args.povm_b, POVM)
    report = verify_theorem(joint, povm_a, povm_b)
    payload = {
        "kind": "theorem_report",
        "lhs": [[float(x) for x in row] for row in report.lhs],
        "rhs": [[float(x) for x in row] for row in report.rhs],
        "maxDeviation": report.max_deviation,
        "supportRestricted": report.support_restricted,
    }
    ok = report.max_deviation < args.tol and report.distributions_valid(args.tol)
    _emit_json(
        payload,
        f"maxDeviation {report.max_deviation:.3e} (tol {args.tol:g}): "
        + ("PASS" if ok else "FAIL"),
    )
    return EXIT_OK if ok else EXIT_NUMERICAL


def _teleport_payload(report: TeleportReport) -> dict:
    payload = {
        "kind": "teleport_report",
        "successProbability": report.success_probability,
        "successIndex": report.success_index,
        "probabilities": [float(p) for p in report.outcome_probabilities],
        "bobStateOnSuccess": docs.encode_matrix(report.bob_state_on_success.matrix),
        "groupingUsed": report.grouping_used,
    }
    if report.corrected_states is not None:
        payload["correctedStates"] = [
            None if s is None else docs.encode_matrix(s.matrix) for s in report.corrected_states
        ]
    return payload


def _cmd_teleport(args) -> int:
    channel = _load(args.channel, Channel)
    input_state = _load(args.input, State)
    if args.classical:
        report = teleport_classical(channel, input_state)
    else:
        report = teleport(channel, input_state, tol=args.tol)
    _emit_json(
        _teleport_payload(report),
        f"success probability {report.success_probability:.6f}"
        + (" (grouped outcomes)" if report.grouping_used else ""),
    )
    return EXIT_OK


def _cmd_prepare(args) -> int:
    povm = _load(args.povm, POVM)
    state = _load(args.state, State)
    ensemble = prepare(povm, state)
    _emit(docs.serialize(ensemble), f"ensemble with {len(ensemble.members)} members")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    start = time.monotonic()
    results = run_selftest(args.seed, args.trials, tol=args.tol)
    elapsed = time.monotonic() - start
    for r in results:
        sys.stderr.write(
            f"{r.name}: maxDeviation {r.max_deviation:.3e} "
            f"(threshold {r.threshold:g}) {'PASS' if r.passed else 'FAIL'}\n"
        )
    all_passed = all(r.passed for r in results)
    payload = {
        "kind": "selftest_report",
        "seed": args.seed,
        "trials": args.trials,
        "elapsedSeconds": elapsed,
        "pass": all_passed,
        "checks": [
            {
                "name": r.name,
                "maxDeviation": r.max_deviation,
                "threshold": r.threshold,
                "pass": r.passed,
            }
            for r in results
        ],
    }
    _emit_json(payload, f"selftest {'PASS' if all_passed else 'FAIL'} in {elapsed:.1f}s")
    return EXIT_OK if all_passed else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condchan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("choi", help="conditional-state form of a channel")
    p.add_argument("--channel", required=True)
    p.set_defaults(fn=_cmd_choi)

    p = sub.add_parser("channel", help="recover the Kraus channel from a conditional")
    p.add_argument("--conditional", required=True)
    p.set_defaults(fn=_cmd_channel)

    p = sub.add_parser("condition", help="condition a joint state on one side")
    p.add_argument("--joint", required=True)
    p.add_argument("--on", required=True, choices=["A", "B", "a", "b"])
    p.set_defaults(fn=_cmd_condition)

    p = sub.add_parser("join", help="rebuild a joint state from marginal and conditional")
    p.add_argument("--marginal", required=True)
    p.add_argument("--conditional", required=True)
    p.set_defaults(fn=_cmd_join)

    p = sub.add_parser("bayes", help="invert a conditional using both marginals")
    p.add_argument("--conditional", required=True)
    p.add_argument("--marginal-a", required=True, dest="marginal_a")
    p.add_argument("--marginal-b", required=True, dest="marginal_b")
    p.set_defaults(fn=_cmd_bayes)

    p = sub.add_parser(
        "verify-theorem",
        help="compare joint-measurement statistics against prepare-and-measure",
    )
    p.add_argument("--joint", required=True)
    p.add_argument("--povm-a", required=True, dest="povm_a")
    p.add_argument("--povm-b", required=True, dest="povm_b")
    p.add_argument("--tol", type=float, default=IDENTITY_TOL)
    p.set_defaults(fn=_cmd_verify_theorem)

    p = sub.add_parser("teleport", help="run noisy-gate teleportation")
    p.add_argument("--channel", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--classical", action="store_true")
    p.add_argument("--tol", type=float, default=IDENTITY_TOL)
    p.set_defaults(fn=_cmd_teleport)

    p = sub.add_parser("prepare", help="POVM-preparation ensemble of a state")
    p.add_argument("--povm", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(fn=_cmd_prepare)

    p = sub.add_parser("selftest", help="run the randomized invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=IDENTITY_TOL)
    p.set_defaults(fn=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built once, never handed out, and left
    unchanged by parsing, so calls cannot affect each other."""
    return build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # --help: argparse has printed the text and exits
            return exc.code
        if not 0.0 < getattr(args, "tol", 1.0) < np.inf:
            raise UsageError(f"--tol must be a positive finite number, got {args.tol}")
        return args.fn(args)
    except (CondChanError, FloatingPointError, np.linalg.LinAlgError) as exc:
        # numpy's own floating-point and linear-algebra errors are numerical failures
        code = getattr(exc, "exit_code", EXIT_NUMERICAL)
        sys.stderr.write(f"{_LABELS[code]}: {exc}\n")
        return code


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
