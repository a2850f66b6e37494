"""Command-line front end.

Every subcommand reads JSON documents (see ``serialize``), writes a JSON
document or report to stdout and a one-line human summary to stderr.  Exit
codes: 0 success, 1 usage, 2 parse error, 3 invariant violation, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import serialize as docs
from .channels import Channel, channel_from_conditional, choi_conditional
from .conditional import ConditionalState, bayes_invert, conditional_from_joint, joint_from_conditional
from .errors import CondChanError, DocumentSyntaxError, UsageError
from .povm import POVM, prepare
from .scenarios import teleport, verify_theorem
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


def _document(obj, summary) -> tuple[str, str, int]:
    """A run's result for a library object: its document, and the summary
    (a string, or a function of the object), exit 0."""
    return docs.serialize(obj), summary(obj) if callable(summary) else summary, EXIT_OK


def _verify_theorem(args) -> tuple[str, str, int]:
    report = verify_theorem(args.joint, args.povm_a, args.povm_b)
    payload = {"kind": "theorem_report", "lhs": report.lhs.tolist(), "rhs": report.rhs.tolist(),
               "maxDeviation": report.max_deviation, "supportRestricted": report.support_restricted}
    ok = report.max_deviation < args.tol and report.distributions_valid(args.tol)
    verdict = "PASS" if ok else "FAIL"
    summary = f"maxDeviation {report.max_deviation:.3e} (tol {args.tol:g}): {verdict}"
    return docs.dumps(payload), summary, EXIT_OK if ok else EXIT_NUMERICAL


def _teleport(args) -> tuple[str, str, int]:
    report = teleport(args.channel, args.input)
    payload = {
        "kind": "teleport_report",
        "successProbability": report.success_probability,
        "successIndex": report.success_index,
        "probabilities": report.outcome_probabilities.tolist(),
        "bobStateOnSuccess": report.bob_state_on_success.matrix,
        "groupingUsed": report.grouping_used,
    }
    if report.corrected_states is not None:
        payload["correctedStates"] = [s if s is None else s.matrix for s in report.corrected_states]
    grouped = " (grouped outcomes)" if report.grouping_used else ""
    summary = f"success probability {report.success_probability:.6f}{grouped}"
    return docs.dumps(payload), summary, EXIT_OK


def _selftest(args) -> tuple[str, str, int]:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    start = time.monotonic()
    results = run_selftest(args.seed, args.trials, tol=args.tol)
    elapsed = time.monotonic() - start
    all_passed = all(r.passed for r in results)
    checks = [
        {"name": r.name, "maxDeviation": r.max_deviation, "threshold": r.threshold, "pass": r.passed}
        for r in results
    ]
    payload = {"kind": "selftest_report", "seed": args.seed, "trials": args.trials,
               "elapsedSeconds": elapsed, "pass": all_passed, "checks": checks}
    # one line per check, then the verdict
    lines = [f"{r.name}: maxDeviation {r.max_deviation:.3e} (threshold {r.threshold:g}) "
             f"{'PASS' if r.passed else 'FAIL'}" for r in results]
    lines.append(f"selftest {'PASS' if all_passed else 'FAIL'} in {elapsed:.1f}s")
    return docs.dumps(payload), "\n".join(lines), EXIT_OK if all_passed else EXIT_INVARIANT


_TOL = {"type": float, "default": IDENTITY_TOL}

# name: (help, options, run).  An option whose spec is a document class is a
# required path, which ``main`` replaces by the loaded document, in declared
# order, before ``run(args)``; any other spec holds its argparse keywords.
# ``run`` returns the stdout text, the stderr summary and the exit code.
COMMANDS = {
    "choi": (
        "conditional-state form of a channel",
        {"--channel": Channel},
        lambda a: _document(choi_conditional(a.channel), lambda c: (
            f"conditional form: trace {c.rank}, kron dim {c.matrix.shape[0]}")),
    ),
    "channel": (
        "recover the Kraus channel from a conditional",
        {"--conditional": ConditionalState},
        lambda a: _document(channel_from_conditional(a.conditional), lambda c: (
            f"recovered channel with {len(c.kraus)} Kraus operators"
            + (" (support-restricted)" if c.input_support is not None else ""))),
    ),
    "condition": (
        "condition a joint state on one side",
        {"--joint": JointState, "--on": {"required": True, "choices": ["A", "B", "a", "b"]}},
        lambda a: _document(conditional_from_joint(a.joint, a.on.lower()), lambda c: (
            f"conditioned on side {a.on.lower()}: rank {c.rank}")),
    ),
    "join": (
        "rebuild a joint state from marginal and conditional",
        {"--marginal": State, "--conditional": ConditionalState},
        lambda a: _document(joint_from_conditional(a.marginal, a.conditional),
                            "joint state rebuilt from marginal and conditional"),
    ),
    "bayes": (
        "invert a conditional using both marginals",
        {"--conditional": ConditionalState, "--marginal-a": State, "--marginal-b": State},
        lambda a: _document(bayes_invert(a.conditional, a.marginal_a, a.marginal_b),
                            "conditional inverted"),
    ),
    "verify-theorem": (
        "compare joint-measurement statistics against prepare-and-measure",
        {"--joint": JointState, "--povm-a": POVM, "--povm-b": POVM, "--tol": _TOL},
        _verify_theorem,
    ),
    "teleport": (
        "run noisy-gate teleportation",
        {"--channel": Channel, "--input": State},
        _teleport,
    ),
    "prepare": (
        "POVM-preparation ensemble of a state",
        {"--povm": POVM, "--state": State},
        lambda a: _document(prepare(a.povm, a.state), lambda e: (
            f"ensemble with {len(e.members)} members")),
    ),
    "selftest": (
        "run the randomized invariant suite",
        {"--seed": {"type": int, "default": 0}, "--trials": {"type": int, "default": 20},
         "--tol": _TOL},
        _selftest,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="condchan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            p.add_argument(flag, **({"required": True} if isinstance(spec, type) else spec))
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
        _, options, run = COMMANDS[args.command]
        for flag, spec in options.items():
            if isinstance(spec, type):  # a document: load the path argparse stored
                dest = flag[2:].replace("-", "_")
                setattr(args, dest, _load(getattr(args, dest), spec))
        text, summary, code = run(args)
        sys.stdout.write(text)
        sys.stderr.write(summary.rstrip() + "\n")
        return code
    except (CondChanError, FloatingPointError, np.linalg.LinAlgError) as exc:
        # numpy's own floating-point and linear-algebra errors are numerical failures
        code = getattr(exc, "exit_code", EXIT_NUMERICAL)
        sys.stderr.write(f"{_LABELS[code]}: {exc}\n")
        return code


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
