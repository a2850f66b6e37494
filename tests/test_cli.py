"""End-to-end CLI tests through subprocess, plus exit-code mapping, and
``main`` in process sharing one parser across calls and threads, raising
every library error, and fuzzed over argv and documents."""

import argparse
import copy
import io
import json
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from condchan import (
    BasisNotPOVM,
    CondChanError,
    DimensionMismatch,
    DocumentSyntaxError,
    InvariantViolation,
    NoConvergence,
    NotHermitian,
    NotPositive,
    NotTracePreserving,
    ShapeMismatch,
    SupportMismatch,
    SupportViolation,
    choi_conditional,
    cli,
    conditional_from_joint,
    reduce,
)
from condchan.errors import UsageError
from condchan.selftest import run_selftest
from condchan.serialize import KINDS, parse, serialize
from conftest import QUBIT, maximally_mixed

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, expect=0):
    completed = subprocess.run(
        [sys.executable, "-m", "condchan.cli", *args],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == expect, completed.stderr
    return completed


def test_choi_then_channel_round_trip(tmp_path):
    out = run_cli("choi", "--channel", str(FIXTURES / "identity_channel.json"))
    cond_path = tmp_path / "cond.json"
    cond_path.write_text(out.stdout, encoding="utf-8")
    cond = parse(out.stdout)
    assert cond.rank == 2

    out2 = run_cli("channel", "--conditional", str(cond_path))
    channel = parse(out2.stdout)
    s = maximally_mixed(QUBIT)
    from condchan import apply

    np.testing.assert_allclose(apply(channel, s).matrix, s.matrix, atol=1e-9)


def test_condition_and_join_round_trip(tmp_path):
    joint_path = FIXTURES / "theorem_joint.json"
    out = run_cli("condition", "--joint", str(joint_path), "--on", "A")
    cond_path = tmp_path / "cond.json"
    cond_path.write_text(out.stdout, encoding="utf-8")

    joint = parse(joint_path.read_text(encoding="utf-8"))
    from condchan import reduce

    marg_path = tmp_path / "marg.json"
    marg_path.write_text(serialize(reduce(joint, "a")), encoding="utf-8")

    out2 = run_cli("join", "--marginal", str(marg_path), "--conditional", str(cond_path))
    rebuilt = parse(out2.stdout)
    np.testing.assert_allclose(rebuilt.matrix, joint.matrix, atol=1e-9)


def test_bayes_command(tmp_path):
    joint = parse((FIXTURES / "theorem_joint.json").read_text(encoding="utf-8"))
    from condchan import conditional_from_joint, reduce

    cond_path = tmp_path / "cond_ab.json"
    cond_path.write_text(serialize(conditional_from_joint(joint, "b")), encoding="utf-8")
    a_path = tmp_path / "a.json"
    a_path.write_text(serialize(reduce(joint, "a")), encoding="utf-8")
    b_path = tmp_path / "b.json"
    b_path.write_text(serialize(reduce(joint, "b")), encoding="utf-8")

    out = run_cli(
        "bayes",
        "--conditional",
        str(cond_path),
        "--marginal-a",
        str(a_path),
        "--marginal-b",
        str(b_path),
    )
    inverted = parse(out.stdout)
    np.testing.assert_allclose(
        inverted.matrix, conditional_from_joint(joint, "a").matrix, atol=1e-9
    )


def test_verify_theorem_golden_fixture():
    out = run_cli(
        "verify-theorem",
        "--joint",
        str(FIXTURES / "theorem_joint.json"),
        "--povm-a",
        str(FIXTURES / "theorem_povm_a.json"),
        "--povm-b",
        str(FIXTURES / "theorem_povm_b.json"),
    )
    report = json.loads(out.stdout)
    assert report["kind"] == "theorem_report"
    assert report["maxDeviation"] < 1e-9
    assert "maxDeviation" in out.stderr or "PASS" in out.stderr


def test_teleport_identity_qubit_reports_quarter():
    out = run_cli(
        "teleport",
        "--channel",
        str(FIXTURES / "identity_channel.json"),
        "--input",
        str(FIXTURES / "qubit_state.json"),
    )
    report = json.loads(out.stdout)
    assert report["successProbability"] == pytest.approx(0.25, abs=1e-12)
    assert sum(report["probabilities"]) == pytest.approx(1.0, abs=1e-9)
    assert not report["groupingUsed"]


def test_teleport_classical_reports_half():
    out = run_cli(
        "teleport",
        "--channel",
        str(FIXTURES / "bit_identity_channel.json"),
        "--input",
        str(FIXTURES / "bit_state.json"),
        "--classical",
    )
    report = json.loads(out.stdout)
    assert report["successProbability"] == pytest.approx(0.5, abs=1e-12)
    assert report["groupingUsed"]
    corrected = np.array([[complex(*z) for z in row] for row in report["correctedStates"][1]])
    np.testing.assert_allclose(corrected, np.diag([1.0, 0.0]), atol=1e-12)


def test_prepare_command(tmp_path):
    out = run_cli(
        "prepare",
        "--povm",
        str(FIXTURES / "theorem_povm_a.json"),
        "--state",
        str(FIXTURES / "qubit_state.json"),
    )
    ensemble = parse(out.stdout)
    assert abs(float(np.sum(ensemble.weights)) - 1.0) < 1e-9


def test_selftest_small():
    out = run_cli("selftest", "--seed", "7", "--trials", "4")
    report = json.loads(out.stdout)
    assert report["pass"] is True
    assert all(check["pass"] for check in report["checks"])


class TestExitCodes:
    def test_usage_error_is_1(self):
        run_cli("choi", expect=1)  # missing required --channel

    def test_unknown_command_is_1(self):
        run_cli("frobnicate", expect=1)

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_selftest_without_trials_is_1(self, trials):
        completed = run_cli("selftest", "--trials", trials, expect=1)
        assert completed.stderr == f"usage error: --trials must be at least 1, got {trials}\n"

    def test_negative_seed_is_1(self):
        assert run_main("selftest", "--seed", "-1") == (
            1, "", "usage error: --seed must be non-negative, got -1\n")

    def test_document_that_is_not_utf8_is_2(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "st\xe4te"}')
        code, out, err = run_main("choi", "--channel", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["selftest", "--trials", "1"],
            ["teleport", "--channel", str(FIXTURES / "identity_channel.json"),
             "--input", str(FIXTURES / "qubit_state.json")],
            ["verify-theorem", "--joint", str(FIXTURES / "theorem_joint.json"),
             "--povm-a", str(FIXTURES / "theorem_povm_a.json"),
             "--povm-b", str(FIXTURES / "theorem_povm_b.json")],
        ],
        ids=lambda arg: arg[0] if isinstance(arg, list) else None,
    )
    def test_tolerance_that_is_not_positive_finite_is_1(self, command, tol):
        completed = run_cli(*command, f"--tol={tol}", expect=1)
        assert completed.stdout == ""
        message = f"--tol must be a positive finite number, got {float(tol)}"
        if command[0] == "teleport":  # judges no tolerance, so takes no --tol
            message = f"unrecognized arguments: --tol={tol}"
        assert completed.stderr == f"usage error: {message}\n"

    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        run_cli("choi", "--channel", str(bad), expect=2)

    def test_missing_file_is_2(self):
        run_cli("choi", "--channel", "/nonexistent.json", expect=2)

    @pytest.mark.parametrize("shape", [[2.7], "2", [True]])
    def test_malformed_shape_is_2(self, tmp_path, shape):
        doc = json.loads(serialize(maximally_mixed(QUBIT)))
        doc["shape"] = shape
        bad = tmp_path / "shape.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        completed = run_cli(
            "teleport",
            "--channel",
            str(FIXTURES / "identity_channel.json"),
            "--input",
            str(bad),
            expect=2,
        )
        assert "list of integers" in completed.stderr

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "state", "shape": [2], "matrix": [[{"a": 1}]]}',
            '{"kind": "ensemble", "shape": [2], "weights": [1.0], "members": 5, "average": []}',
            "[" * 100_000,
        ],
        ids=["matrix-object-entry", "ensemble-members-not-a-list", "deep-nesting"],
    )
    def test_malformed_document_is_2(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        completed = run_cli(
            "teleport",
            "--channel",
            str(FIXTURES / "identity_channel.json"),
            "--input",
            str(bad),
            expect=2,
        )
        assert completed.stderr.startswith("parse error: ")
        assert "(line 0" not in completed.stderr

    def test_wrong_kind_is_2(self):
        run_cli("choi", "--channel", str(FIXTURES / "qubit_state.json"), expect=2)

    def test_invariant_violation_is_3(self, tmp_path):
        doc = {
            "kind": "state",
            "shape": [2],
            "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]],
        }
        bad = tmp_path / "trace.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        completed = run_cli(
            "teleport",
            "--channel",
            str(FIXTURES / "identity_channel.json"),
            "--input",
            str(bad),
            expect=3,
        )
        assert "trace" in completed.stderr

    def test_non_finite_payload_is_3(self, tmp_path):
        # NaN entries would slip through every finite-tolerance comparison,
        # so finiteness is its own named invariant
        doc = {
            "kind": "state",
            "shape": [2],
            "matrix": [[[0.5, 0.0], [float("nan"), 0.0]], [[float("nan"), 0.0], [0.5, 0.0]]],
        }
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        completed = run_cli(
            "teleport",
            "--channel",
            str(FIXTURES / "identity_channel.json"),
            "--input",
            str(bad),
            expect=3,
        )
        assert "finite" in completed.stderr

    @pytest.mark.parametrize(
        "entry", [[float("nan"), 0.0], [1e308, 1e308]], ids=["nan", "overflowing"]
    )
    @pytest.mark.parametrize("command", ["choi", "teleport"])
    def test_non_finite_or_overflowing_kraus_is_3(self, tmp_path, command, entry):
        doc = json.loads((FIXTURES / "identity_channel.json").read_text(encoding="utf-8"))
        doc["kraus"][0][0][0] = entry
        bad = tmp_path / "kraus.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        args = ["--channel", str(bad)]
        if command == "teleport":
            args += ["--input", str(FIXTURES / "qubit_state.json")]
        completed = run_cli(command, *args, expect=3)
        assert completed.stderr.startswith("invariant violation: ")

    def test_overflowing_conditional_is_3(self, tmp_path):
        big = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]
        doc = {"kind": "conditional", "shape_in": [1], "shape_out": [2], "matrix": big}
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        completed = run_cli("channel", "--conditional", str(bad), expect=3)
        assert "invariant violation: invariant 'overflow'" in completed.stderr
        assert "RuntimeWarning" not in completed.stderr

    def test_unattained_tolerance_is_4(self):
        # deviations are ~1e-15; an impossible tolerance must exit as a
        # numerical failure, not silently pass
        run_cli(
            "verify-theorem",
            "--joint",
            str(FIXTURES / "theorem_joint.json"),
            "--povm-a",
            str(FIXTURES / "theorem_povm_a.json"),
            "--povm-b",
            str(FIXTURES / "theorem_povm_b.json"),
            "--tol",
            "1e-30",
            expect=4,
        )


def test_data_on_stdout_summary_on_stderr():
    out = run_cli("choi", "--channel", str(FIXTURES / "identity_channel.json"))
    json.loads(out.stdout)  # stdout is pure JSON
    assert out.stderr.strip()  # summary goes to stderr


# -- in process: main() shares one parser ------------------------------------


class PerThreadStream:
    """A stdout/stderr stand-in that keeps each thread's writes apart."""

    def __init__(self):
        self.local = threading.local()

    def write(self, text):
        if not hasattr(self.local, "parts"):
            self.local.parts = []
        self.local.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def take(self):
        text = "".join(getattr(self.local, "parts", []))
        self.local.parts = []
        return text


def call_main(argv, out, err):
    """Run ``cli.main`` in this process while ``out`` and ``err`` stand in
    for stdout and stderr; (exit code, this thread's stdout, its stderr)."""
    code = cli.main(list(argv))
    return code, out.take(), err.take()


def run_main(*argv):
    out, err = PerThreadStream(), PerThreadStream()
    with redirect_stdout(out), redirect_stderr(err):
        return call_main(argv, out, err)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """argv of each of the nine subcommands on the fixtures."""
    tmp = tmp_path_factory.mktemp("docs")
    joint = parse((FIXTURES / "theorem_joint.json").read_text(encoding="utf-8"))
    channel = parse((FIXTURES / "identity_channel.json").read_text(encoding="utf-8"))
    docs = {
        "choi": choi_conditional(channel),
        "cond_a": conditional_from_joint(joint, "a"),
        "cond_b": conditional_from_joint(joint, "b"),
        "marg_a": reduce(joint, "a"),
        "marg_b": reduce(joint, "b"),
    }
    path = {name: str(FIXTURES / f"{name}.json") for name in (
        "identity_channel", "qubit_state", "theorem_joint", "theorem_povm_a", "theorem_povm_b",
    )}
    for name, obj in docs.items():
        (tmp / f"{name}.json").write_text(serialize(obj), encoding="utf-8")
        path[name] = str(tmp / f"{name}.json")
    return {
        "choi": ["choi", "--channel", path["identity_channel"]],
        "channel": ["channel", "--conditional", path["choi"]],
        "condition": ["condition", "--joint", path["theorem_joint"], "--on", "A"],
        "join": ["join", "--marginal", path["marg_a"], "--conditional", path["cond_a"]],
        "bayes": ["bayes", "--conditional", path["cond_b"],
                  "--marginal-a", path["marg_a"], "--marginal-b", path["marg_b"]],
        "verify-theorem": ["verify-theorem", "--joint", path["theorem_joint"],
                           "--povm-a", path["theorem_povm_a"], "--povm-b", path["theorem_povm_b"]],
        "teleport": ["teleport", "--channel", path["identity_channel"],
                     "--input", path["qubit_state"]],
        "prepare": ["prepare", "--povm", path["theorem_povm_a"], "--state", path["qubit_state"]],
        "selftest": ["selftest", "--seed", "3", "--trials", "1"],
    }


BIT_TELEPORT = [
    "teleport", "--channel", str(FIXTURES / "bit_identity_channel.json"),
    "--input", str(FIXTURES / "bit_state.json"),
]


def test_main_builds_one_parser_for_all_commands(commands, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser()
    one_parser = list(built)  # the top-level parser and its nine subparsers
    assert one_parser.count("condchan") == 1 and len(one_parser) == 1 + len(commands)
    built.clear()
    cli._parser.cache_clear()
    for argv in commands.values():
        code, _, err = run_main(*argv)
        assert code == 0, err
    assert built == one_parser
    run_main(*commands["choi"])
    assert built == one_parser


def test_store_true_flag_does_not_carry_to_the_next_call(commands):
    code, out, _ = run_main(*BIT_TELEPORT, "--classical")
    assert code == 0 and json.loads(out)["groupingUsed"] is True
    code, out, _ = run_main(*commands["teleport"])
    assert code == 0 and json.loads(out)["groupingUsed"] is False
    # the bit documents without the flag take the irreducible route, which
    # rejects them
    run_main(*BIT_TELEPORT, "--classical")
    code, _, err = run_main(*BIT_TELEPORT)
    assert code == 3 and "irreducible input algebra" in err


def test_tolerance_does_not_carry_to_the_next_call():
    default = [r.threshold for r in run_selftest(3, 1)]
    assert 1e-7 not in default

    def thresholds(*extra):
        code, out, _ = run_main("selftest", "--seed", "3", "--trials", "1", *extra)
        assert code == 0
        return [check["threshold"] for check in json.loads(out)["checks"]]

    assert thresholds() == default
    assert 1e-7 in thresholds("--tol", "1e-7")
    assert thresholds() == default


@pytest.mark.parametrize("bad", [
    ["teleport", "--channel", str(FIXTURES / "identity_channel.json")],  # missing --input
    ["teleport", "--classical", "--tol", "1e-9", *BIT_TELEPORT[1:]],
    ["frobnicate"],
])
def test_usage_error_does_not_affect_the_next_call(commands, bad):
    expected = run_main(*commands["teleport"])
    code, out, err = run_main(*bad)
    assert code == 1 and out == "" and err.startswith("usage error: ")
    assert run_main(*commands["teleport"]) == expected


@pytest.mark.parametrize("argv", [
    ["--help"], ["teleport", "--help"], ["selftest", "--help"], ["--he"], ["teleport", "--he"],
])
def test_help_equals_that_of_a_fresh_parser(commands, argv):
    # main returns 0 with the help on stdout; only build_parser's parser exits
    run_main(*commands["choi"])
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(argv)
    assert exited.value.code == 0
    fresh = out.getvalue()
    assert "usage: condchan" in fresh
    assert run_main(*argv) == (0, fresh, "")
    assert run_main(*argv) == (0, fresh, "")


def test_main_from_threads_matches_sequential_calls(commands):
    script = [
        commands["choi"],
        [*BIT_TELEPORT, "--classical"],
        commands["teleport"],
        ["teleport", "--classical", "--seed", "0", *commands["teleport"][1:]],
        commands["condition"],
        ["condition", *commands["condition"][1:-1], "b"],
        [*commands["verify-theorem"], "--tol", "1e-30"],
        commands["verify-theorem"],
    ]
    out, err = PerThreadStream(), PerThreadStream()
    n = len(script)
    # more threads than the two cores of a small machine, each in its own
    # order, and frequent thread switches to interleave the parsing
    orders = [list(range(n)), list(reversed(range(n))), [(3 * k) % n for k in range(n)]]
    results = [None] * len(orders)

    def worker(i):
        results[i] = [(k, call_main(script[k], out, err)) for k in orders[i] for _ in range(2)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    with redirect_stdout(out), redirect_stderr(err):
        expected = [call_main(argv, out, err) for argv in script]
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [code for code, _, _ in expected] == [0, 0, 0, 1, 0, 0, 4, 0]
    for got in results:
        assert len(got) == 2 * n
        for k, result in got:
            assert result == expected[k], script[k]


def _error_cases():
    labels = {1: "usage error", 2: "parse error", 3: "invariant violation", 4: "numerical failure"}
    invariant = (ShapeMismatch, DimensionMismatch, NotHermitian, NotPositive, SupportMismatch,
                 NotTracePreserving, BasisNotPOVM, SupportViolation)
    cases = [(UsageError("bad flag"), 1), (DocumentSyntaxError("bad text", 3, 7), 2),
             (InvariantViolation("positive", 0.5), 3),
             *[(cls(f"{cls.__name__} raised"), 3) for cls in invariant],
             (NoConvergence("eigh did not converge"), 4),
             (FloatingPointError("overflow"), 4), (np.linalg.LinAlgError("singular"), 4)]
    return [pytest.param(exc, code, f"{labels[code]}: {exc}\n", id=type(exc).__name__)
            for exc, code in cases]


def _subclasses(cls):
    return {cls, *(s for sub in cls.__subclasses__() for s in _subclasses(sub))}


def test_error_cases_cover_every_library_error():
    covered = {param.values[0].__class__ for param in _error_cases()}
    assert _subclasses(CondChanError) - {CondChanError} <= covered


@pytest.mark.parametrize("exc, code, stderr", _error_cases())
def test_error_raised_inside_a_command_maps_to_its_exit_code(commands, monkeypatch, exc, code, stderr):
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "conditional_from_joint", failing)
    assert run_main(*commands["condition"]) == (code, "", stderr)


# -- fuzz: main in process over arbitrary argv and documents ------------------


def _valid_docs():
    """The fixture documents and the conditionals and marginals derived from
    them, as JSON values."""
    joint = parse((FIXTURES / "theorem_joint.json").read_text(encoding="utf-8"))
    channel = parse((FIXTURES / "identity_channel.json").read_text(encoding="utf-8"))
    derived = [conditional_from_joint(joint, "a"), conditional_from_joint(joint, "b"),
               choi_conditional(channel), reduce(joint, "a"), reduce(joint, "b")]
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(FIXTURES.glob("*.json"))] + [
        json.loads(serialize(obj)) for obj in derived]


VALID_DOCS = _valid_docs()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
ODD_NUMBERS = st.sampled_from([float("nan"), float("inf"), -1e308, 1e308, -0.0, 0, -1, 2**70, True])


@st.composite
def mutated_docs(draw):
    """A valid document with one to three entries replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is not None:
            action = draw(st.sampled_from(["delete", "number", "value"]))
            if action == "delete":
                del parent[key]
            else:
                parent[key] = draw(ODD_NUMBERS if action == "number" else JSON_VALUES)
    return doc


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


NOT_JSON = (
    st.text(max_size=20).filter(lambda t: not _is_json(t)).map(str.encode)
    | st.binary(max_size=20).filter(lambda b: not _is_json(b))
)
DOCUMENTS = NOT_JSON | st.one_of(JSON_VALUES, mutated_docs(), st.sampled_from(VALID_DOCS)).map(
    lambda v: json.dumps(v).encode())
SLOT_KINDS = {"--channel": "channel", "--conditional": "conditional", "--joint": "joint_state",
              "--marginal": "state", "--marginal-a": "state", "--marginal-b": "state",
              "--povm-a": "povm", "--povm-b": "povm", "--povm": "povm", "--input": "state",
              "--state": "state"}
# the options of every command: a document slot, or the kind of value it takes
OPTIONS = {
    "choi": ["--channel"],
    "channel": ["--conditional"],
    "condition": ["--joint", "--on"],
    "join": ["--marginal", "--conditional"],
    "bayes": ["--conditional", "--marginal-a", "--marginal-b"],
    "verify-theorem": ["--joint", "--povm-a", "--povm-b", "--tol"],
    "teleport": ["--channel", "--input", "--classical"],
    "prepare": ["--povm", "--state"],
    "selftest": ["--seed", "--trials", "--tol"],
}
VALUES = {
    "--tol": st.sampled_from(["1e-9", "1e-3", "1e300", "0", "-1", "nan", "inf", "1e-400"])
    | st.floats(min_value=0.0).map(repr) | st.text(max_size=4),
    "--on": st.sampled_from(["A", "b", "c", ""]),
    "--seed": st.integers().map(str) | st.text(max_size=4),
    # selftest runs 14 checks per trial: larger counts are valid, only slow
    "--trials": st.integers(-2, 2).map(str) | st.text(max_size=4),
}


OFTEN = st.sampled_from([True] * 4 + [False])


@st.composite
def command_lines(draw, documents):
    """argv of one of the nine commands, each option present or not, with a
    drawn value; a document option names a valid document of its kind or any
    of ``documents`` (the drawn ones, a missing file and a directory)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag in OPTIONS[command]:
        if not draw(OFTEN):
            continue
        if flag == "--classical":
            argv.append(flag)
        elif flag in SLOT_KINDS:
            valid = [path for path, kind in documents["valid"] if kind == SLOT_KINDS[flag]]
            argv += [flag, draw(st.sampled_from(valid if draw(OFTEN) else documents["any"]))]
        else:
            argv += [flag, draw(VALUES[flag])]
    if not draw(OFTEN):
        argv.append(draw(st.text(max_size=6)))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_paths(fuzz_dir):
    """(path, kind) of every valid document, written once."""
    paths = []
    for i, doc in enumerate(VALID_DOCS):
        path = fuzz_dir / f"valid{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append((str(path), doc["kind"]))
    return paths


def run_main_capturing(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(data=st.data(), docs=st.lists(DOCUMENTS, min_size=1, max_size=3))
def test_main_returns_an_exit_code_for_any_input(fuzz_dir, valid_paths, data, docs):
    drawn = [str(fuzz_dir / "missing.json"), str(fuzz_dir)]
    for i, doc in enumerate(docs):
        path = fuzz_dir / f"doc{i}.json"
        path.write_bytes(doc)
        drawn.append(str(path))
    argv = data.draw(command_lines({"valid": valid_paths, "any": drawn}))
    code, err = run_main_capturing(argv)
    event(f"exit {code}")
    assert code in range(5), (argv, err)


NOT_A_KIND = (
    NOT_JSON
    | JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(lambda v: json.dumps(v).encode())
    | st.builds(
        lambda v, kind: json.dumps(v if kind is None else {**v, "kind": kind}).encode(),
        st.dictionaries(st.text(max_size=4).filter(lambda k: k != "kind"), JSON_VALUES, max_size=2),
        st.none() | JSON_VALUES.filter(lambda k: k not in KINDS),
    )
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), doc=NOT_A_KIND | st.sampled_from(VALID_DOCS))
def test_document_that_is_not_the_wanted_kind_exits_2(commands, fuzz_dir, data, doc):
    argv = list(data.draw(st.sampled_from([a for a in commands.values() if a[0] != "selftest"])))
    slot = data.draw(st.sampled_from([i for i, a in enumerate(argv) if a in SLOT_KINDS]))
    if isinstance(doc, dict):  # a valid document, of another kind than the slot wants
        assume(doc["kind"] != SLOT_KINDS[argv[slot]])
        doc = json.dumps(doc).encode()
    path = fuzz_dir / "wrong.json"
    path.write_bytes(doc)
    argv[slot + 1] = str(path)
    code, err = run_main_capturing(argv)
    assert code == 2 and err.startswith("parse error: "), (argv, doc, err)
