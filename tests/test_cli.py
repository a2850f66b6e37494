"""End-to-end CLI tests through subprocess, plus exit-code mapping."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from condchan import maximally_mixed
from condchan.serialize import parse, serialize
from conftest import QUBIT

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
