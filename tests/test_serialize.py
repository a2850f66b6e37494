import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condchan import (
    DocumentSyntaxError,
    InvariantViolation,
    State,
    maximally_mixed,
    prepare,
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
)
from condchan.channels import choi_conditional
from condchan.serialize import parse, serialize
from conftest import BIT, MIXED, QUBIT

MINIMAL_STATE = """
{"kind": "state", "shape": [2], "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
"""

BAD_TRACE_STATE = """
{"kind": "state", "shape": [2], "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]}
"""


def corpus(rng):
    docs = [
        random_state(QUBIT, rng),
        random_state(MIXED, rng),
        random_joint_state(QUBIT, BIT, rng),
        choi_conditional(random_channel(MIXED, QUBIT, 2, rng)),
        random_channel(QUBIT, MIXED, 2, rng),
        random_povm(BIT, 3, rng),
        prepare(random_povm(QUBIT, 2, rng), random_state(QUBIT, rng)),
    ]
    return docs


def payload_matrices(obj):
    from condchan import POVM, Channel, ConditionalState, Ensemble, JointState

    if isinstance(obj, (State, JointState, ConditionalState)):
        return [obj.matrix]
    if isinstance(obj, Channel):
        return list(obj.kraus)
    if isinstance(obj, POVM):
        return list(obj.elements)
    if isinstance(obj, Ensemble):
        return [m.matrix for m in obj.members] + [obj.average.matrix, obj.weights]
    raise AssertionError(type(obj))


def test_minimal_state_parses():
    s = parse(MINIMAL_STATE)
    assert isinstance(s, State)
    np.testing.assert_allclose(s.matrix, np.eye(2) / 2)


def test_trace_violation_carries_name_and_deviation():
    with pytest.raises(InvariantViolation) as err:
        parse(BAD_TRACE_STATE)
    assert err.value.invariant == "trace"
    assert err.value.deviation == pytest.approx(0.1)


def test_round_trip_corpus_bit_exact(rng):
    for obj in corpus(rng):
        text = serialize(obj)
        back = parse(text)
        assert type(back) is type(obj)
        for a, b in zip(payload_matrices(back), payload_matrices(obj)):
            assert np.array_equal(a, b)
        assert serialize(back) == text


def test_json_syntax_error_has_position():
    with pytest.raises(DocumentSyntaxError) as err:
        parse('{"kind": "state",\n  broken}')
    assert err.value.line == 2


def test_unknown_kind():
    with pytest.raises(DocumentSyntaxError):
        parse('{"kind": "wavefunction", "shape": [2], "matrix": []}')


def test_missing_key():
    with pytest.raises(DocumentSyntaxError):
        parse('{"kind": "state", "shape": [2]}')


def test_malformed_matrix():
    with pytest.raises(DocumentSyntaxError):
        parse('{"kind": "state", "shape": [2], "matrix": [[1, 2], [3, 4]]}')


def test_non_object_root():
    with pytest.raises(DocumentSyntaxError):
        parse("[1, 2, 3]")


@pytest.mark.parametrize(
    "shape", ["[2.7]", "[2.0]", '"2"', "[true]", "[false, 2]", "2", '{"0": 2}', "null"]
)
def test_shape_must_be_a_list_of_integers(shape):
    doc = MINIMAL_STATE.replace('"shape": [2]', f'"shape": {shape}')
    with pytest.raises(DocumentSyntaxError, match="list of integers"):
        parse(doc)


@settings(max_examples=50, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1.0))
def test_float_payload_round_trips_exactly(x):
    s = State(QUBIT, np.diag([x, 1.0 - x]).astype(complex), check=False)
    back = parse(serialize(s))
    assert back.matrix[0, 0] == x


def test_serialize_rejects_unknown_objects():
    with pytest.raises(DocumentSyntaxError):
        serialize({"not": "a document"})


def test_support_flag_round_trips(rng):
    from condchan import channel_from_conditional, conditional_from_joint

    j = random_joint_state(QUBIT, QUBIT, rng, rank_a=1)
    c = channel_from_conditional(conditional_from_joint(j, "a"))
    assert c.input_support is not None
    back = parse(serialize(c))
    assert np.array_equal(back.input_support, c.input_support)


def test_maximally_mixed_example():
    text = serialize(maximally_mixed(BIT))
    assert '"kind": "state"' in text
    back = parse(text)
    np.testing.assert_allclose(back.matrix, np.eye(2) / 2)
