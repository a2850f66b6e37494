import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condchan import (
    AlgebraShape,
    CondChanError,
    ConditionalState,
    DocumentSyntaxError,
    InvariantViolation,
    State,
    bayes_invert,
    channel_from_conditional,
    conditional_from_joint,
    joint_from_conditional,
    prepare,
    random_channel,
    random_joint_state,
    random_povm,
    random_state,
    reduce,
)
from condchan.channels import choi_conditional
from condchan.serialize import _SCHEMA, dumps, encode_matrix, parse, serialize, to_payload
from conftest import BIT, MIXED, QUBIT, maximally_mixed

FIXTURES = Path(__file__).parent / "fixtures"
ONE = AlgebraShape((1,))
TRIT = AlgebraShape((1, 1, 1))
D16 = AlgebraShape((16,))
REDUCIBLE16 = AlgebraShape((8, 4, 2, 1, 1))
QUART = AlgebraShape((4,))

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
    # a list or an object must not reach the kind table as an unhashable key
    for kind in ('"wavefunction"', "[]", "{}", "null", "1", "true"):
        with pytest.raises(DocumentSyntaxError, match="unknown document kind"):
            parse(f'{{"kind": {kind}, "shape": [2], "matrix": []}}')


def test_document_keys_are_the_constructor_arguments():
    # a new constructor field cannot silently drop out of documents; an
    # InitVar such as ``check`` is not a field
    for kind, (cls, keys) in _SCHEMA.items():
        assert list(keys) == [f.name for f in dataclasses.fields(cls) if f.init], kind


def test_missing_key():
    with pytest.raises(DocumentSyntaxError):
        parse('{"kind": "state", "shape": [2]}')


def test_malformed_matrix():
    with pytest.raises(DocumentSyntaxError):
        parse('{"kind": "state", "shape": [2], "matrix": [[1, 2], [3, 4]]}')


@pytest.mark.parametrize(
    "matrix",
    [
        '[[{"a": 1}, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]',
        "[[[0.5, 0.0, 7], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]",
        "[[[0.5, 0.0], null], [[0.0, 0.0], [0.5, 0.0]]]",
        '[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["0.5", 0.0]]]',
        "[[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]",
        "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5]]]",
        "[[[true, false], [false, false]], [[false, false], [true, false]]]",
        "[[[true, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]",
        "[[[0.5, 0], [0, false]], [[0, 0], [0.5, 0]]]",
        "[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [100000000000000000000000, 0.0]]]",
        "[[]]",
        "[]",
        "0.5",
    ],
    ids=["object", "triple", "null", "string", "ragged-rows", "short-pair",
         "booleans", "boolean-among-floats", "boolean-among-ints", "huge-int", "empty-row",
         "empty", "scalar"],
)
def test_malformed_matrix_entries(matrix):
    with pytest.raises(DocumentSyntaxError, match="matrix"):
        parse(f'{{"kind": "state", "shape": [2], "matrix": {matrix}}}')


def test_integer_entries_decode_as_floats():
    s = parse(MINIMAL_STATE.replace("[0.0, 0.0]", "[0, 0]"))
    assert s.matrix.dtype == np.complex128
    assert np.array_equal(s.matrix, np.eye(2) / 2)


@pytest.mark.parametrize("key", ["weights", "members"])
@pytest.mark.parametrize("value", ["5", '"1"', '{"0": 1.0}', "null"])
def test_ensemble_lists_must_be_lists(rng, key, value):
    doc = json.loads(serialize(prepare(random_povm(QUBIT, 2, rng), random_state(QUBIT, rng))))
    doc[key] = json.loads(value)
    with pytest.raises(DocumentSyntaxError, match="lists"):
        parse(json.dumps(doc))


def test_boolean_in_any_matrix_is_rejected(rng):
    # the Kraus list and the ensemble's members are matrices too
    for obj, key in ((random_channel(QUBIT, QUBIT, 2, rng), "kraus"),
                     (prepare(random_povm(QUBIT, 2, rng), random_state(QUBIT, rng)), "members")):
        doc = json.loads(serialize(obj))
        doc[key][0][0][0][1] = False
        with pytest.raises(DocumentSyntaxError, match=f"matrix '{key}'"):
            parse(json.dumps(doc))


@pytest.mark.parametrize(
    "weight", ['"nan"', '"inf"', '"{w!r}"', '" {w!r} "', "true"],
    ids=["nan", "inf", "number-string", "padded-number-string", "true"],
)
def test_weights_must_be_json_numbers(rng, weight):
    # a string or a boolean is not read as a number, even one that float() reads
    doc = json.loads(serialize(prepare(random_povm(QUBIT, 2, rng), random_state(QUBIT, rng))))
    doc["weights"][0] = json.loads(weight.format(w=doc["weights"][0]))
    with pytest.raises(DocumentSyntaxError, match="weights must be JSON numbers"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("weight", ["NaN"])
def test_non_finite_weights_are_rejected(rng, weight):
    doc = json.loads(serialize(prepare(random_povm(QUBIT, 2, rng), random_state(QUBIT, rng))))
    doc["weights"] = [json.loads(weight)] * len(doc["weights"])
    with pytest.raises(InvariantViolation) as err:
        parse(json.dumps(doc))
    assert err.value.invariant == "finite"


def test_weight_too_large_for_a_float(rng):
    doc = json.loads(serialize(prepare(random_povm(QUBIT, 2, rng), random_state(QUBIT, rng))))
    doc["weights"][0] = 10**400
    with pytest.raises(DocumentSyntaxError, match="weights"):
        parse(json.dumps(doc))


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(DocumentSyntaxError, match="too deep"):
        parse("[" * 100_000)


def test_error_without_position_has_no_position():
    with pytest.raises(DocumentSyntaxError) as err:
        parse('{"kind": "state", "shape": [2]}')
    assert str(err.value) == "missing required key 'matrix'"
    assert (err.value.line, err.value.column) == (0, 0)


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


def json_oracle(obj) -> str:
    """The layout serialize() must reproduce byte for byte: json's own
    indent=1 writer over the plain payload."""
    return json.dumps(to_payload(obj), sort_keys=True, indent=1) + "\n"


def _report(matrix):
    """A bare matrix, which no library object holds, as a report payload."""
    return {"kind": "report", "matrix": matrix}


def _support_restricted_channel(rng):
    j = random_joint_state(QUBIT, QUBIT, rng, rank_a=1)
    return channel_from_conditional(conditional_from_joint(j, "a"))


def _unchecked_state(*entries):
    return State(QUBIT, np.array(entries, dtype=np.complex128).reshape(2, 2), check=False)


def _hermitian_specials(rng):
    """An exactly Hermitian 16×16 matrix (the writer mirrors from 16 on) with
    mirrored signed zeros, infinities, NaNs and subnormals, and a diagonal
    whose imaginary parts are ±0."""
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m = g + g.conj().T
    upper = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(np.inf, -np.inf),
             complex(np.nan, 1.0), complex(5e-324, -1e-320), complex(-np.inf, np.nan)]
    m[0, 1:7] = upper
    m[np.tril_indices(16, -1)] = m.T[np.tril_indices(16, -1)].conj()
    m[1, 2] = m[2, 1] = complex(0.0, -0.0)  # a zero whose mirror has its bits
    m[np.diag_indices(16)] = [complex(0.25, -0.0), -0.0, complex(np.inf, 0.0)] + [1e-310] * 13
    return State(AlgebraShape((16,)), m, check=False)


def _low_bit_flipped(rng):
    """A derived (exactly Hermitian) 16×16 conditional with the last bit of
    one number below the diagonal flipped."""
    c = conditional_from_joint(random_joint_state(QUART, QUART, rng), "a")
    m = c.matrix.copy()
    m.view(np.uint64)[9, 2 * 4 + 1] ^= 1  # the imaginary part of m[9, 4]
    return ConditionalState(QUART, QUART, m, check=False)


def _marginals(rng, shape):
    j = random_joint_state(shape, shape, rng)
    return j, reduce(j, "a"), reduce(j, "b")


def _joined(rng):
    j, marg_a, _ = _marginals(rng, QUART)
    return joint_from_conditional(marg_a, conditional_from_joint(j, "a"))


def _inverted(rng):
    j, marg_a, marg_b = _marginals(rng, MIXED)
    return bayes_invert(conditional_from_joint(j, "b"), marg_a, marg_b)


PINNED = {
    "state-1x1": lambda rng: random_state(ONE, rng),
    "state-reducible": lambda rng: random_state(MIXED, rng),
    "state-classical": lambda rng: random_state(TRIT, rng),
    "state-d16": lambda rng: random_state(D16, rng),
    "state-reducible-d16": lambda rng: random_state(REDUCIBLE16, rng),
    "joint-1x1": lambda rng: random_joint_state(ONE, ONE, rng),
    "joint-mixed": lambda rng: random_joint_state(QUBIT, BIT, rng),
    "joint-classical": lambda rng: random_joint_state(BIT, TRIT, rng),
    "joint-d16": lambda rng: random_joint_state(QUART, QUART, rng),
    "conditional-reducible": lambda rng: choi_conditional(random_channel(MIXED, QUBIT, 2, rng)),
    "conditional-classical": lambda rng: choi_conditional(random_channel(BIT, TRIT, 2, rng)),
    "conditional-d16": lambda rng: choi_conditional(random_channel(QUART, QUART, 2, rng)),
    "channel-1x1": lambda rng: random_channel(ONE, ONE, 1, rng),
    "channel-reducible": lambda rng: random_channel(QUBIT, MIXED, 2, rng),
    "channel-d16": lambda rng: random_channel(D16, REDUCIBLE16, 1, rng),
    "channel-input-support": _support_restricted_channel,
    "povm-classical": lambda rng: random_povm(BIT, 3, rng),
    "povm-d16": lambda rng: random_povm(REDUCIBLE16, 2, rng),
    "ensemble": lambda rng: prepare(random_povm(QUBIT, 2, rng), random_state(QUBIT, rng)),
    "ensemble-reducible": lambda rng: prepare(random_povm(MIXED, 3, rng), random_state(MIXED, rng)),
    "unchecked-nonfinite": lambda rng: _unchecked_state(np.nan, complex(np.inf, -np.inf), complex(-np.inf, np.nan), 0.5),
    "unchecked-signed-zero": lambda rng: _unchecked_state(complex(-0.0, -0.0), complex(0.0, -0.0), -0.0, 1.0),
    "unchecked-extremes": lambda rng: _unchecked_state(5e-324, complex(2.2250738585072014e-308, -1e300), 1e300, complex(-1.7976931348623157e308, 1e-320)),
    "hermitian-specials": _hermitian_specials,
    "hermitian-1x1": lambda rng: State(ONE, np.array([[complex(-0.0, -0.0)]]), check=False),
    "hermitian-low-bit-flipped": _low_bit_flipped,
    "channel-non-square": lambda rng: random_channel(QUBIT, QUART, 2, rng),
    "conditional-derived-d16": lambda rng: conditional_from_joint(random_joint_state(QUART, QUART, rng), "b"),
    "joint-derived-d16": _joined,
    "bayes-derived": _inverted,
    "empty-0x0": lambda rng: np.zeros((0, 0), dtype=np.complex128),
    "empty-0x3": lambda rng: np.zeros((0, 3), dtype=np.complex128),
    "empty-2x0": lambda rng: np.zeros((2, 0), dtype=np.complex128),
}


@pytest.mark.parametrize("build", PINNED.values(), ids=PINNED.keys())
def test_serialize_matches_json_layout_byte_for_byte(rng, build):
    obj = build(rng)
    if isinstance(obj, np.ndarray):
        expected = _report(encode_matrix(obj))
        assert dumps(_report(obj)) == json.dumps(expected, sort_keys=True, indent=1) + "\n"
    else:
        assert serialize(obj) == json_oracle(obj)


@pytest.mark.parametrize(
    "array",
    [np.arange(6.0).reshape(2, 3), np.array([[1.0, -0.0], [0.0, np.nan]]), np.eye(3, dtype=int)],
    ids=["real", "real-symmetric-specials", "integer"],
)
def test_dumps_writes_a_real_array_as_a_complex_matrix(array):
    expected = _report(encode_matrix(array))
    assert dumps(_report(array)) == json.dumps(expected, sort_keys=True, indent=1) + "\n"


def test_hermitian_matrix_formats_only_its_upper_triangle(rng, monkeypatch):
    # the numbers json formats: of the d = 16 conditional, its upper triangle
    # with the diagonal; of the specials, also the two zeros below the
    # diagonal whose mirror is the other zero; of a Kraus operator (not
    # Hermitian) and of a 4×4 state (below the size the writer mirrors
    # from), all of them
    formatted = []

    def counting(value, *args, **kwargs):
        if isinstance(value, list):
            formatted.append(len(value))
        return json_dumps(value, *args, **kwargs)

    json_dumps = json.dumps
    cond = conditional_from_joint(random_joint_state(QUART, QUART, rng), "a")
    kraus = random_channel(QUBIT, QUBIT, 1, rng).kraus[0]
    specials = _hermitian_specials(rng).matrix
    state = random_state(QUART, rng).matrix
    monkeypatch.setattr(json, "dumps", counting)
    dumps({"c": cond.matrix, "h": specials, "k": kraus, "s": state})
    assert formatted == [16 * 17, 16 * 17 + 2, 2 * 4, 2 * 16]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_fixture_documents_reserialize_unchanged(path):
    text = path.read_text(encoding="utf-8")
    assert serialize(parse(text)) == text


def _pair_matrices(entries):
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.lists(entries, min_size=2, max_size=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=12,
)
MATRICES = _pair_matrices(JSON_SCALARS) | _pair_matrices(st.floats()) | JSON_VALUES


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["state", "channel", "ensemble"]),
    matrix=MATRICES,
    kraus=st.lists(MATRICES, max_size=2) | JSON_VALUES,
    members=st.lists(MATRICES, max_size=2) | JSON_VALUES,
    weights=st.lists(JSON_SCALARS, max_size=2) | JSON_VALUES,
)
def test_hostile_payloads_raise_only_package_errors(kind, matrix, kraus, members, weights):
    shape = [2]
    docs = {
        "state": {"kind": "state", "shape": shape, "matrix": matrix},
        "channel": {"kind": "channel", "shape_in": shape, "shape_out": shape, "kraus": kraus},
        "ensemble": {"kind": "ensemble", "shape": shape, "weights": weights,
                     "members": members, "average": matrix},
    }
    try:
        parse(json.dumps(docs[kind]))
    except CondChanError:
        pass
