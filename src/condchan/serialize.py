"""JSON interchange documents for states, conditionals, channels and POVMs.

Schema: every document is a JSON object with a mandatory ``kind`` tag, shape
metadata as integer arrays, and numeric payloads as row-major nested arrays
with each complex entry a two-element [re, im] array.  Floats are emitted
with Python's shortest round-tripping representation, so
``parse(serialize(x))`` reproduces ``x`` bit-exactly.

Layout: a document is byte for byte ``json.dumps(to_payload(x),
sort_keys=True, indent=1) + "\n"``: indent 1, sorted keys.  Each matrix is
written from one ``%``-template of that layout, filled with the float tokens
of one ``json.dumps`` call on its flat [re, im] entries, so ``NaN``,
``Infinity`` and ``-0.0`` appear exactly as json writes them.  ``dumps``
writes any payload in this layout; the CLI's reports go through it too.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import AlgebraShape
from .channels import Channel
from .conditional import ConditionalState
from .errors import DocumentSyntaxError
from .povm import POVM, Ensemble
from .states import JointState, State

KINDS = ("state", "joint_state", "conditional", "channel", "povm", "ensemble")


def _pairs(m: np.ndarray) -> np.ndarray:
    return np.stack((np.real(m), np.imag(m)), -1)


def encode_matrix(m: np.ndarray) -> list:
    return _pairs(m).tolist()


def _decode_matrix(payload, label: str) -> np.ndarray:
    try:
        arr = np.array(payload)
    except ValueError as exc:
        raise DocumentSyntaxError(f"malformed matrix payload in {label!r}: {exc}") from exc
    if arr.dtype.kind not in "fi" or arr.ndim != 3 or arr.shape[2] != 2:
        raise DocumentSyntaxError(f"matrix {label!r} must be rows of [re, im] number pairs")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def _decode_shape(payload, label: str) -> AlgebraShape:
    if not isinstance(payload, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in payload
    ):
        raise DocumentSyntaxError(f"shape in {label!r} must be a JSON list of integers")
    return AlgebraShape(tuple(payload))


def _require(obj: dict, key: str) -> object:
    if key not in obj:
        raise DocumentSyntaxError(f"missing required key {key!r}")
    return obj[key]


def _fields(obj) -> dict:
    """Document fields of any serializable object, matrices kept as arrays."""
    if isinstance(obj, State):
        return {"kind": "state", "shape": list(obj.shape.block_dims), "matrix": obj.matrix}
    if isinstance(obj, JointState):
        return {
            "kind": "joint_state",
            "shape_a": list(obj.shape_a.block_dims),
            "shape_b": list(obj.shape_b.block_dims),
            "matrix": obj.matrix,
        }
    if isinstance(obj, ConditionalState):
        return {
            "kind": "conditional",
            "shape_in": list(obj.shape_in.block_dims),
            "shape_out": list(obj.shape_out.block_dims),
            "matrix": obj.matrix,
        }
    if isinstance(obj, Channel):
        fields = {
            "kind": "channel",
            "shape_in": list(obj.shape_in.block_dims),
            "shape_out": list(obj.shape_out.block_dims),
            "kraus": list(obj.kraus),
        }
        if obj.input_support is not None:
            fields["input_support"] = obj.input_support
        return fields
    if isinstance(obj, POVM):
        return {"kind": "povm", "shape": list(obj.shape.block_dims), "elements": list(obj.elements)}
    if isinstance(obj, Ensemble):
        return {
            "kind": "ensemble",
            "shape": list(obj.average.shape.block_dims),
            "weights": [float(w) for w in obj.weights],
            "members": [m.matrix for m in obj.members],
            "average": obj.average.matrix,
        }
    raise DocumentSyntaxError(f"cannot serialize object of type {type(obj).__name__}")


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return encode_matrix(value) if isinstance(value, np.ndarray) else value


def to_payload(obj) -> dict:
    """Document payload (a plain dict) for any serializable object."""
    return _plain(_fields(obj))


def _block(items: list, level: int, brackets: str = "[]") -> str:
    """json's indent=1 layout of items inside a bracket pair closed at level."""
    if not items:
        return brackets
    inner = "\n" + " " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * level + brackets[1]


def _write(value, level: int) -> str:
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_write(value[k], level + 1)}" for k in sorted(value)]
        return _block(items, level, "{}")
    if isinstance(value, list):
        return _block([_write(v, level + 1) for v in value], level)
    if isinstance(value, np.ndarray):
        rows, cols = value.shape
        row = _block([_block(["%s", "%s"], level + 2)] * cols, level + 1)
        tokens = json.dumps(_pairs(value).ravel().tolist())[1:-1].split(", ")
        return _block([row] * rows, level) % tuple(tokens)
    return json.dumps(value)


def dumps(payload: dict) -> str:
    """Write a payload in the document layout (indent 1, sorted keys,
    newline-terminated); a 2-D array is a complex matrix, so a real array
    is passed as its ``tolist()``."""
    return _write(payload, 0) + "\n"


def serialize(obj) -> str:
    """Serialize to a JSON document string (sorted keys, newline-terminated)."""
    return dumps(_fields(obj))


def from_payload(obj: dict):
    """Construct the validated object a document payload describes."""
    if not isinstance(obj, dict):
        raise DocumentSyntaxError("document root must be a JSON object")
    kind = _require(obj, "kind")
    if kind == "state":
        shape = _decode_shape(_require(obj, "shape"), "shape")
        return State(shape, _decode_matrix(_require(obj, "matrix"), "matrix"))
    if kind == "joint_state":
        shape_a = _decode_shape(_require(obj, "shape_a"), "shape_a")
        shape_b = _decode_shape(_require(obj, "shape_b"), "shape_b")
        return JointState(shape_a, shape_b, _decode_matrix(_require(obj, "matrix"), "matrix"))
    if kind == "conditional":
        shape_in = _decode_shape(_require(obj, "shape_in"), "shape_in")
        shape_out = _decode_shape(_require(obj, "shape_out"), "shape_out")
        return ConditionalState(
            shape_in, shape_out, _decode_matrix(_require(obj, "matrix"), "matrix")
        )
    if kind == "channel":
        shape_in = _decode_shape(_require(obj, "shape_in"), "shape_in")
        shape_out = _decode_shape(_require(obj, "shape_out"), "shape_out")
        kraus = _require(obj, "kraus")
        if not isinstance(kraus, list) or not kraus:
            raise DocumentSyntaxError("channel document needs a nonempty 'kraus' list")
        ops = tuple(_decode_matrix(k, f"kraus[{i}]") for i, k in enumerate(kraus))
        support = None
        if "input_support" in obj:
            support = _decode_matrix(obj["input_support"], "input_support")
        return Channel(shape_in, shape_out, ops, input_support=support)
    if kind == "povm":
        shape = _decode_shape(_require(obj, "shape"), "shape")
        elements = _require(obj, "elements")
        if not isinstance(elements, list) or not elements:
            raise DocumentSyntaxError("povm document needs a nonempty 'elements' list")
        return POVM(shape, tuple(_decode_matrix(e, f"elements[{i}]") for i, e in enumerate(elements)))
    if kind == "ensemble":
        shape = _decode_shape(_require(obj, "shape"), "shape")
        weights, members = _require(obj, "weights"), _require(obj, "members")
        if not isinstance(weights, list) or not isinstance(members, list):
            raise DocumentSyntaxError("ensemble document needs 'weights' and 'members' lists")
        try:
            weights = np.array([float(w) for w in weights])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DocumentSyntaxError(f"malformed weights: {exc}") from exc
        members = tuple(
            State(shape, _decode_matrix(m, f"members[{i}]")) for i, m in enumerate(members)
        )
        average = State(shape, _decode_matrix(_require(obj, "average"), "average"))
        return Ensemble(weights=weights, members=members, average=average)
    raise DocumentSyntaxError(f"unknown document kind {kind!r}; expected one of {KINDS}")


def parse(text: str):
    """Parse a JSON document string into a validated object.

    JSON syntax errors surface as ``DocumentSyntaxError`` with line/column,
    and so does nesting too deep for the JSON decoder; failed construction
    invariants propagate as ``InvariantViolation`` with the invariant's name
    and measured deviation.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise DocumentSyntaxError("JSON nesting is too deep") from exc
    return from_payload(payload)
