"""JSON interchange documents for states, conditionals, channels and POVMs.

Schema: every document is a JSON object with a mandatory ``kind`` tag, shape
metadata as integer arrays, and numeric payloads as row-major nested arrays
with each complex entry a two-element [re, im] array.  Floats are emitted
with Python's shortest round-tripping representation, so
``parse(serialize(x))`` reproduces ``x`` bit-exactly.
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


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _decode_matrix(payload, label: str) -> np.ndarray:
    try:
        rows = []
        for row in payload:
            rows.append([complex(float(z[0]), float(z[1])) for z in row])
        arr = np.array(rows, dtype=np.complex128)
    except (TypeError, ValueError, IndexError) as exc:
        raise DocumentSyntaxError(f"malformed matrix payload in {label!r}: {exc}") from exc
    if arr.ndim != 2:
        raise DocumentSyntaxError(f"matrix payload in {label!r} is not two-dimensional")
    return arr


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


def to_payload(obj) -> dict:
    """Document payload (a plain dict) for any serializable object."""
    if isinstance(obj, State):
        return {
            "kind": "state",
            "shape": list(obj.shape.block_dims),
            "matrix": encode_matrix(obj.matrix),
        }
    if isinstance(obj, JointState):
        return {
            "kind": "joint_state",
            "shape_a": list(obj.shape_a.block_dims),
            "shape_b": list(obj.shape_b.block_dims),
            "matrix": encode_matrix(obj.matrix),
        }
    if isinstance(obj, ConditionalState):
        return {
            "kind": "conditional",
            "shape_in": list(obj.shape_in.block_dims),
            "shape_out": list(obj.shape_out.block_dims),
            "matrix": encode_matrix(obj.matrix),
        }
    if isinstance(obj, Channel):
        payload = {
            "kind": "channel",
            "shape_in": list(obj.shape_in.block_dims),
            "shape_out": list(obj.shape_out.block_dims),
            "kraus": [encode_matrix(k) for k in obj.kraus],
        }
        if obj.input_support is not None:
            payload["input_support"] = encode_matrix(obj.input_support)
        return payload
    if isinstance(obj, POVM):
        return {
            "kind": "povm",
            "shape": list(obj.shape.block_dims),
            "elements": [encode_matrix(e) for e in obj.elements],
        }
    if isinstance(obj, Ensemble):
        return {
            "kind": "ensemble",
            "shape": list(obj.average.shape.block_dims),
            "weights": [float(w) for w in obj.weights],
            "members": [encode_matrix(m.matrix) for m in obj.members],
            "average": encode_matrix(obj.average.matrix),
        }
    raise DocumentSyntaxError(f"cannot serialize object of type {type(obj).__name__}")


def serialize(obj) -> str:
    """Serialize to a JSON document string (sorted keys, newline-terminated)."""
    return json.dumps(to_payload(obj), sort_keys=True, indent=1) + "\n"


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
        try:
            weights = np.array([float(w) for w in _require(obj, "weights")])
        except (TypeError, ValueError) as exc:
            raise DocumentSyntaxError(f"malformed weights: {exc}") from exc
        members = tuple(
            State(shape, _decode_matrix(m, f"members[{i}]"))
            for i, m in enumerate(_require(obj, "members"))
        )
        average = State(shape, _decode_matrix(_require(obj, "average"), "average"))
        return Ensemble(weights=weights, members=members, average=average)
    raise DocumentSyntaxError(f"unknown document kind {kind!r}; expected one of {KINDS}")


def parse(text: str):
    """Parse a JSON document string into a validated object.

    JSON syntax errors surface as ``DocumentSyntaxError`` with line/column;
    failed construction invariants propagate as ``InvariantViolation`` with
    the invariant's name and measured deviation.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    return from_payload(payload)
