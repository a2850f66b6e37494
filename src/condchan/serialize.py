"""JSON interchange documents for states, conditionals, channels and POVMs.

Schema: every document is a JSON object with a mandatory ``kind`` tag, shape
metadata as integer arrays, and numeric payloads as row-major nested arrays
with each complex entry a two-element [re, im] array.  Floats are emitted
with Python's shortest round-tripping representation, so
``parse(serialize(x))`` reproduces ``x`` bit-exactly.

Layout: a document is byte for byte ``json.dumps(to_payload(x),
sort_keys=True, indent=1) + "\n"``: indent 1, sorted keys.  Each matrix is
written from one ``%``-template of that layout, filled with the float tokens
of one ``json.dumps`` call, so ``NaN``, ``Infinity`` and ``-0.0`` appear
exactly as json writes them.  In a square complex matrix with a real diagonal,
from ``_MIRROR_MIN_DIM`` up, a number below the diagonal with the bits of its
mirror's number takes the mirror's token instead, and a nonzero one with the
bits of its mirror's negation takes that token negated (``NaN`` stays ``NaN``),
so an exactly Hermitian matrix formats little more than its upper triangle.
``dumps`` writes any payload in this layout; the CLI's reports go through it too.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import lru_cache

import numpy as np

from .algebra import AlgebraShape
from .channels import Channel
from .conditional import ConditionalState
from .errors import DocumentSyntaxError
from .povm import POVM, Ensemble
from .states import JointState, State

_SHAPE, _MATRIX, _MATRICES = "shape", "matrix", "matrices"

# kind: (class, {key: type}): the class's constructor arguments in order, each
# a shape, a matrix or a nonempty matrix list.  A None value is left out, and an
# absent key whose argument defaults to None reads as None.  Ensembles stay
# apart: their document is not their constructor's arguments.
_SCHEMA = {
    "state": (State, {"shape": _SHAPE, "matrix": _MATRIX}),
    "joint_state": (JointState, {"shape_a": _SHAPE, "shape_b": _SHAPE, "matrix": _MATRIX}),
    "conditional": (ConditionalState, {"shape_in": _SHAPE, "shape_out": _SHAPE, "matrix": _MATRIX}),
    "channel": (Channel, {"shape_in": _SHAPE, "shape_out": _SHAPE, "kraus": _MATRICES,
                          "input_support": _MATRIX}),
    "povm": (POVM, {"shape": _SHAPE, "elements": _MATRICES}),
}
KINDS = (*_SCHEMA, "ensemble")
_ENCODE = {_SHAPE: lambda shape: list(shape.block_dims), _MATRIX: lambda m: m, _MATRICES: list}


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


def _decode(value, key: str, codec: str, kind: str):
    if codec == _SHAPE:
        return _decode_shape(value, key)
    if codec == _MATRIX:
        return _decode_matrix(value, key)
    if not isinstance(value, list) or not value:
        raise DocumentSyntaxError(f"{kind} document needs a nonempty {key!r} list")
    return tuple(_decode_matrix(m, f"{key}[{i}]") for i, m in enumerate(value))


def _fields(obj) -> dict:
    """Document fields of any serializable object, matrices kept as arrays."""
    if isinstance(obj, Ensemble):
        return {
            "kind": "ensemble",
            "shape": list(obj.average.shape.block_dims),
            "weights": [float(w) for w in obj.weights],
            "members": [m.matrix for m in obj.members],
            "average": obj.average.matrix,
        }
    for kind, (cls, keys) in _SCHEMA.items():
        if isinstance(obj, cls):
            values = ((key, getattr(obj, key), codec) for key, codec in keys.items())
            return {"kind": kind} | {k: _ENCODE[c](v) for k, v, c in values if v is not None}
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


# Smallest matrix dimension whose numbers are taken from their mirror: below
# it the index work costs more than the formatting it saves (a 16×16 diagonal
# density matrix, whose zeros format cheaply, is written at 0.9× the speed).
_MIRROR_MIN_DIM = 16
_SIGN = np.uint64(1 << 63)


@lru_cache(maxsize=8)
def _mirror(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat position of each [re, im] number's mirror in an n×n matrix,
    and the mask of the numbers below the diagonal (cached, read-only)."""
    mirror = np.arange(2 * n * n).reshape(n, n, 2).swapaxes(0, 1).ravel()
    below = np.tri(n, k=-1, dtype=bool).repeat(2)
    for arr in (mirror, below):
        arr.setflags(write=False)
    return mirror, below


def _tokens(m: np.ndarray) -> list:
    """json's float tokens of a matrix's flat [re, im] numbers (see the module docstring)."""
    flat, n = _pairs(m).ravel(), len(m)
    square = m.dtype == np.complex128 and m.shape == (n, n) and n >= _MIRROR_MIN_DIM
    if not square or m.imag.diagonal().any():  # a Kraus operator fails the second test
        return json.dumps(flat.tolist())[1:-1].split(", ")
    mirror, below = _mirror(n)
    bits = flat.view(np.uint64)
    signs = bits ^ bits[mirror]
    # the same bits, or a nonzero number negated: negating the token of a
    # zero costs more than formatting it
    reused = below & ((signs == 0) | (signs == _SIGN) & (bits << 1 != 0))
    tokens = np.empty(flat.size, dtype=object)
    tokens[~reused] = json.dumps(flat[~reused].tolist())[1:-1].split(", ")
    tokens[reused] = tokens[mirror[reused]]
    negate = reused & (signs != 0)
    tokens[negate] = [t[1:] if t[0] == "-" else t if t == "NaN" else "-" + t for t in tokens[negate]]
    return tokens.tolist()


def _write(value, level: int) -> str:
    if isinstance(value, dict):
        items = [f"{json.dumps(k)}: {_write(value[k], level + 1)}" for k in sorted(value)]
        return _block(items, level, "{}")
    if isinstance(value, list):
        return _block([_write(v, level + 1) for v in value], level)
    if isinstance(value, np.ndarray):
        rows, cols = value.shape
        row = _block([_block(["%s", "%s"], level + 2)] * cols, level + 1)
        return _block([row] * rows, level) % tuple(_tokens(value) if value.size else ())
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
    """Construct the validated object a document payload describes; a boolean
    in a matrix is a ``DocumentSyntaxError`` (numpy would read it as 0 or 1)."""
    for key, value in obj.items() if isinstance(obj, dict) else ():
        if _nested_boolean(value, 0):
            raise DocumentSyntaxError(f"matrix {key!r} must hold numbers, not booleans")
    return _construct(obj)


def _construct(obj: dict):
    if not isinstance(obj, dict):
        raise DocumentSyntaxError("document root must be a JSON object")
    kind = _require(obj, "kind")
    if kind == "ensemble":
        shape = _decode_shape(_require(obj, "shape"), "shape")
        weights, members = _require(obj, "weights"), _require(obj, "members")
        if not isinstance(weights, list) or not isinstance(members, list):
            raise DocumentSyntaxError("ensemble document needs 'weights' and 'members' lists")
        if not all(type(w) in (int, float) for w in weights):  # a bool is an int
            raise DocumentSyntaxError("ensemble weights must be JSON numbers")
        try:
            weights = np.array([float(w) for w in weights])
        except OverflowError as exc:
            raise DocumentSyntaxError(f"malformed weights: {exc}") from exc
        members = tuple(
            State(shape, _decode_matrix(m, f"members[{i}]")) for i, m in enumerate(members)
        )
        average = State(shape, _decode_matrix(_require(obj, "average"), "average"))
        return Ensemble(weights=weights, members=members, average=average)
    if not isinstance(kind, str) or kind not in _SCHEMA:  # a list or an object is unhashable
        raise DocumentSyntaxError(f"unknown document kind {kind!r}; expected one of {KINDS}")
    cls, keys = _SCHEMA[kind]
    optional = {f.name for f in fields(cls) if f.default is None}
    return cls(**{
        key: _decode(_require(obj, key), key, codec, kind)
        for key, codec in keys.items() if key in obj or key not in optional
    })


def _nested_boolean(value, depth: int) -> bool:
    """Whether a boolean sits where a matrix number may: in a list in a list, at most 4 deep."""
    if isinstance(value, list) and depth < 4:
        return any(_nested_boolean(v, depth + 1) for v in value)
    return depth > 1 and isinstance(value, bool)


def parse(text: str):
    """Parse a JSON document string into a validated object.

    JSON syntax errors surface as ``DocumentSyntaxError`` with line/column,
    and so do nesting too deep for the JSON decoder and a boolean in a matrix
    (numpy reads it as 0 or 1); failed construction invariants propagate as
    ``InvariantViolation`` with the invariant's name and measured deviation.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise DocumentSyntaxError("JSON nesting is too deep") from exc
    # only a text holding true or false can hold a boolean for from_payload to find
    return (from_payload if "true" in text or "false" in text else _construct)(payload)
