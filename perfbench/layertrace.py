"""Per-layer tracing of condchan from outside the library.

The tracer wraps the public functions of each condchan module, and the
public methods and ``__post_init__`` validators of the classes defined
there, in every condchan module namespace that holds them.  Modules bind
names with ``from .matcore import ...``, so patching only the defining
module would miss most calls.  Class objects themselves are never
replaced: ``serialize`` and ``cli`` dispatch on ``isinstance``.  It also
counts calls to ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``.

Spans stay in memory for one pass over the workload and are aggregated
after it: a span's self time is its duration minus the durations of its
child spans.  Everything is single-threaded and synchronous, so no layer
has a queue or a wait time to report.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "condchan"
LAYERS = (
    "matcore",
    "algebra",
    "states",
    "conditional",
    "channels",
    "povm",
    "scenarios",
    "serialize",
    "selftest",
    "cli",
)
# Layers whose classes validate their inputs in ``__post_init__``.
VALIDATING_LAYERS = ("states", "conditional", "channels", "povm")

ENCODE = frozenset({"serialize.serialize", "serialize.to_payload", "serialize.encode_matrix"})
DECODE = frozenset({"serialize.parse", "serialize.from_payload"})

# Amount recorded on a span from the call's arguments and result.
METERS = {
    "matcore.kron": lambda args, result: result.nbytes,
    "serialize.serialize": lambda args, result: len(result.encode()),
    "serialize.parse": lambda args, result: len(args[0].encode()),
    "cli.main": lambda args, result: int(result != 0),
}

# Metrics that must repeat exactly between passes and between runs with the
# same seed.
EXACT = (
    *(f"{layer}.calls_per_op" for layer in LAYERS),
    *(f"{layer}.validate_per_op" for layer in VALIDATING_LAYERS),
    *(f"{layer}.errors" for layer in LAYERS),
    "linalg.eig_per_op",
    "matcore.kron_mb_per_op",
    "serialize.bytes_out_per_op",
    "serialize.bytes_in_per_op",
    "cli.nonzero_exits",
)

UNITS = {
    "calls_per_op": "count",
    "validate_per_op": "count",
    "errors": "count",
    "eig_per_op": "count",
    "nonzero_exits": "count",
    "self_ms_per_op": "ms",
    "validate_ms_per_op": "ms",
    "encode_ms_per_op": "ms",
    "decode_ms_per_op": "ms",
    "kron_mb_per_op": "MB",
    "bytes_out_per_op": "B",
    "bytes_in_per_op": "B",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.split(".", 1)[1]]


class Tracer:
    """Installs wrappers, records spans while installed, aggregates a pass."""

    def __init__(self):
        self.names: list[str] = ["bench.op"]
        self.kinds: list[str] = ["op"]
        self.spans: list = []
        self.stack: list[int] = []
        self.eig_calls = 0
        self._op_t0 = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", "call"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        for name in ("eigh", "eigvalsh"):
            self._patch(np.linalg, name, self._count_eig(getattr(np.linalg, name)))

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr == "__post_init__":
                self._patch(cls, attr, self._wrap(fn, f"{layer}.{cls.__name__}.validate", "validate"))
            elif not attr.startswith("_"):
                self._patch(cls, attr, self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", "call"))

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def _patch(self, target, name: str, replacement) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, replacement)

    def _count_eig(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.eig_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str, kind: str):
        fid = len(self.names)
        self.names.append(name)
        if name in ENCODE:
            kind = "encode"
        elif name in DECODE:
            kind = "decode"
        self.kinds.append(kind)
        meter = METERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed, amount = True, 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                if meter is not None:
                    amount = meter(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, failed, amount)

        return traced

    # -- recording ----------------------------------------------------------

    def begin_op(self) -> int:
        """Open the root span of one op; the benchmark's own code runs there."""
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self._op_t0 = time.perf_counter_ns()
        return idx

    def end_op(self, idx: int) -> None:
        t1 = time.perf_counter_ns()
        self.stack.pop()
        self.spans[idx] = (0, self._op_t0, t1, -1, False, 0)

    def take_pass(self) -> tuple[list, int]:
        """Hand over the spans and eig count recorded since the last call."""
        spans, eig = self.spans[:], self.eig_calls
        self.spans.clear()
        self.eig_calls = 0
        return spans, eig

    # -- aggregation --------------------------------------------------------

    def aggregate(self, spans: list, eig_calls: int) -> Counter:
        """Totals over one pass, keyed by metric name without the per-op scaling."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child_ns = [0] * len(spans)
        for fid, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        tot: Counter = Counter()
        for idx, (fid, t0, t1, parent, failed, amount) in enumerate(spans):
            if fid == 0:
                continue
            layer, kind, dur = layer_of[fid], self.kinds[fid], t1 - t0
            parent_fid = spans[parent][0] if parent >= 0 else 0
            tot[f"{layer}.calls"] += 1
            tot[f"{layer}.self_ns"] += dur - child_ns[idx]
            if failed and layer_of[parent_fid] != layer:
                tot[f"{layer}.errors"] += 1
            nested = self.kinds[parent_fid] == kind and layer_of[parent_fid] == layer
            if kind == "validate" and not nested:
                tot[f"{layer}.validate"] += 1
                tot[f"{layer}.validate_ns"] += dur
            elif kind in ("encode", "decode") and not nested:
                tot[f"serialize.{kind}_ns"] += dur
            if amount:
                tot[self.names[fid]] += amount
        tot["linalg.eig"] = eig_calls
        return tot


def per_op_metrics(tot: Counter, ops: int) -> dict[str, float]:
    """Per-layer metrics of one pass, normalized per op where the name says so."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls_per_op"] = tot[f"{layer}.calls"] / ops
        m[f"{layer}.self_ms_per_op"] = tot[f"{layer}.self_ns"] / 1e6 / ops
        m[f"{layer}.errors"] = tot[f"{layer}.errors"]
    for layer in VALIDATING_LAYERS:
        m[f"{layer}.validate_per_op"] = tot[f"{layer}.validate"] / ops
        m[f"{layer}.validate_ms_per_op"] = tot[f"{layer}.validate_ns"] / 1e6 / ops
    m["linalg.eig_per_op"] = tot["linalg.eig"] / ops
    m["matcore.kron_mb_per_op"] = tot["matcore.kron"] / 1e6 / ops
    m["serialize.encode_ms_per_op"] = tot["serialize.encode_ns"] / 1e6 / ops
    m["serialize.decode_ms_per_op"] = tot["serialize.decode_ns"] / 1e6 / ops
    m["serialize.bytes_out_per_op"] = tot["serialize.serialize"] / ops
    m["serialize.bytes_in_per_op"] = tot["serialize.parse"] / ops
    m["cli.nonzero_exits"] = tot["cli.main"]
    return m
