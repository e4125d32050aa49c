"""Benchmark-side spans around the calls into each ``repro`` layer.

The traced run installs timing wrappers at the names callers resolve
(a module global such as ``repro.core.group.encrypt_indicator``, or a
class attribute such as ``GNNQueryEngine.query``), so no program file
changes.  Spans stay in memory and are written at exit in the span JSONL
schema of :mod:`repro.obs.trace`, with ``start`` and ``end`` as integer
``perf_counter_ns`` readings; ``repro trace --input FILE`` renders them.

A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import ExitStack, contextmanager

import repro.core.group
import repro.core.lsp
import repro.core.naive
import repro.core.opt
import repro.crypto.noncepool
from repro.core.sanitize import AnswerSanitizer
from repro.encoding.answers import AnswerCodec
from repro.gnn.engine import GNNQueryEngine
from repro.serve import BucketRunner, LSPSpec, ServeEngine

from workloads import patched

#: The span every query hangs under (one root per query).
ROOT = "query"


class SpanRecorder:
    """Nested spans on the ``perf_counter_ns`` clock, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "span_id": self._next_id,
            "parent_id": self._stack[-1]["span_id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "attrs": attrs,
        }
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record["attrs"]
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter_ns()
            self.spans.append(record)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _wrap(recorder: SpanRecorder, name: str, call, count=None):
    """``call`` inside a span; ``count(args, kwargs)`` returns ``after(result)``
    giving the counts to attach, so a counter can read state before the call."""

    def wrapper(*args, **kwargs):
        with recorder.span(name) as attrs:
            after = count(args, kwargs) if count else None
            result = call(*args, **kwargs)
            if after:
                attrs.update(after(result))
            return result

    return wrapper


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _kgnn_counts(args, kwargs):
    counters = args[0].index_counters
    nodes, scored = counters.nodes_visited, counters.candidates_scored
    return lambda result: {
        "kgnn_calls": 1,
        "nodes_visited": counters.nodes_visited - nodes,
        "candidates_scored": counters.candidates_scored - scored,
    }


def _sanitize_counts(args, kwargs):
    return lambda result: {
        "samples": args[0].plan.n_samples,
        "prefix_len": len(result.prefix),
    }


def _encryption_counts(args, kwargs):
    return lambda result: {"encryptions": _arg(args, kwargs, 1, "length")}


def _select_counts(args, kwargs):
    counter = _arg(args, kwargs, 2, "counter")
    before = counter.scalar_muls
    return lambda result: {"scalar_muls": counter.scalar_muls - before}


def _decrypt_counts(args, kwargs):
    counter = _arg(args, kwargs, 3, "ledger").counter("coordinator")
    before = counter.decryptions
    return lambda result: {"decryptions": counter.decryptions - before}


def _send_counts(args, kwargs):
    return lambda result: {"messages": 1}


def _plan_counts(args, kwargs):
    def after(result):
        waits = [slot.start - slot.arrival for slot in result[0]]
        return {"sim_queue_wait_p50_s": statistics.median(waits) if waits else 0.0}

    return after


# (owner, attribute, span name, counter): every wrapped entry point.
_HOOKS = [
    (GNNQueryEngine, "query", "gnn.kgnn", _kgnn_counts),
    (AnswerSanitizer, "sanitize", "core.sanitize", _sanitize_counts),
    (AnswerCodec, "encode", "encoding.encode", None),
    (repro.core.lsp, "matrix_select", "crypto.select", _select_counts),
    (repro.core.lsp, "nested_select", "crypto.select", _select_counts),
    (repro.crypto.noncepool, "pooled_indicator", "crypto.encrypt", _encryption_counts),
    (repro.crypto.noncepool.NoncePoolRegistry, "ensure", "crypto.pool_refill", None),
    (LSPSpec, "build", "serve.replica_build", None),
    (ServeEngine, "plan", "serve.plan", _plan_counts),
    (BucketRunner, "run_job", ROOT, None),
]
for _module in (repro.core.group, repro.core.opt, repro.core.naive):
    _HOOKS += [
        (_module, "encrypt_indicator", "crypto.encrypt", _encryption_counts),
        (_module, "decrypt_answer", "crypto.decrypt", _decrypt_counts),
        (_module, "send", "transport.send", _send_counts),
    ]


@contextmanager
def traced(recorder: SpanRecorder):
    """Install every layer wrapper; the originals come back on exit."""
    with ExitStack() as stack:
        for owner, attribute, name, count in _HOOKS:
            original = owner.__dict__[attribute]
            stack.enter_context(
                patched(owner, attribute, _wrap(recorder, name, original, count))
            )
        yield recorder


def layer_totals(spans: list[dict]) -> dict:
    """Per span name: total self and wall seconds, span count, summed attrs."""
    children_ns: dict[int, int] = {}
    for record in spans:
        if record["parent_id"] is not None:
            children_ns[record["parent_id"]] = children_ns.get(record["parent_id"], 0) + (
                record["end"] - record["start"]
            )
    totals: dict[str, dict] = {}
    for record in spans:
        duration = record["end"] - record["start"]
        entry = totals.setdefault(record["name"], {"self_s": 0.0, "spans": 0, "wall_s": 0.0})
        entry["self_s"] += (duration - children_ns.get(record["span_id"], 0)) / 1e9
        entry["wall_s"] += duration / 1e9
        entry["spans"] += 1
        for key, value in record["attrs"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry[key] = entry.get(key, 0) + value
    return totals
