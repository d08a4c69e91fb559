"""Spans recorded by the benchmark around its calls into each layer.

A :class:`Ledger` wraps one :class:`repro.observe.Tracer`. Every timed
operation is one root span (category ``op``), and every call the
benchmark makes into a layer's public function is a child span
(category ``layer``) named ``<layer>.<call>``, such as
``pipeline.lower`` or ``cache.lookup_disk``. Spans of one op carry the
same ``op`` id. Work outside the ops, such as correctness checks, is
recorded as root spans of category ``aside``. The serve workload's
open-loop requests overlap in time, which a span stack cannot nest, so
they are added after the fact as root spans of category ``load``.

A span's self time is its duration minus the part of it that its
children cover, so the self times of an op's spans sum to the op's
duration. :func:`layer_table` aggregates self time per span name.

The untraced timed runs never touch this module: the spans are only
recorded in the separate traced run, which is what makes the
difference between the two runs the tracing overhead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List

from repro.observe import Span, Tracer, write_chrome_trace

OTHER = "bench.other"
_NULL = nullcontext()


def now_us() -> float:
    return time.perf_counter() * 1e6


def no_span(name: str, **args):
    """The untraced stand-in for :meth:`Ledger.layer`."""
    return _NULL


class Ledger:
    """The traced run's spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.tracer = Tracer(clock=now_us)
        self.op_id = 0
        # name -> every observed value of a per-layer count
        self.counts: Dict[str, List[float]] = {}

    @contextmanager
    def op(self, name: str, **args):
        self.op_id += 1
        with self.tracer.span(name, cat="op", op=self.op_id, **args) as span:
            yield span

    def layer(self, name: str, **args):
        return self.tracer.span(name, cat="layer", op=self.op_id, **args)

    def aside(self, name: str, **args):
        """A root span for work outside the ops: checks and probes."""
        return self.tracer.span(name, cat="aside", **args)

    def emit_op(self, name: str, children, **args) -> Span:
        """An op recorded after the fact from timestamps the caller took:
        ``children`` are ``(name, start_s, end_s)`` layer spans in
        ``time.perf_counter`` seconds, and the op spans all of them."""
        self.op_id += 1
        root = self.tracer.emit(name, children[0][1] * 1e6,
                                children[-1][2] * 1e6, cat="op",
                                op=self.op_id, **args)
        for child, start, end in children:
            self.tracer.emit(child, start * 1e6, end * 1e6, cat="layer",
                             op=self.op_id, parent=root)
        return root

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def ops(self) -> List[Span]:
        return [span for span in self.tracer.roots if span.cat == "op"]

    def write_chrome_trace(self, path: Path) -> Path:
        return write_chrome_trace(path, self.tracer)


def self_us(span: Span) -> float:
    """Duration minus the union of the children's intervals."""
    if span.end_us is None:
        return 0.0
    covered = 0.0
    edge = span.start_us
    for child in sorted(span.children, key=lambda c: c.start_us):
        if child.end_us is None:
            continue
        start = max(child.start_us, edge)
        end = min(child.end_us, span.end_us)
        if end > start:
            covered += end - start
            edge = end
    return span.duration_us - covered


def layer_table(ledger: Ledger) -> Dict:
    """Per span name: calls and total self time, in and out of ops.

    An op's own self time (time inside the op no layer span covers) is
    booked as :data:`OTHER`. ``op_us`` is the summed op time and
    ``coverage`` the share of it that layer spans account for.
    """
    rows: Dict[str, Dict[str, float]] = {}

    def book(span: Span, name: str) -> None:
        row = rows.setdefault(name, {"calls": 0, "self_us": 0.0})
        row["calls"] += 1
        row["self_us"] += self_us(span)

    op_us = 0.0
    for root in ledger.tracer.roots:
        if root.cat == "op":
            op_us += root.duration_us
            book(root, OTHER)
        else:
            book(root, root.name)
        for span in root.walk():
            if span is not root:
                book(span, span.name)
    other = rows.get(OTHER, {}).get("self_us", 0.0)
    return {
        "op_us": op_us,
        "coverage": (op_us - other) / op_us if op_us else 0.0,
        "layers": dict(sorted(rows.items())),
    }
