"""Causal span tracing: who spent the time inside one operation.

Counters (:mod:`repro.obs.metrics`) say *how much*, events
(:mod:`repro.obs.events`) say *what happened* — spans say *where the time
in one operation went*.  A :class:`Span` is an interval of simulated time
with a name, a parent, and JSON-safe attributes; the spans of one
operation form a tree rooted at the operation itself (Dapper's model, in
sim-time).  A traced block fetch looks like::

    fetch ─┬─ lookup ── dht.route ─┬─ dht.hop × k
           │                       └─ dht.response
           └─ transfer ─┬─ net.request
                        ├─ tcp.transfer
                        └─ queue.wait (only when contention dominates)

The :class:`Tracer` mirrors :class:`~repro.obs.events.EventTracer`'s
retention contract: a bounded ring buffer of span payloads plus *exact*
per-name counts for the whole run.  Head-based sampling is decided once
per trace (``$REPRO_TRACE_SAMPLE``, default 1.0): an unsampled root is the
falsy :data:`NULL_SPAN`, and every child of a null span is null, so a
dropped trace costs one RNG draw and the hot path otherwise pays only
truthiness checks.  :class:`NullTracer` is the fully-disabled variant —
itself falsy, so ``if tracer:`` guards skip instrumentation entirely.

Export is JSONL (one span object per line; see :data:`SPAN_FIELDS`),
consumed by ``python -m repro.obs trace`` for tree reconstruction,
critical-path extraction, and per-phase latency attribution.
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.events import EventTracer, register_kind

#: Environment knob for head-based sampling (fraction of traces kept).
SAMPLE_ENV = "REPRO_TRACE_SAMPLE"
DEFAULT_SAMPLE = 1.0

#: Span-boundary event kinds, registered through the extension API rather
#: than baked into the core vocabulary (they mirror *root* spans only).
SPAN_START = register_kind("span.start")
SPAN_FINISH = register_kind("span.finish")

#: The JSONL schema: required keys of one exported span object.
SPAN_FIELDS = ("trace_id", "span_id", "parent_id", "name", "start", "end", "attrs")


class SpanError(Exception):
    """Raised on invalid span lifecycle usage (double finish, end < start)."""


class Span:
    """One named interval of simulated time within a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "attrs", "_max_child_end", "_parent")

    sampled = True

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, start: float, **attrs: object) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = float(start)
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs)
        # Latest finish time among direct children; lets a context-managed
        # parent auto-close to the moment its subtree went quiet.
        self._max_child_end: Optional[float] = None
        # The parent this span's finish bubbles to (set by
        # Tracer.start_span); Tracer.finish clears it, so finished spans
        # never pin their ancestors in memory.
        self._parent: Optional[Span] = None

    def annotate(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, end: float) -> "Span":
        if self.end is not None:
            raise SpanError(f"span {self.name!r} already finished")
        if end < self.start:
            raise SpanError(
                f"span {self.name!r} cannot end at {end} before start {self.start}"
            )
        self.end = float(end)
        return self

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed sim-time; 0.0 while the span is still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.start}..{self.end}" if self.end is not None else f"{self.start}.."
        return f"Span({self.name!r}, {state})"


class _NullSpan:
    """Falsy stand-in for unsampled/disabled spans; absorbs all calls."""

    __slots__ = ()

    sampled = False
    trace_id = span_id = parent_id = None
    name = ""
    start = 0.0
    end: Optional[float] = None
    finished = False
    duration = 0.0

    def annotate(self, **attrs: object) -> "_NullSpan":
        return self

    def finish(self, end: float) -> "_NullSpan":
        return self

    def to_dict(self) -> Dict[str, object]:  # pragma: no cover - never exported
        return {}

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: The singleton null span.  ``bool(NULL_SPAN)`` is False, so call sites
#: guard expensive annotation work with a plain truthiness check.
NULL_SPAN = _NullSpan()

SpanLike = Union[Span, _NullSpan]


def sample_rate_from_env(default: float = DEFAULT_SAMPLE) -> float:
    """``$REPRO_TRACE_SAMPLE`` clamped to [0, 1]; *default* when unset/bad."""
    raw = os.environ.get(SAMPLE_ENV, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return min(1.0, max(0.0, value))


class Tracer:
    """Span factory with head sampling, bounded retention, exact counts.

    Parameters
    ----------
    capacity:
        Ring-buffer size for span payloads (counts stay exact past it).
    sample:
        Fraction of traces kept, decided at :meth:`start_trace`.  ``None``
        reads ``$REPRO_TRACE_SAMPLE`` (default 1.0).
    events:
        Optional :class:`EventTracer` that receives ``span.start`` /
        ``span.finish`` events for *root* spans — the span-boundary kinds
        registered through :func:`repro.obs.events.register_kind`.
    seed:
        Sampling-RNG seed; fixed so identical runs sample identically.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 4096,
        *,
        sample: Optional[float] = None,
        events: Optional[EventTracer] = None,
        seed: int = 0,
    ) -> None:
        if capacity < 1:
            raise SpanError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.sample = sample_rate_from_env() if sample is None else min(1.0, max(0.0, float(sample)))
        self._events = events
        self._rng = random.Random(seed)
        self._buffer: Deque[Span] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        self._ids = 0
        self.started = 0      # sampled spans ever created (incl. rotated out)
        self.finished = 0
        self.sampled_out = 0  # root spans dropped by head sampling

    @classmethod
    def from_env(cls, *, events: Optional[EventTracer] = None,
                 capacity: int = 4096, seed: int = 0) -> "Tracer":
        """Env-configured tracer; a :class:`NullTracer` when sampling is 0.

        The null tracer is falsy, so a 0-rate run pays only the ``if
        tracer:`` truthiness check on every hot-path instrumentation site.
        """
        rate = sample_rate_from_env()
        if rate <= 0.0:
            return NullTracer()
        return cls(capacity, sample=rate, events=events, seed=seed)

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Span]:
        return iter(tuple(self._buffer))

    # ------------------------------------------------------------------
    # span creation

    def _next_id(self, prefix: str) -> str:
        self._ids += 1
        return f"{prefix}{self._ids:08x}"

    def _record(self, span: Span) -> Span:
        self._buffer.append(span)
        self._counts[span.name] = self._counts.get(span.name, 0) + 1
        self.started += 1
        return span

    def start_trace(self, name: str, start: float, **attrs: object) -> SpanLike:
        """Open a root span, applying the head-sampling decision."""
        if self.sample <= 0.0:
            self.sampled_out += 1
            return NULL_SPAN
        if self.sample < 1.0 and self._rng.random() >= self.sample:
            self.sampled_out += 1
            return NULL_SPAN
        trace_id = self._next_id("t")
        span = Span(trace_id, self._next_id("s"), None, name, start, **attrs)
        if self._events is not None:
            self._events.emit(SPAN_START, start, trace_id=trace_id, name=name)
        return self._record(span)

    def start_span(self, name: str, start: float, parent: SpanLike,
                   **attrs: object) -> SpanLike:
        """Open a child span; children of null spans are null (free)."""
        if not parent:
            return NULL_SPAN
        span = Span(parent.trace_id, self._next_id("s"), parent.span_id,
                    name, start, **attrs)
        span._parent = parent
        return self._record(span)

    def finish(self, span: SpanLike, end: float) -> SpanLike:
        """Close *span* at sim-time *end*, bubbling the finish to its parent."""
        if not span:
            return span
        span.finish(end)
        self.finished += 1
        self._bubble(span)
        if span.parent_id is None and self._events is not None:
            self._events.emit(SPAN_FINISH, end, trace_id=span.trace_id,
                              name=span.name, duration=span.duration)
        return span

    def _bubble(self, span: Span) -> None:
        # O(1) through the direct reference, whether or not the parent is
        # still buffered (it may have rotated out or been drained).
        parent = span._parent
        if parent is None:
            return
        span._parent = None
        if parent._max_child_end is None or span.end > parent._max_child_end:
            parent._max_child_end = span.end

    @contextmanager
    def span(self, name: str, start: float, parent: Optional[SpanLike] = None,
             **attrs: object) -> Iterator[SpanLike]:
        """Context-manager form: root when *parent* is None, else child.

        If the body did not call :meth:`finish`, the span auto-closes at
        the latest finish time observed among its direct children (or at
        its own start when it had none) — so a root wrapped around
        sequential child work ends exactly when its subtree went quiet.
        """
        if parent is None:
            span = self.start_trace(name, start, **attrs)
        else:
            span = self.start_span(name, start, parent, **attrs)
        try:
            yield span
        finally:
            if span and not span.finished:
                end = span._max_child_end if span._max_child_end is not None else span.start
                self.finish(span, max(end, span.start))

    # ------------------------------------------------------------------
    # introspection / export

    def counts(self) -> Dict[str, int]:
        """Exact per-name span totals for the whole run (JSON-ready)."""
        return dict(sorted(self._counts.items()))

    @property
    def dropped(self) -> int:
        """Sampled spans whose payloads rotated out of the buffer."""
        return self.started - len(self._buffer)

    def spans(self, name: Optional[str] = None) -> Tuple[Span, ...]:
        if name is None:
            return tuple(self._buffer)
        return tuple(s for s in self._buffer if s.name == name)

    def to_dicts(self, include_open: bool = True) -> List[Dict[str, object]]:
        """Buffered spans as JSON-safe dicts (open spans have ``end: null``)."""
        return [
            s.to_dict() for s in self._buffer if include_open or s.end is not None
        ]

    def drain(self) -> List[Dict[str, object]]:
        """Pop all *finished* buffered spans as JSON-safe dicts.

        Open spans stay buffered until they finish; cumulative counts and
        totals are untouched, so repeated drains see every finished span
        exactly once.  This is the streaming-export primitive: a long run
        drains to a :class:`repro.obs.stream.JsonlWriter` every window,
        keeping the tracer's memory footprint independent of run length.
        """
        finished = [s for s in self._buffer if s.end is not None]
        if finished:
            open_spans = [s for s in self._buffer if s.end is None]
            self._buffer.clear()
            self._buffer.extend(open_spans)
        return [s.to_dict() for s in finished]

    def export_jsonl(self, path: str, include_open: bool = True) -> str:
        """Write buffered spans to *path*, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for payload in self.to_dicts(include_open=include_open):
                handle.write(json.dumps(payload, sort_keys=True))
                handle.write("\n")
        return path

    def clear(self) -> None:
        self._buffer.clear()
        self._counts.clear()
        self._ids = 0
        self.started = self.finished = self.sampled_out = 0


class NullTracer(Tracer):
    """Tracing fully off: falsy, every span is :data:`NULL_SPAN`.

    Hot loops guard instrumentation with ``if tracer:`` — with a null
    tracer that is a single truthiness check and nothing else, which is
    what keeps the disabled path within noise of untraced code (see
    ``benchmarks/bench_micro_spans.py``).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1, sample=0.0)

    def start_trace(self, name: str, start: float, **attrs: object) -> SpanLike:
        return NULL_SPAN

    def start_span(self, name: str, start: float, parent: SpanLike,
                   **attrs: object) -> SpanLike:
        return NULL_SPAN


def validate_span_dict(payload: object) -> List[str]:
    """All schema violations in one decoded JSONL span object."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"span must be a JSON object, got {type(payload).__name__}"]
    for field in SPAN_FIELDS:
        if field not in payload:
            problems.append(f"missing field {field!r}")
    for field in ("trace_id", "span_id", "name"):
        value = payload.get(field)
        if field in payload and (not isinstance(value, str) or not value):
            problems.append(f"{field} must be a non-empty string")
    parent = payload.get("parent_id")
    if "parent_id" in payload and parent is not None and not isinstance(parent, str):
        problems.append("parent_id must be a string or null")
    start = payload.get("start")
    if "start" in payload and not isinstance(start, (int, float)):
        problems.append("start must be a number")
    end = payload.get("end")
    if "end" in payload and end is not None and not isinstance(end, (int, float)):
        problems.append("end must be a number or null")
    if (
        isinstance(start, (int, float))
        and isinstance(end, (int, float))
        and end < start
    ):
        problems.append(f"end {end} precedes start {start}")
    if "attrs" in payload and not isinstance(payload.get("attrs"), dict):
        problems.append("attrs must be an object")
    return problems
