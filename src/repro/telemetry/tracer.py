"""Span-tree tracing: where one MATCH request's time actually went.

The paper's operational argument is that enterprise matching must be a
*managed* workflow -- and a workflow cannot be managed blind.  A
:class:`Trace` is one request's execution tree: nested spans covering the
pipeline stages (``service.match`` -> ``route.compile`` ->
``engine.score`` / ``runner.batch`` -> ``cascade.escalate`` ->
``cache.get``/``cache.put`` -> ``repository.read``/``repository.write``),
each with a start offset and duration off the monotonic clock.

**Near-zero overhead when disabled.**  Instrumentation sites call the
free function :func:`span`, which reads one :class:`contextvars.ContextVar`;
with no active trace it returns a shared no-op context manager and records
nothing -- no allocation, no lock, no timestamps.  Tracing activates only
when a request opts in (``MatchOptions.trace``) or the server samples it
for its slow-request log, via :func:`request_trace` / :func:`activate_trace`.
Bench E24 gates the disabled-path cost at <= 2% of an E19-style request.

**Thread-safety.**  Span *parentage* rides on a context variable, so
nesting is correct per thread (and propagates into thread pools when the
caller copies its context); the span *list* appends under the trace's
lock, so concurrent threads record into one tree safely.

The serialised form (:meth:`Trace.to_dict`) is what the envelopes carry,
what ``serve --trace-log`` writes as JSONL, and what ``repro trace``
summarizes; :func:`validate_trace` checks the structural invariants
(indices, nesting, timing) and is what the CI smoke asserts.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Mapping

__all__ = [
    "SPAN_KINDS",
    "Span",
    "Trace",
    "Tracer",
    "activate_trace",
    "current_trace",
    "request_trace",
    "span",
    "stage_totals",
    "validate_trace",
]

#: Every span kind the pipeline emits, in rough pipeline order.  The fleet
#: stats board allocates one histogram slot per kind, so the list is fixed;
#: an unlisted kind still traces fine but aggregates under ``(other)``.
SPAN_KINDS: tuple[str, ...] = (
    "service.match",
    "service.corpus_match",
    "service.network_match",
    "route.compile",
    "corpus.retrieve",
    "network.route",
    "engine.score",
    "runner.batch",
    "cascade.escalate",
    "reuse.apply",
    "envelope.build",
    "cache.get",
    "cache.put",
    "repository.read",
    "repository.write",
)

#: The active trace (None = tracing disabled, the overwhelmingly common
#: case) and the index of the innermost open span within it.
_ACTIVE_TRACE: ContextVar["Trace | None"] = ContextVar(
    "harmonia_trace", default=None
)
_ACTIVE_SPAN: ContextVar[int | None] = ContextVar(
    "harmonia_span", default=None
)


class Span:
    """One timed stage of a trace (mutable: closed in place on exit)."""

    __slots__ = ("kind", "parent", "start_seconds", "seconds", "attrs")

    def __init__(
        self,
        kind: str,
        parent: int | None,
        start_seconds: float,
        seconds: float = 0.0,
        attrs: dict[str, Any] | None = None,
    ):
        self.kind = kind
        self.parent = parent
        self.start_seconds = start_seconds
        self.seconds = seconds
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "parent": self.parent,
            "start_seconds": self.start_seconds,
            "seconds": self.seconds,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class _NullSpan:
    """The disabled path: one shared instance, no state, no timing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span: registers on enter, stamps its duration on exit."""

    __slots__ = ("_trace", "_record", "_started", "_token")

    def __init__(self, trace: "Trace", kind: str, attrs: dict[str, Any]):
        self._trace = trace
        self._record = Span(kind, None, 0.0, attrs=dict(attrs) if attrs else None)
        self._started = 0.0
        self._token = None

    def __enter__(self) -> "_LiveSpan":
        record = self._record
        record.parent = _ACTIVE_SPAN.get()
        self._started = time.perf_counter()
        record.start_seconds = self._started - self._trace.started_at
        index = self._trace._append(record)
        self._token = _ACTIVE_SPAN.set(index)
        return self

    def __exit__(self, *exc) -> bool:
        self._record.seconds = time.perf_counter() - self._started
        _ACTIVE_SPAN.reset(self._token)
        return False

    def annotate(self, **attrs) -> None:
        """Attach result facts (counts, routes) to the open span."""
        record = self._record
        if record.attrs is None:
            record.attrs = {}
        record.attrs.update(attrs)


class Trace:
    """One request's span tree, identified by a random trace id."""

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex[:16]
        self.started_at = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def _append(self, record: Span) -> int:
        with self._lock:
            self._spans.append(record)
            return len(self._spans) - 1

    def span(self, kind: str, **attrs) -> _LiveSpan:
        return _LiveSpan(self, kind, attrs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    @property
    def total_seconds(self) -> float:
        """The root span's duration (0.0 before any span closes)."""
        with self._lock:
            for record in self._spans:
                if record.parent is None:
                    return record.seconds
        return 0.0

    def to_dict(self) -> dict[str, Any]:
        """The serialised tree carried in envelopes and the trace log."""
        with self._lock:
            spans = [record.to_dict() for record in self._spans]
        return {
            "trace_id": self.trace_id,
            "total_seconds": next(
                (s["seconds"] for s in spans if s["parent"] is None), 0.0
            ),
            "spans": spans,
        }


class Tracer:
    """The trace factory: the sampling-rate knob over :class:`Trace`.

    ``sample_rate`` admits that fraction of :meth:`sample` calls,
    deterministically (a cumulative quota, not a coin flip): rate 1.0
    admits everything, 0.0 nothing, 0.25 exactly every fourth request.
    The service consults it for ``MatchOptions.trace`` opt-ins; the
    server consults it for slow-log sampling.
    """

    def __init__(self, sample_rate: float = 1.0, enabled: bool = True):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.enabled = enabled
        self._lock = threading.Lock()
        self._seen = 0
        self._taken = 0

    def sample(self) -> bool:
        """Admit or reject one request against the cumulative quota."""
        if not self.enabled or self.sample_rate <= 0.0:
            return False
        with self._lock:
            self._seen += 1
            due = int(self._seen * self.sample_rate + 1e-9)
            if self._taken < due:
                self._taken += 1
                return True
            return False

    def start(self) -> Trace | None:
        """A new trace when sampling admits, else None."""
        return Trace() if self.sample() else None


# ----------------------------------------------------------------------
# The instrumentation surface (what the hot paths actually call)
# ----------------------------------------------------------------------
def span(kind: str, **attrs):
    """A context manager timing one stage of the ACTIVE trace.

    The single hot-path entry point: with no active trace this is one
    context-variable read returning a shared no-op, so instrumenting a
    code path costs nothing when nobody asked for a trace.
    """
    trace = _ACTIVE_TRACE.get()
    if trace is None:
        return _NULL_SPAN
    return _LiveSpan(trace, kind, attrs)


def current_trace() -> Trace | None:
    """The trace the calling context is recording into (None = disabled)."""
    return _ACTIVE_TRACE.get()


class _TraceActivation:
    """Context manager installing (and always removing) an active trace."""

    __slots__ = ("_trace", "_token")

    def __init__(self, trace: Trace | None):
        self._trace = trace
        self._token = None

    def __enter__(self) -> Trace | None:
        if self._trace is not None:
            self._token = _ACTIVE_TRACE.set(self._trace)
        return self._trace

    def __exit__(self, *exc) -> bool:
        if self._token is not None:
            _ACTIVE_TRACE.reset(self._token)
        return False


def activate_trace(trace: Trace | None) -> _TraceActivation:
    """Install ``trace`` as the context's active trace (None = no-op)."""
    return _TraceActivation(trace)


class _NullRequestTrace:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_REQUEST_TRACE = _NullRequestTrace()


class _RequestTrace:
    """An opted-in request's trace: reuse the ambient one or start fresh."""

    __slots__ = ("_tracer", "_activation")

    def __init__(self, tracer: Tracer | None):
        self._tracer = tracer
        self._activation: _TraceActivation | None = None

    def __enter__(self) -> Trace | None:
        active = _ACTIVE_TRACE.get()
        if active is not None:
            # The serving tier already opened a trace for this request;
            # record into (and return) that one rather than forking a
            # second tree for the same execution.
            return active
        trace = self._tracer.start() if self._tracer is not None else Trace()
        if trace is None:
            return None
        self._activation = _TraceActivation(trace)
        return self._activation.__enter__()

    def __exit__(self, *exc) -> bool:
        if self._activation is not None:
            self._activation.__exit__(*exc)
        return False


def request_trace(tracer: Tracer | None, opted: bool):
    """The per-request trace gate the service front doors use.

    ``opted=False`` (the default for every request) returns a shared
    no-op yielding ``None`` -- the disabled path allocates nothing.
    ``opted=True`` yields the ambient trace when the server already
    opened one, otherwise a fresh trace if ``tracer`` sampling admits.
    """
    if not opted:
        return _NULL_REQUEST_TRACE
    return _RequestTrace(tracer)


# ----------------------------------------------------------------------
# Serialised-trace queries (payload dicts, not live Trace objects)
# ----------------------------------------------------------------------
def stage_totals(payload: Mapping[str, Any]) -> dict[str, float]:
    """Summed seconds per span kind of one serialised trace."""
    totals: dict[str, float] = {}
    for record in payload.get("spans", ()):
        kind = record.get("kind", "(other)")
        totals[kind] = totals.get(kind, 0.0) + float(record.get("seconds", 0.0))
    return totals


def validate_trace(
    payload: Mapping[str, Any], tolerance_seconds: float = 1e-4
) -> list[str]:
    """Structural problems of one serialised trace ([] = valid span tree).

    Checks: a non-empty id and span list, at least one root, parents that
    exist and precede their children (spans append in enter order, so a
    parent's index is always lower), and child intervals nested inside
    their parent's within ``tolerance_seconds``.
    """
    problems: list[str] = []
    if not payload.get("trace_id"):
        problems.append("missing trace_id")
    spans = payload.get("spans")
    if not isinstance(spans, list) or not spans:
        problems.append("no spans")
        return problems
    roots = 0
    for index, record in enumerate(spans):
        parent = record.get("parent")
        start = record.get("start_seconds")
        seconds = record.get("seconds")
        if not isinstance(start, (int, float)) or not isinstance(
            seconds, (int, float)
        ):
            problems.append(f"span {index}: non-numeric timing")
            continue
        if seconds < 0 or start < -tolerance_seconds:
            problems.append(f"span {index}: negative timing")
        if parent is None:
            roots += 1
            continue
        if not isinstance(parent, int) or not 0 <= parent < len(spans):
            problems.append(f"span {index}: parent {parent!r} does not exist")
            continue
        if parent >= index:
            problems.append(f"span {index}: parent {parent} does not precede it")
            continue
        outer = spans[parent]
        outer_start = outer.get("start_seconds", 0.0)
        outer_end = outer_start + outer.get("seconds", 0.0)
        if start < outer_start - tolerance_seconds:
            problems.append(f"span {index}: starts before its parent")
        if start + seconds > outer_end + tolerance_seconds:
            problems.append(f"span {index}: ends after its parent")
    if roots == 0:
        problems.append("no root span")
    return problems
