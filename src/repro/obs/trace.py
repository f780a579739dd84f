"""Span-style stage timing — where a write's latency decomposes.

The engine and bus wrap each hot stage in an explicit
``span_begin``/``span_end`` pair; every span carries the simulated time
it started at (attribution against the scenario timeline) and a
wall-clock duration from ``perf_counter_ns`` (the real cost).  Durations
land in per-stage latency histograms in the owning shard's registry
(``span.<stage>_ms``), and the most recent spans are kept in a capped
ring for the admin view — so "where did this write's 0.66 ms go?" is
answered by reading six histograms instead of attaching a debugger.

The span taxonomy (one entry per pipeline stage, in flow order):

========  ==========================================================
stage     wraps
========  ==========================================================
drain     one ingest-bus drain of a shard queue (size = entries)
batch     one ``RuleEngine.ingest_batch`` run (size = writes applied)
sweep     one columnar numeric threshold sweep (one write)
fanout    wake-set assembly + rule evaluation after a write
wheel     one ``clock_tick`` wheel advance + evaluations (size = wakes)
action    one device dispatch (including the access check)
========  ==========================================================

A begin/end pair costs two ``perf_counter_ns`` calls, one bisect-based
histogram observe and one capped-deque append of a plain tuple — a few
µs, which is what keeps the enabled-vs-disabled A10 overhead budget
under 3% on the columnar ingest workload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS_MS, MetricsRegistry

__all__ = ["STAGES", "SpanRecord", "SpanRecorder", "Telemetry"]

STAGES = ("drain", "batch", "sweep", "fanout", "wheel", "action")
"""The span taxonomy, in pipeline-flow order."""

DEFAULT_MAX_SPANS = 256


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span in the recent-spans ring."""

    stage: str
    at: float        # simulated time the span began
    ms: float        # wall-clock duration, milliseconds
    home: str | None = None
    size: int | None = None

    def describe(self) -> str:
        parts = [f"t={self.at:9.1f} {self.stage:<7} {self.ms:9.4f} ms"]
        if self.size is not None:
            parts.append(f"size={self.size}")
        if self.home is not None:
            parts.append(f"home={self.home}")
        return "  ".join(parts)


class SpanRecorder:
    """Begin/end stage timing into a registry plus a recent-spans ring.

    Per-stage histograms are memoized on first use so steady-state spans
    never touch the registry's name lookup.  ``clock`` supplies the
    simulated time (``Simulator.now``); when absent, spans are stamped
    with 0.0 — durations are always wall-clock.  The ring holds each
    span as a ``(stage, at, ms, home, size)`` tuple, the field order of
    :class:`SpanRecord`; :meth:`recent` builds the records when read.
    """

    __slots__ = ("registry", "clock", "ring", "_stage_hists")

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        clock: Callable[[], float] | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.ring: deque[tuple] = deque(maxlen=max_spans)
        self._stage_hists: dict[str, object] = {}

    def span_begin(
        self, stage: str, *, home: str | None = None, size: int | None = None,
    ) -> tuple:
        """Open a span; returns the token ``span_end`` closes.  The
        perf-counter read is last so setup cost stays outside the span."""
        at = self.clock() if self.clock is not None else 0.0
        return (stage, home, size, at, perf_counter_ns())

    def span_end(self, token: tuple, *, size: int | None = None) -> float:
        """Close a span: observe its duration into ``span.<stage>_ms``
        and push it onto the ring.  ``size`` overrides the begin-time
        value for stages whose size is only known afterwards (a batch's
        applied-write count).  Returns the duration in ms."""
        elapsed_ms = (perf_counter_ns() - token[4]) / 1e6
        stage = token[0]
        hist = self._stage_hists.get(stage)
        if hist is None:
            hist = self.registry.histogram(
                f"span.{stage}_ms", DEFAULT_LATENCY_BOUNDS_MS
            )
            self._stage_hists[stage] = hist
        hist.observe(elapsed_ms)
        self.ring.append((stage, token[3], elapsed_ms, token[1],
                          size if size is not None else token[2]))
        return elapsed_ms

    def recent(self) -> list[SpanRecord]:
        """The ring's contents as records, oldest first."""
        return [SpanRecord(*span) for span in self.ring]


class Telemetry:
    """The live telemetry seam one shard (or engine) carries: a metrics
    registry plus a span recorder writing into it.

    Telemetry off is ``None``: hot paths bind their instruments only
    when the seam is not ``None``, so the disabled configuration costs
    one ``None`` check per seam.
    """

    __slots__ = ("registry", "spans", "shard")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        shard: int | None = None,
        clock: Callable[[], float] | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = SpanRecorder(
            self.registry, clock=clock, max_spans=max_spans
        )
        self.shard = shard
