"""Span recorder semantics: stage histograms, ring, clock."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import STAGES, SpanRecord, SpanRecorder, Telemetry


def test_span_end_observes_stage_histogram_and_ring():
    registry = MetricsRegistry()
    recorder = SpanRecorder(registry)
    token = recorder.span_begin("batch", home="home-0001", size=None)
    elapsed = recorder.span_end(token, size=16)
    assert elapsed >= 0.0
    snapshot = registry.snapshot()
    assert snapshot["histograms"]["span.batch_ms"]["count"] == 1
    (record,) = recorder.recent()
    assert record.stage == "batch"
    assert record.home == "home-0001"
    assert record.size == 16       # end-time size overrides begin-time
    assert record.ms == elapsed
    assert "batch" in record.describe()


def test_ring_is_capped_and_oldest_first():
    recorder = SpanRecorder(MetricsRegistry(), max_spans=3)
    for index in range(5):
        recorder.span_end(recorder.span_begin("drain", size=index))
    records = recorder.recent()
    assert len(records) == 3
    assert [record.size for record in records] == [2, 3, 4]


def test_sim_clock_stamps_span_start():
    times = iter((120.0, 999.0))
    recorder = SpanRecorder(MetricsRegistry(), clock=lambda: next(times))
    recorder.span_end(recorder.span_begin("wheel"))
    assert recorder.recent()[0].at == 120.0  # stamped at begin, not end


def test_stage_taxonomy_is_the_documented_pipeline():
    assert STAGES == ("drain", "batch", "sweep", "fanout", "wheel", "action")


def test_telemetry_defaults():
    telemetry = Telemetry(shard=3)
    assert telemetry.shard == 3
    assert telemetry.spans.registry is telemetry.registry


def test_recent_builds_records_in_ring_order():
    times = iter((5.0, 6.0, 7.0))
    recorder = SpanRecorder(MetricsRegistry(), clock=lambda: next(times))
    recorder.span_end(recorder.span_begin("batch", home="h1"), size=4)
    recorder.span_end(recorder.span_begin("action"))
    recorder.span_end(recorder.span_begin("wheel", size=2))
    records = recorder.recent()
    assert all(isinstance(record, SpanRecord) for record in records)
    assert [(r.stage, r.at, r.home, r.size) for r in records] == [
        ("batch", 5.0, "h1", 4), ("action", 6.0, None, None),
        ("wheel", 7.0, None, 2)]
    assert all(record.ms >= 0.0 for record in records)
    # Each read builds fresh records from the ring's tuples.
    assert recorder.recent() == records
