"""Property/fuzz tests for the cluster wire codec.

The codec sits under every byte the process backend moves — and its
batch records are the WAL's record bodies — so these tests lean on
hypothesis: round-trips over randomized records (mixed value types,
events, header fields) and call payloads; framing survival under
arbitrary stream chunking; rejection of truncated frames and records,
unknown types, oversized lengths and undefined key ids; and key-table
resync after a reconnect."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import wire
from repro.errors import WireError

# -- strategies ----------------------------------------------------------------

variable_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=1, max_size=24,
)

scalar_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=16),
    st.frozensets(st.text(max_size=8), max_size=4),
)

batches = st.lists(st.tuples(variable_names, scalar_values), max_size=32)

events = st.builds(
    wire.Event,
    st.sampled_from(["returns home", "leaves home", "alarm"]),
    st.one_of(st.none(), variable_names),
    st.one_of(st.none(), st.lists(variable_names, max_size=4).map(sorted)),
)

entry_lists = st.lists(
    st.one_of(st.tuples(variable_names, scalar_values), events),
    max_size=24,
)

timestamps = st.floats(min_value=0.0, max_value=86_400.0,
                       allow_nan=False, allow_infinity=False)


def roundtrip_frame(frame: bytes) -> tuple[int, bytes]:
    reader = wire.FrameReader()
    reader.feed(frame)
    (decoded,) = list(reader.frames())
    reader.at_eof()
    return decoded


# -- batch / event round-trips -------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(t=timestamps, writes=batches)
def test_batch_roundtrip(t, writes):
    encoder, decoder = wire.WireEncoder(), wire.WireDecoder()
    frame_type, payload = roundtrip_frame(encoder.encode_batch(t, writes))
    assert frame_type == wire.BATCH
    got_t, got_writes = decoder.decode_batch(payload)
    assert got_t == t
    assert got_writes == list(writes)


def side_table(payload: bytes) -> dict:
    """The JSON side table at the end of a record (empty when absent)."""
    *_, side_size = wire.RECORD_HEADER.unpack_from(payload)
    return json.loads(payload[len(payload) - side_size:]) if side_size \
        else {}


@settings(max_examples=100, deadline=None)
@given(t=timestamps, chunks=st.lists(batches, min_size=2, max_size=6))
def test_batch_stream_roundtrip_shares_one_key_table(t, chunks):
    """A sequence of batches on one connection decodes exactly, and
    names are only ever defined once."""
    encoder, decoder = wire.WireEncoder(), wire.WireDecoder()
    defined: set[str] = set()
    for writes in chunks:
        _, payload = roundtrip_frame(encoder.encode_batch(t, writes))
        for name in side_table(payload).get("d", (0, []))[1]:
            assert name not in defined, "name re-defined on same connection"
            defined.add(name)
        _, got = decoder.decode_batch(payload)
        assert got == list(writes)


@settings(max_examples=100, deadline=None)
@given(
    t=timestamps,
    event_type=st.sampled_from(["registered", "removed", "recovered", "tv"]),
    subject=st.one_of(st.none(), variable_names),
    only=st.one_of(st.none(), st.lists(variable_names, max_size=8)),
)
def test_event_roundtrip(t, event_type, subject, only):
    encoder, decoder = wire.WireEncoder(), wire.WireDecoder()
    scope = sorted(only) if only is not None else None
    frame_type, payload = roundtrip_frame(
        encoder.encode_batch(t, [wire.Event(event_type, subject, scope)]))
    assert frame_type == wire.BATCH
    got_t, (got,) = decoder.decode_batch(payload)
    assert got_t == t
    assert got == (event_type, subject, scope)
    assert isinstance(got, wire.Event)


@settings(max_examples=200, deadline=None)
@given(
    t=timestamps,
    seq=st.integers(min_value=0, max_value=2**63),
    epoch=st.integers(min_value=0, max_value=2**32 - 1),
    records=st.lists(entry_lists, min_size=1, max_size=4),
    cuts=st.lists(st.integers(min_value=1, max_value=48), max_size=24),
)
def test_records_roundtrip_under_any_chunking(t, seq, epoch, records, cuts):
    """Mixed float/str/frozenset/bool/None values and events, with the
    header, survive one connection cut into arbitrary chunks."""
    encoder, decoder = wire.WireEncoder(), wire.WireDecoder()
    encoder.seq, encoder.epoch = seq, epoch
    stream = b"".join(encoder.encode_batch(t, entries) for entries in records)
    reader = wire.FrameReader()
    payloads: list[bytes] = []
    position = 0
    for cut in cuts:
        reader.feed(stream[position:position + cut])
        position += cut
        payloads.extend(payload for _, payload in reader.frames())
    reader.feed(stream[position:])
    payloads.extend(payload for _, payload in reader.frames())
    reader.at_eof()
    assert len(payloads) == len(records)
    for payload, entries in zip(payloads, records):
        record = decoder.decode_record(payload)
        assert (record.seq, record.t, record.epoch) == (seq, t, epoch)
        assert record.entries == list(entries)
        for got, sent in zip(record.entries, entries):
            assert type(got[1] if len(got) == 2 else got) is \
                type(sent[1] if len(sent) == 2 else sent)


@settings(max_examples=100, deadline=None)
@given(t=timestamps, entries=entry_lists.filter(bool),
       drop=st.integers(min_value=1, max_value=64))
def test_truncated_record_rejected(t, entries, drop):
    payload = wire.WireEncoder().encode_record(t, entries)
    with pytest.raises(WireError):
        wire.WireDecoder().decode_record(payload[:max(0, len(payload) - drop)])


def test_steady_float_batches_carry_no_side_table():
    encoder = wire.WireEncoder()
    writes = [(f"home-0001/sensor-{i}/temp", 21.5 + i) for i in range(4)]
    encoder.encode_record(0.0, writes)  # defines the names
    payload = encoder.encode_record(1.0, writes)
    assert side_table(payload) == {}
    assert len(payload) == wire.RECORD_HEADER.size + 4 * (8 + 8)


def test_interning_shrinks_repeat_batches():
    encoder = wire.WireEncoder()
    writes = [(f"home-0001/sensor-{i}/temp", 21.5) for i in range(16)]
    first = encoder.encode_batch(0.0, writes)
    second = encoder.encode_batch(1.0, writes)
    assert len(second) < len(first) / 2


# -- framing under arbitrary chunking ------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    payloads=st.lists(st.binary(max_size=64), min_size=1, max_size=8),
    cuts=st.lists(st.integers(min_value=1, max_value=32), max_size=16),
    data=st.data(),
)
def test_frame_reader_reassembles_any_chunking(payloads, cuts, data):
    frame_types = [
        data.draw(st.sampled_from(sorted(wire.FRAME_NAMES)))
        for _ in payloads
    ]
    stream = b"".join(
        wire.encode_frame(ft, p) for ft, p in zip(frame_types, payloads))
    reader = wire.FrameReader()
    decoded: list[tuple[int, bytes]] = []
    position = 0
    for cut in cuts:
        reader.feed(stream[position:position + cut])
        position += cut
        decoded.extend(reader.frames())
    reader.feed(stream[position:])
    decoded.extend(reader.frames())
    reader.at_eof()
    assert decoded == list(zip(frame_types, payloads))


@settings(max_examples=100, deadline=None)
@given(payload=st.binary(max_size=64), drop=st.integers(min_value=1, max_value=8))
def test_truncated_frame_rejected_at_eof(payload, drop):
    frame = wire.encode_frame(wire.BATCH, payload)
    reader = wire.FrameReader()
    reader.feed(frame[:max(1, len(frame) - drop)])
    list(reader.frames())
    with pytest.raises(WireError, match="mid-frame"):
        reader.at_eof()


@settings(max_examples=50, deadline=None)
@given(bad_type=st.integers(min_value=0, max_value=255).filter(
    lambda b: b not in wire.FRAME_NAMES))
def test_unknown_frame_type_rejected(bad_type):
    reader = wire.FrameReader()
    reader.feed(struct.pack("<IB", 0, bad_type))
    with pytest.raises(WireError, match="unknown frame type"):
        list(reader.frames())
    with pytest.raises(WireError):
        wire.encode_frame(bad_type, b"")


def test_oversized_length_prefix_rejected():
    reader = wire.FrameReader()
    reader.feed(struct.pack("<IB", wire.MAX_FRAME + 1, wire.BATCH))
    with pytest.raises(WireError, match="MAX_FRAME"):
        list(reader.frames())


def test_undecodable_payloads_rejected():
    decoder = wire.WireDecoder()
    with pytest.raises(WireError):
        decoder.decode_batch(b"\xff not json")
    with pytest.raises(WireError):
        decoder.decode_batch(b'{"wrong": "shape"}')
    with pytest.raises(WireError):
        decoder.decode_record(
            wire.RECORD_HEADER.pack(0.0, 0, 0, 0, 3) + b"[1,")
    with pytest.raises(WireError):
        wire.decode_pickled(b"\x80\x05 garbage")


# -- key-table resync ----------------------------------------------------------

def test_undefined_key_id_rejected():
    encoder = wire.WireEncoder()
    stale = wire.WireDecoder()
    first = encoder.encode_batch(0.0, [("kitchen/temp", 20)])
    # warm decoder consumes the defs; the stale one never sees them
    warm = wire.WireDecoder()
    warm.decode_batch(roundtrip_frame(first)[1])
    second = encoder.encode_batch(1.0, [("kitchen/temp", 21)])
    with pytest.raises(WireError, match="never defined"):
        stale.decode_batch(roundtrip_frame(second)[1])


def test_undefined_value_id_rejected():
    encoder = wire.WireEncoder()
    warm, stale = wire.WireDecoder(), wire.WireDecoder()
    first = encoder.encode_record(0.0, [("a/place", 1.5)])
    stale.decode_record(first)
    warm.decode_record(first)
    # The warm decoder learns the interned room; the stale one misses it.
    warm.decode_record(encoder.encode_record(1.0, [("a/place", "kitchen")]))
    again = encoder.encode_record(2.0, [("a/place", "kitchen")])
    assert warm.decode_record(again).entries == [("a/place", "kitchen")]
    with pytest.raises(WireError, match="never defined"):
        stale.decode_record(again)


def test_key_table_resync_after_reconnect():
    encoder = wire.WireEncoder()
    old_decoder = wire.WireDecoder()
    old_decoder.decode_batch(
        roundtrip_frame(encoder.encode_batch(0.0, [("a/x", 1), ("a/y", 2)]))[1])

    # Reconnect: encoder resets, the new connection's decoder starts
    # empty, and the first batch re-defines everything it names.
    encoder.reset()
    new_decoder = wire.WireDecoder()
    _, writes = new_decoder.decode_batch(
        roundtrip_frame(encoder.encode_batch(5.0, [("a/y", 3), ("a/z", 4)]))[1])
    assert writes == [("a/y", 3), ("a/z", 4)]


# -- call plumbing -------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    req_id=st.integers(min_value=0, max_value=2**31),
    method=st.sampled_from(["barrier", "rule_truth", "coalesce_safe"]),
    t=timestamps,
    args=st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=8)),
                  max_size=4),
)
def test_call_result_roundtrip(req_id, method, t, args):
    _, payload = roundtrip_frame(wire.encode_call(req_id, method, t, args))
    assert wire.decode_call(payload) == (req_id, method, t, list(args))
    _, payload = roundtrip_frame(wire.encode_result(req_id, args))
    assert wire.decode_result(payload) == (req_id, list(args))


def test_error_frame_carries_typed_exception():
    from repro.errors import WorkerCrashed
    original = WorkerCrashed(2, -9, "drain")
    _, payload = roundtrip_frame(wire.encode_error(17, original, "tb text"))
    req_id, exc, tb = wire.decode_pickled(payload)
    assert req_id == 17 and tb == "tb text"
    assert isinstance(exc, WorkerCrashed)
    assert (exc.shard_id, exc.exitcode) == (2, -9)


def test_unpicklable_exception_degrades_to_wire_error():
    class Hostile(Exception):
        def __reduce__(self):
            raise TypeError("nope")

    _, payload = roundtrip_frame(wire.encode_error(3, Hostile("x"), "tb"))
    req_id, exc, _ = wire.decode_pickled(payload)
    assert req_id == 3
    assert isinstance(exc, WireError)
    assert "Hostile" in str(exc)


def test_value_tagging_roundtrips_frozensets():
    tagged = wire.encode_value(frozenset({"b", "a"}))
    assert tagged == {"set": ["a", "b"]}
    assert wire.decode_value(tagged) == frozenset({"a", "b"})
    assert wire.decode_value(3.5) == 3.5
