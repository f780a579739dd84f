"""WAL framing/recovery (repro.support.wal) and the atomic-write
helper (repro.support.fsio)."""

import struct

import pytest

from repro.sim.faults import FaultInjector, SimulatedCrash
from repro.support.fsio import atomic_write_bytes, atomic_write_text
from repro.support.wal import (
    CRASH_AFTER_APPEND,
    CRASH_BEFORE_APPEND,
    CRASH_TORN_APPEND,
    RECORD_PREFIX_SIZE,
    WalWriter,
    read_wal,
)


def _write(path, payloads, **kwargs):
    writer = WalWriter(str(path), **kwargs)
    for payload in payloads:
        writer.append(payload)
    writer.close()


def _body(seq, pad=""):
    return f"record-{seq}{pad}".encode()


# -- fsio ------------------------------------------------------------------------


def test_atomic_write_replaces_content(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_text(str(path), "first")
    atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]  # no tmp litter


def test_atomic_write_failure_keeps_previous_content(tmp_path):
    path = tmp_path / "doc.bin"
    atomic_write_bytes(str(path), b"intact")
    # Simulate a mid-write failure by passing something the file write
    # rejects; the destination must keep its previous content.
    with pytest.raises(TypeError):
        atomic_write_bytes(str(path), "not-bytes")  # type: ignore[arg-type]
    assert path.read_bytes() == b"intact"
    assert list(tmp_path.iterdir()) == [path]


# -- WAL round trip --------------------------------------------------------------


def test_wal_round_trip(tmp_path):
    path = tmp_path / "shard0.log"
    payloads = [_body(i) for i in range(40)]
    _write(path, payloads, fsync_interval=7)
    records, report = read_wal(str(path))
    assert records == payloads
    assert report.ok()
    assert report.records == 40
    assert report.valid_bytes == report.total_bytes


def test_missing_wal_reads_empty(tmp_path):
    records, report = read_wal(str(tmp_path / "absent.log"))
    assert records == []
    assert report.ok()


def test_torn_tail_truncates_to_last_valid_record(tmp_path):
    path = tmp_path / "shard0.log"
    payloads = [_body(i) for i in range(5)]
    _write(path, payloads)
    blob = path.read_bytes()
    # Tear mid-way through the final record's payload.
    path.write_bytes(blob[:-3])
    records, report = read_wal(str(path))
    assert records == payloads[:4]
    assert report.truncated
    assert report.reason == "torn record payload"


def test_torn_prefix_truncates(tmp_path):
    path = tmp_path / "shard0.log"
    _write(path, [_body(1)])
    with open(path, "ab") as handle:
        handle.write(struct.pack("<I", 99)[:3])  # 3 of 8 prefix bytes
    records, report = read_wal(str(path))
    assert len(records) == 1
    assert report.truncated
    assert report.reason == "torn record prefix"


def test_checksum_corruption_truncates(tmp_path):
    path = tmp_path / "shard0.log"
    payloads = [_body(i, "x" * 20) for i in range(3)]
    _write(path, payloads)
    blob = bytearray(path.read_bytes())
    # Flip a byte inside the second record's payload.
    first_len = RECORD_PREFIX_SIZE + len(payloads[0])
    blob[first_len + 12] ^= 0xFF
    path.write_bytes(bytes(blob))
    records, report = read_wal(str(path))
    assert records == payloads[:1]
    assert report.truncated
    assert report.reason == "checksum mismatch"


def test_valid_bytes_count_garbage_after_corruption(tmp_path):
    path = tmp_path / "shard0.log"
    _write(path, [_body(1), _body(2)])
    good = RECORD_PREFIX_SIZE + len(_body(1))
    blob = bytearray(path.read_bytes())
    blob[good + 9] ^= 0x01
    path.write_bytes(bytes(blob))
    _, report = read_wal(str(path))
    assert report.valid_bytes == good
    assert report.total_bytes == len(blob)


# -- fault-injected appends ------------------------------------------------------


def test_crash_before_append_loses_the_record(tmp_path):
    path = tmp_path / "shard0.log"
    writer = WalWriter(str(path), faults=FaultInjector(
        {CRASH_BEFORE_APPEND: 2}))
    writer.append(_body(1))
    with pytest.raises(SimulatedCrash):
        writer.append(_body(2))
    writer.close()  # the process died; release the handle
    records, report = read_wal(str(path))
    assert records == [_body(1)]
    assert report.ok()


def test_crash_torn_append_leaves_recoverable_prefix(tmp_path):
    path = tmp_path / "shard0.log"
    writer = WalWriter(str(path), faults=FaultInjector(
        {CRASH_TORN_APPEND: 2}))
    writer.append(_body(1))
    with pytest.raises(SimulatedCrash):
        writer.append(_body(2))
    writer.close()  # the process died; release the handle
    records, report = read_wal(str(path))
    assert records == [_body(1)]
    assert report.truncated  # half a frame really is on disk


def test_crash_after_append_keeps_the_record(tmp_path):
    path = tmp_path / "shard0.log"
    writer = WalWriter(str(path), faults=FaultInjector(
        {CRASH_AFTER_APPEND: 2}))
    writer.append(_body(1))
    with pytest.raises(SimulatedCrash):
        writer.append(_body(2))
    writer.close()  # the process died; release the handle
    records, report = read_wal(str(path))
    assert records == [_body(1), _body(2)]
    assert report.ok()


def test_fsync_interval_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        WalWriter(str(tmp_path / "w.log"), fsync_interval=0)


def test_bodies_are_stored_verbatim_after_the_prefix(tmp_path):
    path = tmp_path / "shard0.log"
    body = bytes(range(256))
    _write(path, [body])
    blob = path.read_bytes()
    assert len(blob) == RECORD_PREFIX_SIZE + len(body)
    assert blob[RECORD_PREFIX_SIZE:] == body
    length, _crc = struct.unpack_from("<II", blob)
    assert length == len(body)


def test_decoder_runs_in_file_order_and_a_rejected_body_truncates(tmp_path):
    path = tmp_path / "shard0.log"
    _write(path, [b"1", b"2", b"x", b"4"])
    seen = []

    def decode(body):
        value = int(body)  # raises ValueError on b"x"
        seen.append(value)
        return value * 10

    records, report = read_wal(str(path), decode)
    assert records == [10, 20]
    assert seen == [1, 2]
    assert report.truncated
    assert report.reason == "undecodable payload"
    assert report.valid_bytes == 2 * (RECORD_PREFIX_SIZE + 1)
