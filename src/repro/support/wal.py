"""Write-ahead log of drained ingest batches.

One WAL file per shard per checkpoint generation.  Each record is::

    [u32 length][u32 crc32][length bytes of record body]

(little-endian prefix, CRC over the body).  The body is opaque here: the
cluster logs each drained batch as its typed batch record (see
:class:`repro.cluster.wire.WireEncoder`), the same bytes a process
shard receives in its BATCH frame.  Records are appended *before* the
batch they describe is applied, so a crash at any later point leaves
the batch recoverable; a crash mid-append leaves a torn tail the reader
truncates at.  ``fsync`` is batched — every ``fsync_interval`` appends
plus an explicit :meth:`WalWriter.sync` at checkpoints — which is where
the A11 benchmark's ≤10% steady-state overhead budget comes from.

The reader is deliberately forgiving at the tail and strict before it:
a short prefix, short body, CRC mismatch or a body the caller's decoder
rejects stops the scan and reports what was dropped, because a torn
tail is exactly what a power cut during an append produces; anything
*after* valid bytes is unreachable by construction (appends are
sequential), so stopping loses only the suffix a real crash already
lost.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ReproError
from repro.sim.faults import FaultInjector, SimulatedCrash

_PREFIX = struct.Struct("<II")

#: Bytes the framing adds to each record body.
RECORD_PREFIX_SIZE = _PREFIX.size

CRASH_BEFORE_APPEND = "wal-before-append"
CRASH_TORN_APPEND = "wal-torn-append"
CRASH_AFTER_APPEND = "wal-after-append"

WAL_CRASH_SITES = (
    CRASH_BEFORE_APPEND, CRASH_TORN_APPEND, CRASH_AFTER_APPEND,
)


@dataclass
class WalReadReport:
    """What a WAL scan recovered and where (and why) it stopped."""

    records: int = 0
    valid_bytes: int = 0
    total_bytes: int = 0
    truncated: bool = False
    reason: str = ""

    def ok(self) -> bool:
        return not self.truncated


class WalWriter:
    """Appends framed records to one shard's log, fsync-batched.

    ``faults`` threads the durability plane's crash-point injector
    through the append path: before the write (the record is lost, like
    a cut during queue drain), torn mid-write (a prefix of the frame
    reaches the disk) and after the write (the record is durable but
    its batch never applied).
    """

    def __init__(
        self,
        path: str,
        *,
        fsync_interval: int = 16,
        faults: FaultInjector | None = None,
    ) -> None:
        if fsync_interval <= 0:
            raise ValueError(
                f"fsync_interval must be positive: {fsync_interval}"
            )
        self.path = path
        self.fsync_interval = fsync_interval
        self.faults = faults
        self.records_appended = 0
        self._unsynced = 0
        self._handle = open(path, "ab")

    def append(self, body: bytes) -> int:
        """CRC-frame and append one record body; returns the framed
        size in bytes."""
        frame = _PREFIX.pack(len(body), zlib.crc32(body)) + body
        faults = self.faults
        if faults is not None:
            faults.check(CRASH_BEFORE_APPEND)
        if faults is not None:
            try:
                faults.check(CRASH_TORN_APPEND)
            except SimulatedCrash:
                # A real cut mid-append leaves a prefix of the frame on
                # disk; reproduce that exactly, then crash.
                torn = frame[: max(1, len(frame) // 2)]
                self._handle.write(torn)
                self._handle.flush()
                raise
        self._handle.write(frame)
        self._handle.flush()
        self.records_appended += 1
        self._unsynced += 1
        if self._unsynced >= self.fsync_interval:
            self.sync()
        if faults is not None:
            faults.check(CRASH_AFTER_APPEND)
        return len(frame)

    def sync(self) -> None:
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._unsynced = 0

    def close(self) -> None:
        if self._handle.closed:
            return
        self.sync()
        self._handle.close()


def read_wal(
    path: str, decode: Callable[[bytes], Any] | None = None,
) -> tuple[list, WalReadReport]:
    """Scan a WAL file; returns its record bodies — passed through
    ``decode`` when given, in file order, so a decoder may carry state
    from record to record — plus a report describing any truncation
    (torn tail, checksum mismatch, a body ``decode`` rejects with
    ``ValueError`` or a library error).  A missing file reads as empty —
    a checkpoint that crashed before creating its WAL recovers from
    snapshot alone.
    """
    report = WalReadReport()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return [], report
    report.total_bytes = len(data)
    records: list = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _PREFIX.size > size:
            report.truncated = True
            report.reason = "torn record prefix"
            break
        length, crc = _PREFIX.unpack_from(data, offset)
        body_start = offset + _PREFIX.size
        body_end = body_start + length
        if body_end > size:
            report.truncated = True
            report.reason = "torn record payload"
            break
        body = data[body_start:body_end]
        if zlib.crc32(body) != crc:
            report.truncated = True
            report.reason = "checksum mismatch"
            break
        if decode is not None:
            try:
                body = decode(body)
            except (ValueError, ReproError):
                report.truncated = True
                report.reason = "undecodable payload"
                break
        records.append(body)
        report.records += 1
        offset = body_end
        report.valid_bytes = offset
    return records, report


__all__: list[str] = [
    "CRASH_AFTER_APPEND",
    "CRASH_BEFORE_APPEND",
    "CRASH_TORN_APPEND",
    "RECORD_PREFIX_SIZE",
    "WAL_CRASH_SITES",
    "WalReadReport",
    "WalWriter",
    "read_wal",
]
