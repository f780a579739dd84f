"""Framed wire protocol between the cluster parent and shard workers.

A connection is a byte stream of frames, each ``[u32 len][u8 type]``
followed by ``len`` payload bytes (length counts the payload only).
The socket is a reliable stream, so frames carry no checksum; the WAL
(:mod:`repro.support.wal`) adds one when a worker logs a record.

Frame types split by payload codec:

* **Batch records** (``BATCH``) — the ingest hot path.  One record is
  one drained batch: a fixed header, one ``u64`` slot per write (key
  id plus value id), ``f64`` values and a small JSON side table (see
  :class:`WireEncoder`).  The record bytes are also the shard's WAL
  record body: a worker CRC-frames and appends the payload it
  received, so a batch is encoded once, in the parent, and never
  pickled.  Decoding from disk is therefore safe.
* **Action references** (``ACTION``) — a forwarded action is a
  ``u32`` id into a per-connection action table.  The first frame
  naming an action also carries its pickled ``ActionSpec`` (its
  definition), later frames send the id alone, and past
  :data:`MAX_ACTIONS` definitions a frame carries its spec inline (see
  :class:`ActionEncoder`).
* **Pickled payloads** — everything else: the handshake, calls and
  their results and errors.

Pickled frames are parent↔worker within one trust domain — the
connection is a private ``socketpair`` inherited at fork, never a
listening socket — the same trade the snapshot plane already makes.

BATCH frames are one-way: the parent queues them and sends them ahead
of its next CALL, whose reply therefore observes their effects (the
stream is FIFO).  A CALL carries a request id echoed by the matching
RESULT or ERROR; a RESULT also carries the worker shard's rule-churn
epoch, so the parent's copy follows every call.  The worker holds the
ACTION frames its engine dispatches and writes them in front of its
next reply.

Every record and call carries the parent simulator's ``now`` so the
worker's private clock can catch up (firing its grid-snapped ticks in
order) before the record is applied — see
:class:`repro.cluster.worker.WorkerHost` for the handshake.

Malformed input — bad length prefix, oversized frame, unknown type,
truncated stream, undecodable payload, or a key, value or action id the
stream never defined — raises :class:`repro.errors.WireError`.
"""

from __future__ import annotations

import json
import pickle
import struct
from typing import Any, Iterator, NamedTuple, Sequence

from repro.errors import WireError

_HEADER = struct.Struct("<IB")

HEADER_SIZE = _HEADER.size

#: Hard ceiling on a single frame's payload; a length prefix beyond it
#: means a desynchronized or corrupt stream, not a big batch.
MAX_FRAME = 64 * 1024 * 1024

# -- frame types ---------------------------------------------------------------

HELLO = 1        # parent → worker: pickled handshake config
HELLO_ACK = 2    # worker → parent: pickled (shard_id, pid)
BATCH = 3        # parent → worker, one-way: a batch record
CALL = 5         # parent → worker: pickled (req_id, method, t, args, kwargs)
RESULT = 7       # worker → parent: pickled (req_id, value, epoch)
ERROR = 9        # worker → parent: pickled (req_id, exception, traceback_text)
ACTION = 10      # worker → parent, ahead of a reply: u32 action id [+ pickled ActionSpec]
BYE = 12         # parent → worker: empty; worker closes WAL and exits

FRAME_NAMES = {
    HELLO: "HELLO", HELLO_ACK: "HELLO_ACK", BATCH: "BATCH", CALL: "CALL",
    RESULT: "RESULT", ERROR: "ERROR", ACTION: "ACTION", BYE: "BYE",
}

_KNOWN_TYPES = frozenset(FRAME_NAMES)


# -- framing -------------------------------------------------------------------

def encode_frame(frame_type: int, payload: bytes = b"") -> bytes:
    if frame_type not in _KNOWN_TYPES:
        raise WireError(f"cannot encode unknown frame type {frame_type}")
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"{FRAME_NAMES[frame_type]} payload of {len(payload)} bytes "
            f"exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _HEADER.pack(len(payload), frame_type) + payload


def decode_header(header: bytes) -> tuple[int, int]:
    """``(payload_length, frame_type)`` from a 5-byte header, validated."""
    if len(header) != HEADER_SIZE:
        raise WireError(
            f"truncated frame header: {len(header)} of {HEADER_SIZE} bytes"
        )
    length, frame_type = _HEADER.unpack(header)
    if frame_type not in _KNOWN_TYPES:
        raise WireError(f"unknown frame type {frame_type}")
    if length > MAX_FRAME:
        raise WireError(
            f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME}); "
            "stream is desynchronized"
        )
    return length, frame_type


class FrameReader:
    """Incremental frame splitter over an arbitrary chunking of the
    byte stream; both ends of a connection read through one."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def frames(self) -> Iterator[tuple[int, bytes]]:
        """Yield every complete ``(frame_type, payload)`` buffered so
        far, leaving any partial frame for the next :meth:`feed`."""
        while len(self._buffer) >= HEADER_SIZE:
            length, frame_type = decode_header(bytes(self._buffer[:HEADER_SIZE]))
            end = HEADER_SIZE + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[HEADER_SIZE:end])
            del self._buffer[:end]
            yield frame_type, payload

    def at_eof(self) -> None:
        """Call when the stream closes: leftover bytes mean the last
        frame was cut short."""
        if self._buffer:
            raise WireError(
                f"stream ended mid-frame with {len(self._buffer)} "
                "unconsumed bytes"
            )


# -- value tagging -------------------------------------------------------------

def encode_value(value: Any) -> Any:
    """Tag the one non-JSON value the ingest path produces (frozenset
    readings) so decode round-trips the type."""
    if isinstance(value, frozenset):
        return {"set": sorted(value)}
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "set" in value:
        return frozenset(value["set"])
    return value


# -- payload codecs ------------------------------------------------------------

def _load_json(payload: bytes) -> Any:
    try:
        return json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"undecodable JSON payload: {exc}") from exc


def encode_pickled(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode_pickled(payload: bytes) -> Any:
    try:
        return pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise WireError(f"undecodable pickled payload: {exc}") from exc


def encode_call(req_id: int, method: str, t: float, args: tuple,
                kwargs: dict) -> bytes:
    return encode_frame(
        CALL, encode_pickled((req_id, method, t, args, kwargs)))


def encode_result(req_id: int, value: Any, epoch: int) -> bytes:
    return encode_frame(RESULT, encode_pickled((req_id, value, epoch)))


def encode_error(req_id: int, exception: BaseException, tb_text: str) -> bytes:
    try:
        payload = encode_pickled((req_id, exception, tb_text))
    except Exception:
        # An unpicklable exception must still surface typed-ish: ship a
        # WireError carrying its repr rather than wedging the reply.
        payload = encode_pickled(
            (req_id, WireError(f"unpicklable worker exception: "
                               f"{exception!r}"), tb_text)
        )
    return encode_frame(ERROR, payload)


# -- action references ---------------------------------------------------------

#: Actions an :class:`ActionEncoder` defines per connection; past the
#: cap, an ACTION frame carries its spec inline under :data:`INLINE_ACTION`.
MAX_ACTIONS = 1 << 14
#: The id of an ACTION frame whose spec is inline and not tabled.
INLINE_ACTION = 0xFFFFFFFF

_ACTION_ID = struct.Struct("<I")
_ACTION_REF = struct.Struct("<IBI")   # a whole frame: header + action id


class ActionEncoder:
    """The worker's side of the action table: one ACTION frame per
    dispatched ``ActionSpec``.

    A spec is tabled by identity on its first dispatch — its frame
    carries the new id and the pickled spec — and every later dispatch
    of the same object is a 9-byte frame holding the id.  The encoder
    keeps each tabled spec alive, so an ``id()`` is never reused while
    the table holds it, and no dataclass ``__hash__``/``__eq__`` runs
    per dispatch.  Ids are assigned densely from 0; after
    :data:`MAX_ACTIONS` definitions new specs travel inline."""

    def __init__(self) -> None:
        self._ids: dict[int, int] = {}   # id(spec) -> action id
        self._specs: list = []           # action id -> spec

    def encode(self, spec: Any) -> bytes:
        action_id = self._ids.get(id(spec))
        if action_id is not None:
            return _ACTION_REF.pack(_ACTION_ID.size, ACTION, action_id)
        # Pickle before tabling: a spec that fails to pickle must not
        # take an id the parent never sees defined.
        definition = encode_pickled(spec)
        if len(self._specs) < MAX_ACTIONS:
            action_id = self._ids[id(spec)] = len(self._specs)
            self._specs.append(spec)
        else:
            action_id = INLINE_ACTION
        return encode_frame(ACTION, _ACTION_ID.pack(action_id) + definition)


class ActionDecoder:
    """The parent's side of the action table: definitions arrive in id
    order, like the batch record's key table, and an id resolves by
    index."""

    def __init__(self) -> None:
        self._specs: list = []

    def decode(self, payload: bytes) -> Any:
        """The ``ActionSpec`` one ACTION payload names; an id before its
        definition, or a definition out of order, raises
        :class:`WireError`."""
        try:
            (action_id,) = _ACTION_ID.unpack_from(payload)
        except struct.error as exc:
            raise WireError(f"malformed ACTION frame: {exc}") from exc
        specs = self._specs
        if len(payload) == _ACTION_ID.size:
            if action_id < len(specs):
                return specs[action_id]
            raise WireError(
                f"ACTION references action id {action_id} this stream "
                "never defined")
        spec = decode_pickled(payload[_ACTION_ID.size:])
        if action_id != INLINE_ACTION:
            if action_id != len(specs):
                raise WireError(
                    f"action-table definition {action_id} out of order "
                    f"(expected {len(specs)}); stream is desynchronized")
            specs.append(spec)
        return spec


# -- batch records -------------------------------------------------------------

class Event(NamedTuple):
    """An instantaneous event entry of a batch record (writes are plain
    ``(variable, value)`` pairs).  ``only`` is the sorted rule-name
    scope, or None for every rule on the shard."""

    event_type: str
    subject: str | None
    only: list[str] | None


class Record(NamedTuple):
    """A decoded batch record."""

    seq: int        # WAL sequence number of the drained batch; 0: unlogged
    t: float        # parent simulator time of the drain
    epoch: int      # the shard's rule-churn epoch at the drain
    entries: list   # (variable, value) pairs and Event entries, in order


#: ``t, seq, epoch, writes, side-table bytes``.  Then come one ``u64``
#: slot per write — the key id in the low 32 bits, the value id above
#: them (0: the value is the write's float) — the writes' ``f64``
#: values, and the side table.
RECORD_HEADER = struct.Struct("<dQIII")

#: Interned values per stream (see WireEncoder); past the cap, values
#: travel inline in the side table.
MAX_INTERNED_VALUES = 1 << 16

_KEY_BITS = 0xFFFFFFFF
_JSON = json.JSONEncoder(separators=(",", ":"))


class WireEncoder:
    """Batch-record encoder with interned key and value tables.

    Variable names are interned: the first record naming a variable
    defines its id, every later record sends the id.  String and
    frozenset values — room names, keyword sets — are interned the same
    way and referenced from the write's slot.  Other values (ints,
    bools, None), new definitions and events go into the JSON side
    table, which a steady stream leaves empty.  The tables live as long
    as the stream they feed: a connection, and on a durable shard one
    WAL generation, so each generation decodes on its own; :meth:`reset`
    restarts them.

    ``seq`` and ``epoch`` are the header of the records encoded next:
    the WAL sequence number of the drained batch (0 when the batch is
    not logged) and the shard's rule epoch.  The durable drain path
    sets them before it encodes a logged batch."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._value_ids: dict[Any, int] = {}
        self.seq = 0
        self.epoch = 0

    def reset(self) -> None:
        self._ids.clear()
        self._value_ids.clear()

    def encode_batch(self, t: float, writes: Sequence) -> bytes:
        """The BATCH frame of one record; ``writes`` holds
        ``(variable, value)`` pairs and :class:`Event` entries."""
        return self._encode(t, writes, True)

    def encode_record(self, t: float, entries: Sequence) -> bytes:
        """One record's bytes (a BATCH payload and a WAL record body)."""
        return self._encode(t, entries, False)

    def _encode(self, t: float, entries: Sequence, framed: bool) -> bytes:
        ids = self._ids
        value_ids = self._value_ids
        try:
            # Steady state: known names and values, no events.
            slots = [ids[variable] if type(value) is float
                     else ids[variable] | value_ids[value] << 32
                     for variable, value in entries]
        except (KeyError, ValueError, TypeError):
            # A new name or value, an Event (three fields), an inline
            # or unhashable value.
            return self._encode_general(t, entries, framed)
        count = len(slots)
        floats = [value if type(value) is float else 0.0
                  for _, value in entries]
        if framed:
            if RECORD_HEADER.size + 16 * count > MAX_FRAME:
                raise WireError(
                    f"a batch of {count} writes exceeds MAX_FRAME "
                    f"({MAX_FRAME})")
            return struct.pack(
                f"<IBdQIII{count}Q{count}d",
                RECORD_HEADER.size + 16 * count, BATCH,
                t, self.seq, self.epoch, count, 0, *slots, *floats)
        return struct.pack(
            f"<dQIII{count}Q{count}d", t, self.seq, self.epoch, count, 0,
            *slots, *floats)

    def _encode_general(self, t: float, entries: Sequence,
                        framed: bool) -> bytes:
        ids = self._ids
        value_ids = self._value_ids
        slots: list[int] = []
        floats: list[float] = []
        names: list[str] = []
        interned: list = []
        inline: list = []
        events: list = []
        first_id = len(ids)
        first_value_id = len(value_ids) + 1
        for entry in entries:
            if isinstance(entry, Event):
                events.append([len(slots) + len(events), entry.event_type,
                               entry.subject, entry.only])
                continue
            variable, value = entry
            key_id = ids.get(variable)
            if key_id is None:
                key_id = ids[variable] = len(ids)
                names.append(variable)
            value_id = 0
            if type(value) is float:
                floats.append(value)
            else:
                floats.append(0.0)
                if isinstance(value, (str, frozenset)):
                    value_id = value_ids.get(value, 0)
                    if not value_id and len(value_ids) < MAX_INTERNED_VALUES:
                        value_id = value_ids[value] = len(value_ids) + 1
                        interned.append(encode_value(value))
                if not value_id:
                    inline.append([len(slots), encode_value(value)])
            slots.append(key_id | value_id << 32)
        side: dict[str, Any] = {}
        if names:
            side["d"] = [first_id, names]
        if interned:
            side["u"] = [first_value_id, interned]
        if inline:
            side["v"] = inline
        if events:
            side["e"] = events
        side_bytes = _JSON.encode(side).encode("utf-8") if side else b""
        count = len(slots)
        body = struct.pack(
            f"<dQIII{count}Q{count}d", t, self.seq, self.epoch, count,
            len(side_bytes), *slots, *floats) + side_bytes
        return encode_frame(BATCH, body) if framed else body


class WireDecoder:
    """The reading twin of :class:`WireEncoder`: registers definitions
    as they arrive and resolves key and value ids.

    Both tables are plain lists — the encoder assigns ids densely, so
    resolution is an index, not a hash probe."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._values: list = [None]   # value id 0 is "the float"

    def reset(self) -> None:
        self._names.clear()
        del self._values[1:]

    def defined(self) -> int:
        """Key and value ids defined so far."""
        return len(self._names) + len(self._values) - 1

    def decode_batch(self, payload: bytes) -> tuple[float, list]:
        """``(t, entries)`` of one record."""
        record = self.decode_record(payload)
        return record.t, record.entries

    def decode_record(self, payload: bytes) -> Record:
        """Decode one record; a definition out of order or an id never
        defined raises :class:`WireError`."""
        try:
            t, seq, epoch, count, side_size = \
                RECORD_HEADER.unpack_from(payload)
            side_at = RECORD_HEADER.size + 16 * count
            if side_at + side_size != len(payload):
                raise WireError(
                    f"malformed batch record: {len(payload)} bytes for "
                    f"{count} writes and a {side_size}-byte side table")
            fields = struct.unpack_from(
                f"<{count}Q{count}d", payload, RECORD_HEADER.size)
            side = _load_json(payload[side_at:]) if side_size else {}
            names = self._names
            table = self._values
            if "d" in side:
                first_id, defined = side["d"]
                if first_id != len(names):
                    raise WireError(
                        f"key-table definition {first_id} out of order "
                        f"(expected {len(names)}); stream is "
                        "desynchronized")
                names.extend(defined)
            if "u" in side:
                first_id, defined = side["u"]
                if first_id != len(table):
                    raise WireError(
                        f"value-table definition {first_id} out of order "
                        f"(expected {len(table)}); stream is "
                        "desynchronized")
                table.extend(map(decode_value, defined))
            try:
                entries: list = [
                    (names[slot & _KEY_BITS],
                     table[slot >> 32] if slot >> 32 else value)
                    for slot, value in zip(fields[:count], fields[count:])
                ]
            except IndexError:
                raise WireError(
                    "batch references a key or value id this stream "
                    "never defined") from None
            for index, value in side.get("v", ()):
                entries[index] = (entries[index][0], decode_value(value))
            for position, event_type, subject, only in side.get("e", ()):
                entries.insert(position, Event(event_type, subject, only))
        except WireError:
            raise
        except (struct.error, AttributeError, TypeError, ValueError,
                KeyError, IndexError) as exc:
            raise WireError(f"malformed batch record: {exc}") from exc
        return Record(seq, t, epoch, entries)
