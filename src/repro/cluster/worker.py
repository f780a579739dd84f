"""Out-of-process shards: the worker process and its parent-side proxy.

The thread-backed cluster is bounded by the GIL — N
:class:`~repro.cluster.shard.EngineShard`\\ s drain on one interpreter,
so A6's "linear scaling" is time-sliced, not parallel.  This module
moves each shard into its own worker process behind the framed wire
protocol of :mod:`repro.cluster.wire`.  Both sides derive their calls
from one declaration, :data:`~repro.cluster.shard.REMOTE_CALLS`:

:class:`ShardClient` (parent side)
    Implements the shard surface over a blocking ``socketpair``, so the
    :class:`~repro.cluster.bus.IngestBus`,
    :class:`~repro.cluster.server.ClusterServer` and
    :class:`~repro.cluster.durability.DurabilityPlane` route to local
    and remote shards uniformly — ``backend="process"`` is the only
    difference an application sees.  Each declared name is a generated
    forwarder: one CALL, one RESULT (or ERROR) that also carries the
    worker shard's epoch.  The feeds of one drained batch
    (writes and events) collect in the client and become **one** BATCH
    record when the bus ends the batch (:meth:`ShardClient.end_batch`).
    Records are one-way and ride in front of the next call: the stream
    is FIFO, so any later call (query, registration, snapshot) observes
    their effects.  :meth:`~repro.cluster.server.ClusterServer.flush`
    holds each worker's drained record, posts the counter barrier
    behind it and sends every worker its one packet before awaiting any
    reply.  Batch counter deltas accumulate worker-side and fold back
    through :meth:`ShardClient.barrier`.

:class:`WorkerHost` (worker side)
    A blocking loop over a :class:`~repro.cluster.wire.FrameReader`,
    hosting one ``EngineShard`` on a **private simulator**.  A CALL
    naming a declared method runs on the shard; ``barrier``,
    ``wal_open`` and ``wal_close`` touch worker state, so the host
    serves them itself; any other name is refused with
    :class:`~repro.errors.WorkerError`.  The clock
    handshake: HELLO carries the parent simulator's ``now`` (the
    tick-grid anchor), and every record and call carries the parent's
    ``now`` again; the worker
    :meth:`~repro.sim.events.Simulator.catch_up`\\ s before applying, so
    grid-snapped adaptive ticks and held-duration timers fire in the
    same order the shared-simulator drain produces.  Ties at exactly
    the drain time resolve as in WAL replay (timers first) — the same
    known limitation documented in :mod:`repro.cluster.durability`,
    which the suites do not avoid and ROADMAP item 5a is to close.

    The worker owns its shard's WAL and snapshot serialization: it
    appends each logged record — the BATCH payload it received — before
    applying it (:meth:`EngineShard.wal_append`), so durability I/O
    leaves the parent and parallelizes across cores with the drains.

Actions ride the reply: the worker holds the ACTION frames its engine
dispatches and writes them in one send with its next RESULT or ERROR.
An ACTION frame names its ``ActionSpec`` by id in the connection's
action table (:class:`~repro.cluster.wire.ActionEncoder`): only a
spec's first dispatch pickles it, so a steady stream of actions is
pickled, hashed and compared nowhere.  The parent resolves each id as
it reads the frame (the shutdown drain included), reads the whole
reply, dispatches its actions, then raises the first error (a failing
dispatch callback or the call's own), so a raising callback never
leaves a reply unread on the stream.

Failures stay typed: worker-side exceptions travel back pickled
(the taxonomy in :mod:`repro.errors` pins the round-trip) and a dead
worker surfaces as :class:`~repro.errors.WorkerCrashed` with the
process exit code.  Crash-point injection
(:class:`~repro.sim.faults.FaultInjector`) is **not** supported on the
process backend — a real ``kill -9`` does the same job with no
cross-process plumbing.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import socket
import traceback
from collections import deque
from typing import Any, Callable, Collection, Iterator

from repro.cluster import wire
from repro.cluster.shard import REMOTE_CALLS, EngineShard
from repro.errors import RecoveryError, WireError, WorkerCrashed, WorkerError
from repro.sim.events import Simulator
from repro.support.wal import RECORD_PREFIX_SIZE

#: Seconds the parent waits for the worker's HELLO_ACK.
HANDSHAKE_TIMEOUT = 30.0
#: Seconds granted at each escalation step of ShardClient.shutdown
#: (drain, join) before moving on to terminate then kill.
SHUTDOWN_GRACE = 5.0

_RECV_CHUNK = 1 << 16

#: The calls :class:`WorkerHost` serves itself, because they touch
#: worker state: the batch counters, the record decoder, the logging
#: flag.
_HOST_CALLS = frozenset({"barrier", "wal_open", "wal_close"})


# -- worker side ---------------------------------------------------------------


def _worker_main(child_sock, parent_sock, shard_id: int) -> None:
    """Process entry point (module-level so the spawn start method can
    pickle it).  ``parent_sock`` is the parent's end, inherited across
    fork — closed immediately so the parent closing its copy reads as
    EOF here instead of wedging the worker forever."""
    try:
        parent_sock.close()
    except OSError:
        pass
    try:
        frames = _read_frames(child_sock)
        frame_type, payload = next(frames, (None, b""))
        if frame_type != wire.HELLO:
            raise WireError(
                f"expected HELLO as the first frame, got "
                f"{wire.FRAME_NAMES.get(frame_type)}"
            )
        WorkerHost(shard_id, child_sock,
                   wire.decode_pickled(payload)).run(frames)
    except (WireError, ConnectionError, EOFError):
        # A torn handshake or mid-frame disconnect means the parent is
        # gone or broken; there is nobody left to report to.
        pass
    finally:
        try:
            child_sock.close()
        except OSError:
            pass


def _read_frames(sock) -> Iterator[tuple[int, bytes]]:
    """Every frame the parent sends, until it closes the stream."""
    reader = wire.FrameReader()
    while True:
        data = sock.recv(_RECV_CHUNK)
        if not data:
            reader.at_eof()
            return
        reader.feed(data)
        yield from reader.frames()


class WorkerHost:
    """One shard's engine + clock + WAL, served over the wire."""

    def __init__(self, shard_id: int, sock, hello: dict) -> None:
        self.shard_id = shard_id
        self.sock = sock
        self.simulator = Simulator()
        # The parent's now at spawn becomes this shard's tick-grid
        # anchor — the same anchor an in-thread shard built at cluster
        # construction records.
        self.simulator.catch_up(hello["t0"])
        self.decoder = wire.WireDecoder()
        self._flips = 0
        self._touched = 0
        self._logging = False    # a WAL generation is open
        # ACTION frames held for the next reply.
        self._held: list[bytes] = []
        self._actions = wire.ActionEncoder()
        dispatch = self._forward_action if hello["has_dispatch"] else None
        self.shard = EngineShard(
            shard_id, self.simulator, dispatch=dispatch, **hello["config"])

    def _forward_action(self, spec) -> None:
        self._held.append(self._actions.encode(spec))

    def _reply(self, frame: bytes) -> None:
        """Send the held actions and a reply in one write."""
        held = self._held
        held.append(frame)
        self.sock.sendall(b"".join(held))
        held.clear()

    def run(self, frames: Iterator[tuple[int, bytes]]) -> None:
        self.sock.sendall(wire.encode_frame(
            wire.HELLO_ACK, wire.encode_pickled((self.shard_id, os.getpid()))))
        for frame_type, payload in frames:
            if frame_type == wire.BATCH:
                self._apply_record(payload)
            elif frame_type == wire.CALL:
                self._handle_call(*wire.decode_pickled(payload))
            elif frame_type == wire.BYE:
                self.shard.shutdown()  # closes the WAL too
                if self._held:
                    self.sock.sendall(b"".join(self._held))
                return
            else:
                raise WireError(
                    f"worker cannot handle "
                    f"{wire.FRAME_NAMES[frame_type]} frames"
                )

    def _apply_record(self, payload: bytes) -> None:
        known = self.decoder.defined()
        record = self.decoder.decode_record(payload)
        # Append-before-apply.  An unlogged record (a mirror seed) that
        # defines ids is logged too, so the WAL's tables stay complete;
        # replay skips its entries.
        if self._logging and (record.seq or self.decoder.defined() > known):
            self.shard.wal_append(payload)
        self.simulator.catch_up(record.t)
        shard = self.shard
        run: list = []
        for entry in record.entries:
            if isinstance(entry, wire.Event):
                self._ingest_run(run)
                run = []
                shard.post_event(entry.event_type, entry.subject,
                                 only=entry.only)
            else:
                run.append(entry)
        self._ingest_run(run)

    def _ingest_run(self, run: list) -> None:
        # Mirrors the bus's _flush_run split: singletons take the plain
        # ingest path and stay out of the batch counters.
        if len(run) == 1:
            self.shard.ingest(*run[0])
        elif run:
            flips, touched = self.shard.ingest_batch(run)
            self._flips += flips
            self._touched += touched

    def _handle_call(self, req_id: int, method: str, t: float,
                     args: tuple, kwargs: dict) -> None:
        """Run one call — a declared shard method, or one of the host's
        own — and reply with its result and the shard's epoch."""
        try:
            self.simulator.catch_up(t)
            if method in _HOST_CALLS:  # the barrier, on every flush
                target = getattr(self, method)
            elif method in REMOTE_CALLS:
                target = getattr(self.shard, method)
            else:
                raise WorkerError(f"unknown shard method {method!r}")
            reply = wire.encode_result(
                req_id, target(*args, **kwargs), self.shard.epoch)
        except Exception as exc:
            reply = wire.encode_error(req_id, exc, traceback.format_exc())
        self._reply(reply)

    # -- calls on worker state -------------------------------------------------

    def barrier(self) -> tuple[int, int]:
        deltas = (self._flips, self._touched)
        self._flips = 0
        self._touched = 0
        return deltas

    def wal_open(self, path: str, *, fsync_interval: int) -> None:
        self.shard.wal_open(path, fsync_interval=fsync_interval)
        # The parent restarted its key table with this generation.
        self.decoder.reset()
        self._logging = True

    def wal_close(self) -> None:
        self.shard.wal_close()
        self._logging = False


# -- parent side ---------------------------------------------------------------


class ShardClient:
    """The shard surface, proxied to one worker process.

    Construction spawns the worker (``fork`` where available, else
    ``spawn``), ships the shard configuration in a pickled HELLO and
    blocks for the HELLO_ACK.  Each name in
    :data:`~repro.cluster.shard.REMOTE_CALLS` is a forwarder generated
    below the class, carrying the
    :class:`~repro.cluster.shard.EngineShard` signature and docstring;
    the methods spelled out here are the feeds, the barrier, the WAL
    hooks and the lifecycle.  The proxy is synchronous and single-
    threaded like the in-thread shard it replaces; it is not safe for
    concurrent use from multiple threads.
    """

    backend = "process"
    #: The bus's telemetry duck-check reads this: span recording happens
    #: worker-side, surfaced through telemetry_snapshot().
    telemetry = None

    def __init__(
        self,
        shard_id: int,
        simulator: Simulator,
        *,
        config: dict,
        dispatch: Callable | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.simulator = simulator
        self.dispatch = dispatch
        #: The worker shard's rule-churn epoch, as of the last reply.
        self.epoch = 0
        self.worker_pid: int | None = None
        #: Bytes of logged records sent since the last
        #: :meth:`take_logged_bytes` (the worker appends them to its WAL).
        self._logged_bytes = 0
        self._encoder = wire.WireEncoder()
        self._actions = wire.ActionDecoder()
        self._frames = wire.FrameReader()
        self._pending: deque[tuple[int, bytes]] = deque()
        # The batch being fed (entries and their simulator time), and
        # the frames queued for the next send.
        self._feed: list = []
        self._feed_t = 0.0
        self._outbox: list[bytes] = []
        self._posted: int | None = None    # barrier sent, not yet awaited
        self._settled: list | None = None  # its reply, read early
        self._next_req = 0
        self._closed = False
        try:
            hello = wire.encode_pickled({
                "t0": simulator.now,
                "config": dict(config),
                "has_dispatch": dispatch is not None,
            })
        except Exception as exc:
            raise WorkerError(
                f"cluster config for shard {shard_id} is not picklable "
                f"(the process backend ships it to the worker): {exc}"
            ) from exc
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        parent_sock, child_sock = socket.socketpair()
        self._sock = parent_sock
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_sock, parent_sock, shard_id),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        try:
            self.process.start()
            child_sock.close()
            self._sock.settimeout(HANDSHAKE_TIMEOUT)
            self._sock.sendall(wire.encode_frame(wire.HELLO, hello))
            frame_type, payload = self._recv_frame()
            if frame_type != wire.HELLO_ACK:
                raise WireError(
                    f"expected HELLO_ACK, got "
                    f"{wire.FRAME_NAMES[frame_type]}"
                )
            acked_id, self.worker_pid = wire.decode_pickled(payload)
            if acked_id != shard_id:
                raise WireError(
                    f"worker acknowledged shard {acked_id}, "
                    f"expected {shard_id}"
                )
            self._sock.settimeout(None)
        except BaseException:
            self._closed = True
            self._sock.close()
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(1.0)
            child_sock.close()
            raise

    # -- transport -------------------------------------------------------------

    def _crashed(self, detail: str) -> WorkerCrashed:
        self._closed = True
        self.process.join(0.5)
        return WorkerCrashed(self.shard_id, self.process.exitcode, detail)

    def _seal(self) -> None:
        """Encode the batch being fed as one record into the outbox."""
        feed = self._feed
        if not feed:
            return
        frame = self._encoder.encode_batch(self._feed_t, feed)
        if self._encoder.seq:
            self._logged_bytes += len(frame) - wire.HEADER_SIZE \
                + RECORD_PREFIX_SIZE
            self._encoder.seq = 0
        self._outbox.append(frame)
        self._feed = []

    def _send_outbox(self) -> None:
        if self._closed:
            raise WorkerError(
                f"shard {self.shard_id} client used after shutdown")
        data = b"".join(self._outbox)
        self._outbox.clear()
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise self._crashed(f"send failed: {exc}") from exc

    def _recv_frame(self) -> tuple[int, bytes]:
        while True:
            if self._pending:
                return self._pending.popleft()
            self._pending.extend(self._frames.frames())
            if self._pending:
                continue
            try:
                data = self._sock.recv(_RECV_CHUNK)
            except socket.timeout as exc:
                raise WorkerError(
                    f"shard {self.shard_id} worker did not reply within "
                    f"the deadline"
                ) from exc
            except OSError as exc:
                raise self._crashed(f"receive failed: {exc}") from exc
            if not data:
                raise self._crashed("connection closed")
            self._frames.feed(data)

    def _dispatch_all(self, actions: list) -> Exception | None:
        """Dispatch forwarded actions in order; returns the first
        exception a dispatch raised (the rest still run)."""
        error = None
        if self.dispatch is not None:
            for spec in actions:
                try:
                    self.dispatch(spec)
                except Exception as exc:
                    error = error or exc
        return error

    def _await(self, req_id: int) -> Any:
        """Read the whole reply to ``req_id`` — the actions in front of
        it, then the reply frame — dispatch the actions, then raise the
        first error: a dispatch's, else the call's own.  Action ids
        resolve as their frames are read, so a dispatch callback that
        calls this shard again reads later definitions after these."""
        actions: list = []
        frame_type, payload = self._recv_frame()
        while frame_type == wire.ACTION:
            actions.append(self._actions.decode(payload))
            frame_type, payload = self._recv_frame()
        error = self._dispatch_all(actions)
        if frame_type == wire.RESULT:
            got, value, self.epoch = wire.decode_pickled(payload)
        elif frame_type == wire.ERROR:
            got, value, tb_text = wire.decode_pickled(payload)
            try:
                value.worker_traceback = tb_text
            except Exception:
                pass
        else:
            raise WireError(
                f"unexpected {wire.FRAME_NAMES[frame_type]} frame "
                "from worker"
            )
        if got != req_id:
            raise WireError(f"reply for request {got}, expected {req_id}")
        if error is not None:
            raise error
        if frame_type == wire.ERROR:
            raise value
        return value

    def _send_call(self, method: str, args: tuple = (),
                   kwargs: dict | None = None) -> int:
        """Send the queued records and one call in a single packet;
        returns the call's request id."""
        self._settle_barrier()
        self._seal()
        req_id = self._next_req
        self._next_req += 1
        self._outbox.append(wire.encode_call(
            req_id, method, self.simulator.now, args, kwargs or {}))
        self._send_outbox()
        return req_id

    def _call(self, method: str, args: tuple = (),
              kwargs: dict | None = None) -> Any:
        return self._await(self._send_call(method, args, kwargs))

    # -- world-state feeds (one-way, sent with the next call) ------------------

    def _feed_now(self) -> list:
        """The batch being fed, at the simulator's current time (a
        record carries one time, so a feed from a later time seals the
        earlier batch first)."""
        now = self.simulator.now
        if self._feed and now != self._feed_t:
            self._seal()
        self._feed_t = now
        return self._feed

    def ingest(self, variable: str, value: Any) -> None:
        self._feed_now().append((variable, value))

    def ingest_batch(self, writes) -> tuple[int, int]:
        self._feed_now().extend(writes)
        return (0, 0)  # worker-side counters fold back through barrier()

    def post_event(
        self, event_type: str, subject: str | None = None,
        *, only: Collection[str] | None = None,
    ) -> None:
        # Membership is materialized now — the same moment the drain
        # applies (and the WAL logs) it on the thread backend.
        self._feed_now().append(wire.Event(
            event_type, subject, sorted(only) if only is not None else None))

    def end_batch(self, *, send: bool = True) -> None:
        """Encode the drained batch as one record and, unless ``send``
        is off, send it now: a drain outside
        :meth:`~repro.cluster.server.ClusterServer.flush` must reach the
        worker's WAL when it finishes, not at the next call."""
        self._seal()
        self._encoder.seq = 0
        if send and self._outbox:
            self._send_outbox()

    def post_barrier(self) -> None:
        """Send the queued records and the counter barrier in one packet;
        :meth:`barrier` awaits the reply."""
        self._posted = self._send_call("barrier")

    def _settle_barrier(self) -> None:
        """Read a posted barrier's reply before another call goes out: a
        dispatch callback may call into this shard while
        :meth:`~repro.cluster.server.ClusterServer.flush` awaits another
        worker, and its call must not read the barrier's reply."""
        if self._posted is not None:
            req_id, self._posted = self._posted, None
            self._settled = self._await(req_id)

    def barrier(self) -> tuple[int, int]:
        if self._posted is None and self._settled is None:
            self.post_barrier()
        self._settle_barrier()
        deltas, self._settled = self._settled, None
        return deltas

    def take_logged_bytes(self) -> int:
        """WAL bytes the worker logs for the records sent since the last
        call (the plane's ``recovery.wal_bytes`` counter folds them in at
        :meth:`~repro.cluster.server.ClusterServer.flush`)."""
        logged, self._logged_bytes = self._logged_bytes, 0
        return logged

    # -- durability ------------------------------------------------------------

    def wal_open(self, path: str, *, fsync_interval: int = 16,
                 faults=None) -> None:
        if faults is not None:
            raise RecoveryError(
                "crash-point injection is not supported on the process "
                "backend; use kill() on the worker instead"
            )
        # Records queued so far use the old key table; the worker resets
        # its table when it opens the new generation.
        self._seal()
        self._encoder.reset()
        self._call("wal_open", (path,), {"fsync_interval": fsync_interval})

    def wal_log(self, seq: int, epoch: int, entries) -> int:
        """Stamp the batch being drained as logged: the worker appends
        its record before applying it.  The entries arrive through the
        feeds; the bytes are counted when the record is encoded."""
        self._seal()
        self._encoder.seq = seq
        self._encoder.epoch = epoch
        return 0

    def wal_close(self) -> None:
        if not self._closed:
            self._call("wal_close")

    def wal_arm_faults(self, faults) -> None:
        if faults is not None:
            raise RecoveryError(
                "crash-point injection is not supported on the process "
                "backend"
            )

    # -- lifecycle -------------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL the worker mid-conversation (crash testing)."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(SHUTDOWN_GRACE)

    def shutdown(self) -> None:
        """Stop the worker and reap the process.  Idempotent.

        Escalation: queued records + BYE, dispatch trailing action
        frames until EOF, join with a deadline, then terminate, then
        kill — a wedged or dead worker never leaks a child process.  A
        trailing dispatch that raised is re-raised once the worker is
        reaped."""
        already_closed = self._closed
        error = None
        if not already_closed:
            actions: list = []
            try:
                self._seal()
                self._outbox.append(wire.encode_frame(wire.BYE))
                self._send_outbox()
                self._closed = True
                self._sock.settimeout(SHUTDOWN_GRACE)
                while True:
                    frame_type, payload = self._recv_frame()
                    if frame_type == wire.ACTION:
                        actions.append(self._actions.decode(payload))
            except (WorkerError, WireError, OSError):
                pass  # closed, crashed, wedged or gone; escalate below
            error = self._dispatch_all(actions)
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
        self.process.join(SHUTDOWN_GRACE)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(1.0)
        if error is not None:
            raise error


def _forwarder(name: str) -> Callable:
    """A ShardClient method that runs ``name`` on the worker's shard as
    one synchronous call."""
    @functools.wraps(getattr(EngineShard, name))
    def forward(self, *args, **kwargs):
        return self._call(name, args, kwargs)
    return forward


for _name in REMOTE_CALLS:
    setattr(ShardClient, _name, _forwarder(_name))
del _name


__all__ = ["HANDSHAKE_TIMEOUT", "SHUTDOWN_GRACE", "ShardClient",
           "WorkerHost"]
