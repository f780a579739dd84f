"""Out-of-process shards: the worker process and its parent-side proxy.

The thread-backed cluster is bounded by the GIL — N
:class:`~repro.cluster.shard.EngineShard`\\ s drain on one interpreter,
so A6's "linear scaling" is time-sliced, not parallel.  This module
moves each shard into its own worker process behind the framed wire
protocol of :mod:`repro.cluster.wire`:

:class:`ShardClient` (parent side)
    Implements the shard surface over a blocking ``socketpair``, so the
    :class:`~repro.cluster.bus.IngestBus`,
    :class:`~repro.cluster.server.ClusterServer` and
    :class:`~repro.cluster.durability.DurabilityPlane` route to local
    and remote shards uniformly — ``backend="process"`` is the only
    difference an application sees.  The feeds of one drained batch
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
    hosting one ``EngineShard`` on a **private simulator**.  The clock
    handshake: HELLO carries the parent simulator's ``now`` (the
    tick-grid anchor), and every record and call carries the parent's
    ``now`` again; the worker
    :meth:`~repro.sim.events.Simulator.catch_up`\\ s before applying, so
    grid-snapped adaptive ticks and held-duration timers fire in the
    same order the shared-simulator drain produces.  Ties at exactly
    the drain time resolve as in WAL replay (timers first) — the same
    known limitation documented in :mod:`repro.cluster.durability`,
    avoided the same way (fractional ingest timestamps).

    The worker owns its shard's WAL and snapshot serialization: it
    appends each logged record — the BATCH payload it received — before
    applying it (:meth:`EngineShard.wal_append`), so durability I/O
    leaves the parent and parallelizes across cores with the drains.

Actions ride the reply: the worker holds the ACTION frames its engine
dispatches and writes them in one send with its next RESULT/ERROR.  The
parent reads the whole reply, dispatches its actions, then raises the
first error (a failing dispatch callback or the call's own), so a
raising callback never leaves a reply unread on the stream.

Failures stay typed: worker-side exceptions travel back pickled
(the taxonomy in :mod:`repro.errors` pins the round-trip) and a dead
worker surfaces as :class:`~repro.errors.WorkerCrashed` with the
process exit code.  Crash-point injection
(:class:`~repro.sim.faults.FaultInjector`) is **not** supported on the
process backend — a real ``kill -9`` does the same job with no
cross-process plumbing.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import traceback
from collections import deque
from typing import Any, Callable, Collection, Iterator

from repro.cluster import wire
from repro.cluster.shard import EngineShard
from repro.core.engine import RuleState
from repro.errors import RecoveryError, WireError, WorkerCrashed, WorkerError
from repro.sim.events import Simulator
from repro.support.wal import RECORD_PREFIX_SIZE

#: Seconds the parent waits for the worker's HELLO_ACK.
HANDSHAKE_TIMEOUT = 30.0
#: Seconds granted at each escalation step of ShardClient.shutdown
#: (drain, join) before moving on to terminate then kill.
SHUTDOWN_GRACE = 5.0

_RECV_CHUNK = 1 << 16


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
        config = dict(hello["config"])
        telemetry = None
        if config.pop("telemetry", False):
            from repro.obs.trace import Telemetry
            telemetry = Telemetry(
                shard=shard_id, clock=lambda: self.simulator.now)
        dispatch = self._forward_action if hello["has_dispatch"] else None
        self.shard = EngineShard(
            shard_id, self.simulator, dispatch=dispatch,
            telemetry=telemetry, **config,
        )

    def _forward_action(self, spec) -> None:
        self._held.append(
            wire.encode_frame(wire.ACTION, wire.encode_pickled(spec)))

    def _reply(self, frame: bytes) -> None:
        """Send the held actions and a reply in one write."""
        held = self._held
        held.append(frame)
        self.sock.sendall(b"".join(held))
        held.clear()

    def run(self, frames: Iterator[tuple[int, bytes]]) -> None:
        self.sock.sendall(wire.encode_frame(
            wire.HELLO_ACK,
            json.dumps([self.shard_id, os.getpid()]).encode("utf-8"),
        ))
        for frame_type, payload in frames:
            if frame_type == wire.BATCH:
                self._apply_record(payload)
            elif frame_type == wire.CALL:
                req_id, method, t, args = wire.decode_call(payload)
                self._handle_call(req_id, method, t, args, {},
                                  pickled=False)
            elif frame_type == wire.CALL_P:
                req_id, method, t, args, kwargs = \
                    wire.decode_pickled(payload)
                self._handle_call(req_id, method, t, args, kwargs,
                                  pickled=True)
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

    def _handle_call(
        self, req_id: int, method: str, t: float,
        args: list, kwargs: dict, *, pickled: bool,
    ) -> None:
        try:
            self.simulator.catch_up(t)
            handler = getattr(self, "_call_" + method, None)
            if handler is None or method.startswith("_"):
                raise WorkerError(f"unknown shard method {method!r}")
            result = handler(*args, **kwargs)
        except Exception as exc:
            self._reply(
                wire.encode_error(req_id, exc, traceback.format_exc()))
        else:
            self._reply(
                wire.encode_result_pickled(req_id, result) if pickled
                else wire.encode_result(req_id, result)
            )

    # -- JSON-called handlers --------------------------------------------------

    def _call_barrier(self):
        deltas = [self._flips, self._touched]
        self._flips = 0
        self._touched = 0
        return deltas

    def _call_coalesce_safe(self, variable):
        return self.shard.coalesce_safe(variable)

    def _call_adopt_mirrors(self, rule_name, variables):
        return self.shard.adopt_mirrors(rule_name, variables)

    def _call_release_mirrors(self, rule_name):
        return self.shard.release_mirrors(rule_name)

    def _call_mirrors_of_rule(self, rule_name):
        return sorted(self.shard.mirrors_of_rule(rule_name))

    def _call_mirror_variables(self):
        return sorted(self.shard.mirror_variables())

    def _call_rule_truth(self, name):
        return self.shard.rule_truth(name)

    def _call_rule_state(self, name):
        return self.shard.rule_state(name).value

    def _call_rule_count(self):
        return self.shard.rule_count()

    def _call_telemetry_snapshot(self, queue_depth):
        return self.shard.telemetry_snapshot(queue_depth=queue_depth)

    def _call_set_recovery_hooks(self, disarmed):
        self.shard.set_recovery_hooks(disarmed)

    def _call_wal_open(self, path, fsync_interval):
        self.shard.wal_open(path, fsync_interval=fsync_interval)
        # The parent restarted its key table with this generation.
        self.decoder.reset()
        self._logging = True

    def _call_wal_sync(self):
        self.shard.wal_sync()

    def _call_wal_close(self):
        self.shard.wal_close()
        self._logging = False

    def _call_snapshot_to(self, path):
        return self.shard.snapshot_to(path)

    # -- pickle-called handlers ------------------------------------------------

    def _call_register_rule(self, rule, validate=True):
        reports = self.shard.register_rule(rule, validate=validate)
        return reports, self.shard.epoch

    def _call_remove_rule(self, name):
        rule = self.shard.remove_rule(name)
        return rule, self.shard.epoch

    def _call_add_priority_order(self, order):
        return self.shard.add_priority_order(order)

    def _call_conflict_log(self):
        return list(self.shard.conflict_log)

    def _call_holder_of(self, udn):
        return self.shard.holder_of(udn)

    def _call_variable_value(self, variable):
        return self.shard.variable_value(variable)

    def _call_trace(self):
        return self.shard.trace()

    def _call_snapshot_state(self):
        return self.shard.snapshot_state()

    def _call_restore_world(self, state):
        self.shard.restore_world(state)

    def _call_recover(self, state):
        self.shard.recover(state)
        return self.shard.epoch


# -- parent side ---------------------------------------------------------------


class ShardClient:
    """The shard surface, proxied to one worker process.

    Construction spawns the worker (``fork`` where available, else
    ``spawn``), ships the engine configuration in a pickled HELLO and
    blocks for the HELLO_ACK.  The proxy is synchronous and single-
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
        handshake_timeout: float = HANDSHAKE_TIMEOUT,
    ) -> None:
        self.shard_id = shard_id
        self.simulator = simulator
        self.dispatch = dispatch
        self.epoch = 0
        self.worker_pid: int | None = None
        #: Bytes of logged records sent since the last
        #: :meth:`take_logged_bytes` (the worker appends them to its WAL).
        self._logged_bytes = 0
        self._encoder = wire.WireEncoder()
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
            self._sock.settimeout(handshake_timeout)
            self._sock.sendall(wire.encode_frame(wire.HELLO, hello))
            frame_type, payload = self._recv_frame()
            if frame_type != wire.HELLO_ACK:
                raise WireError(
                    f"expected HELLO_ACK, got "
                    f"{wire.FRAME_NAMES[frame_type]}"
                )
            acked_id, self.worker_pid = json.loads(payload)
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

    def _dispatch_all(self, actions: list[bytes]) -> Exception | None:
        """Dispatch forwarded actions in order; returns the first
        exception a dispatch raised (the rest still run)."""
        error = None
        if self.dispatch is not None:
            for payload in actions:
                try:
                    self.dispatch(wire.decode_pickled(payload))
                except Exception as exc:
                    error = error or exc
        return error

    def _await(self, req_id: int) -> Any:
        """Read the whole reply to ``req_id`` — the actions in front of
        it, then the reply frame — dispatch the actions, then raise the
        first error: a dispatch's, else the call's own."""
        actions: list[bytes] = []
        frame_type, payload = self._recv_frame()
        while frame_type == wire.ACTION:
            actions.append(payload)
            frame_type, payload = self._recv_frame()
        error = self._dispatch_all(actions)
        if frame_type == wire.RESULT:
            got, value = wire.decode_result(payload)
        elif frame_type == wire.RESULT_P:
            got, value = wire.decode_pickled(payload)
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

    def _new_request(self) -> int:
        req_id = self._next_req
        self._next_req += 1
        return req_id

    def _send_call(self, frame: bytes) -> None:
        """Send the queued records and one call frame in a single
        packet."""
        self._settle_barrier()
        self._seal()
        self._outbox.append(frame)
        self._send_outbox()

    def _call(self, method: str, *args) -> Any:
        req_id = self._new_request()
        self._send_call(
            wire.encode_call(req_id, method, self.simulator.now, args))
        return self._await(req_id)

    def _call_p(self, method: str, *args, **kwargs) -> Any:
        req_id = self._new_request()
        self._send_call(wire.encode_call_pickled(
            req_id, method, self.simulator.now, args, kwargs))
        return self._await(req_id)

    # -- rule lifecycle --------------------------------------------------------

    def register_rule(self, rule, *, validate: bool = True):
        reports, self.epoch = self._call_p(
            "register_rule", rule, validate=validate)
        return reports

    def remove_rule(self, name: str):
        rule, self.epoch = self._call_p("remove_rule", name)
        return rule

    def add_priority_order(self, order):
        return self._call_p("add_priority_order", order)

    @property
    def conflict_log(self):
        return self._call_p("conflict_log")

    def rule_count(self) -> int:
        return self._call("rule_count")

    # -- engine reads ----------------------------------------------------------

    def rule_truth(self, name: str) -> bool:
        return self._call("rule_truth", name)

    def rule_state(self, name: str) -> RuleState:
        return RuleState(self._call("rule_state", name))

    def holder_of(self, udn: str):
        return self._call_p("holder_of", udn)

    def trace(self) -> list:
        return self._call_p("trace")

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
        req_id = self._new_request()
        self._send_call(
            wire.encode_call(req_id, "barrier", self.simulator.now, ()))
        self._posted = req_id

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
        (flips, touched), self._settled = self._settled, None
        return (flips, touched)

    def take_logged_bytes(self) -> int:
        """WAL bytes the worker logs for the records sent since the last
        call (the plane's ``recovery.wal_bytes`` counter folds them in at
        :meth:`~repro.cluster.server.ClusterServer.flush`)."""
        logged, self._logged_bytes = self._logged_bytes, 0
        return logged

    def coalesce_safe(self, variable: str) -> bool:
        return self._call("coalesce_safe", variable)

    # -- mirror hosting --------------------------------------------------------

    def adopt_mirrors(self, rule_name: str,
                      variables: Collection[str]) -> list[str]:
        return self._call("adopt_mirrors", rule_name, sorted(variables))

    def release_mirrors(self, rule_name: str) -> list[str]:
        return self._call("release_mirrors", rule_name)

    def mirrors_of_rule(self, rule_name: str) -> frozenset[str]:
        return frozenset(self._call("mirrors_of_rule", rule_name))

    def mirror_variables(self) -> frozenset[str]:
        return frozenset(self._call("mirror_variables"))

    def variable_value(self, variable: str) -> Any:
        return self._call_p("variable_value", variable)

    # -- telemetry -------------------------------------------------------------

    def telemetry_snapshot(self, *, queue_depth: int | None = None):
        return self._call("telemetry_snapshot", queue_depth)

    # -- durability ------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return self._call_p("snapshot_state")

    def restore_world(self, state: dict) -> None:
        self._call_p("restore_world", state)

    def set_recovery_hooks(self, disarmed: bool) -> None:
        self._call("set_recovery_hooks", disarmed)

    def recover(self, state: dict) -> None:
        self.epoch = self._call_p("recover", state)

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
        self._call("wal_open", path, fsync_interval)

    def wal_log(self, seq: int, epoch: int, entries) -> int:
        """Stamp the batch being drained as logged: the worker appends
        its record before applying it.  The entries arrive through the
        feeds; the bytes are counted when the record is encoded."""
        self._seal()
        self._encoder.seq = seq
        self._encoder.epoch = epoch
        return 0

    def wal_sync(self) -> None:
        self._call("wal_sync")

    def wal_close(self) -> None:
        if not self._closed:
            self._call("wal_close")

    def wal_arm_faults(self, faults) -> None:
        if faults is not None:
            raise RecoveryError(
                "crash-point injection is not supported on the process "
                "backend"
            )

    def snapshot_to(self, path: str) -> dict:
        return self._call("snapshot_to", path)

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
            actions: list[bytes] = []
            try:
                self._seal()
                self._outbox.append(wire.encode_frame(wire.BYE))
                self._send_outbox()
                self._closed = True
                self._sock.settimeout(SHUTDOWN_GRACE)
                while True:
                    frame_type, payload = self._recv_frame()
                    if frame_type == wire.ACTION:
                        actions.append(payload)
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


__all__ = ["HANDSHAKE_TIMEOUT", "SHUTDOWN_GRACE", "ShardClient",
           "WorkerHost"]
