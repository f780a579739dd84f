"""Process-backend lifecycle: ShardClient surface, typed worker
failures, and child-process hygiene.

The equivalence of engine *semantics* across backends is covered by
``test_process_equivalence.py``; this module exercises the machinery
around it — handshake, the declared call surface both sides derive
from, action forwarding by action-table id (the shutdown drain
included), typed crash errors, idempotent shutdown, and
the no-leaked-children guarantee after both clean shutdown and a
SIGKILL'd worker.

Everything here carries ``hard_timeout``: a wedged IPC loop should
fail the test, not hang the suite.
"""

import ast
import inspect
import multiprocessing
import struct

import pytest

from repro.cluster import wire, worker
from repro.cluster.server import ClusterServer
from repro.cluster.shard import REMOTE_CALLS, EngineShard
from repro.cluster.worker import ShardClient
from repro.errors import (
    DuplicateRuleError,
    RecoveryError,
    UnknownRuleError,
    WorkerCrashed,
    WorkerError,
)
from repro.sim.events import Simulator
from tests.cluster.recovery_stack import (
    HOME,
    HOMES,
    build_rules,
    humid,
    temp,
    tv_orders,
)

pytestmark = pytest.mark.hard_timeout(120)

CONFIG = {"telemetry": False}


def no_stray_children():
    """True when no repro shard worker survives (ignores any pool
    helpers another plugin might own)."""
    return not [
        child for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    ]


@pytest.fixture
def client():
    simulator = Simulator()
    shard = ShardClient(0, simulator, config=dict(CONFIG))
    yield shard
    shard.shutdown()
    assert no_stray_children()


# -- direct proxy surface ---------------------------------------------------------


def test_handshake_reports_worker_pid(client):
    assert client.worker_pid == client.process.pid
    assert client.process.is_alive()
    assert client.backend == "process"


def test_rule_lifecycle_over_the_wire(client):
    simulator = client.simulator
    rules = build_rules(HOME)
    for rule in rules:
        client.register_rule(rule)
    assert client.epoch == len(rules)
    assert client.rule_count() == len(rules)

    client.ingest(temp(HOME), 30.0)
    simulator.run_until(1.0)
    # One-way BATCH frames pipeline ahead of the CALL: FIFO ordering
    # means the truth read observes the ingest without any ack.
    assert client.rule_truth(f"{HOME}-cool") is True
    assert client.rule_state(f"{HOME}-cool").value == "active"
    holder = client.holder_of(f"{HOME}/aircon")
    assert holder is not None and holder[0] == f"{HOME}-cool"

    removed, epoch = client.remove_rule(f"{HOME}-cool"), client.epoch
    assert removed.name == f"{HOME}-cool"
    assert epoch == len(rules) + 1
    assert client.rule_count() == len(rules) - 1


def test_ingest_batch_deltas_fold_through_barrier(client):
    rules = build_rules(HOME)
    for rule in rules:
        client.register_rule(rule)
    # ingest_batch is one-way and returns a placeholder; the real
    # (flips, touched) counters accumulate worker-side until barrier().
    assert client.ingest_batch([(temp(HOME), 30.0),
                                (f"{HOME}/hygro:svc:humidity", 50.0)]) == (0, 0)
    flips, touched = client.barrier()
    assert touched > 0
    assert flips >= 1  # temp > 26 flips home-cool
    # barrier() resets the accumulators.
    assert client.barrier() == (0, 0)


def test_priority_and_mirrors_round_trip(client):
    for rule in build_rules(HOME):
        client.register_rule(rule)
    for order in tv_orders((HOME,)):
        client.add_priority_order(order)
    client.adopt_mirrors("remote-rule", ["a:x", "a:y"])
    assert client.mirrors_of_rule("remote-rule") == frozenset({"a:x", "a:y"})
    assert client.mirror_variables() == frozenset({"a:x", "a:y"})
    assert client.release_mirrors("remote-rule") == ["a:x", "a:y"]
    assert client.mirror_variables() == frozenset()


def test_variable_value_and_coalesce_safe(client):
    client.ingest(temp(HOME), 21.5)
    assert client.variable_value(temp(HOME)) == 21.5
    assert client.coalesce_safe(temp(HOME)) is True


def test_worker_exception_surfaces_typed_with_traceback(client):
    with pytest.raises(UnknownRuleError) as excinfo:
        client.remove_rule("never-registered")
    # The worker ships its traceback text alongside the pickled
    # exception so parent-side failures are debuggable.
    assert "remove_rule" in getattr(excinfo.value, "worker_traceback", "")


def test_action_dispatch_forwards_to_parent():
    simulator = Simulator()
    fired = []
    shard = ShardClient(0, simulator, config=dict(CONFIG),
                        dispatch=fired.append)
    try:
        for rule in build_rules(HOME):
            shard.register_rule(rule)
        shard.ingest(temp(HOME), 30.0)
        simulator.run_until(1.0)
        # ACTION frames are drained while awaiting the next reply.
        shard.barrier()
        assert any(spec.action_name == "Set" and "aircon" in spec.device_udn
                   for spec in fired)
    finally:
        shard.shutdown()
    assert no_stray_children()


class _RecordingSocket:
    """A client socket that keeps every byte it receives."""

    def __init__(self, sock):
        self._sock = sock
        self.received = bytearray()

    def recv(self, size):
        data = self._sock.recv(size)
        self.received.extend(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _action_payloads(data):
    reader = wire.FrameReader()
    reader.feed(bytes(data))
    return [payload for frame_type, payload in reader.frames()
            if frame_type == wire.ACTION]


def test_action_frames_define_a_spec_once_then_send_its_id():
    """The cool rule fires and stops twice: the first Set and the first
    Off carry their pickled specs, the repeats carry only their ids, and
    the parent dispatches the very objects it decoded first."""
    simulator = Simulator()
    fired = []
    shard = ShardClient(0, simulator, config=dict(CONFIG),
                        dispatch=fired.append)
    try:
        for rule in build_rules(HOME):
            shard.register_rule(rule)
        recording = shard._sock = _RecordingSocket(shard._sock)
        for step, value in enumerate((30.0, 22.0, 30.0, 22.0)):
            simulator.run_until(step + 0.5)
            shard.ingest(temp(HOME), value)
            shard.barrier()
    finally:
        shard.shutdown()
    assert no_stray_children()
    payloads = _action_payloads(recording.received)
    assert [spec.action_name for spec in fired] == ["Set", "Off"] * 2
    assert len(payloads) == len(fired)
    ids = [struct.unpack_from("<I", payload)[0] for payload in payloads]
    assert ids[2:] == ids[:2] and ids[0] != ids[1]
    assert [len(payload) > 4 for payload in payloads] == \
        [True, True, False, False]
    assert fired[2] is fired[0] and fired[3] is fired[1]


def test_actions_trailing_a_shutdown_resolve_their_ids():
    """A record sent with BYE fires an action the worker defined in an
    earlier reply; the shutdown drain resolves its id and dispatches
    it."""
    simulator = Simulator()
    fired = []
    shard = ShardClient(0, simulator, config=dict(CONFIG),
                        dispatch=fired.append)
    try:
        for rule in build_rules(HOME):
            shard.register_rule(rule)
        for step, value in enumerate((30.0, 22.0)):
            simulator.run_until(step + 0.5)
            shard.ingest(temp(HOME), value)
            shard.barrier()
        recording = shard._sock = _RecordingSocket(shard._sock)
        simulator.run_until(2.5)
        shard.ingest(temp(HOME), 30.0)
    finally:
        shard.shutdown()
    assert no_stray_children()
    assert [spec.action_name for spec in fired] == ["Set", "Off", "Set"]
    assert fired[2] is fired[0]
    (trailing,) = _action_payloads(recording.received)
    assert len(trailing) == 4


def test_wal_fault_injection_rejected_on_process_backend(client):
    with pytest.raises(RecoveryError):
        client.wal_open("/tmp/never-created.wal", faults=object())
    with pytest.raises(RecoveryError):
        client.wal_arm_faults(object())


def test_unpicklable_config_is_a_typed_worker_error():
    simulator = Simulator()
    with pytest.raises(WorkerError):
        ShardClient(0, simulator,
                    config={"telemetry": False, "bad": lambda: None})
    assert no_stray_children()


# -- the declared surface ---------------------------------------------------------


def test_every_public_shard_method_is_reachable_on_the_client():
    worker_only = {"wal_append", "snapshot_state"}
    public = {
        name for name, value in vars(EngineShard).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }
    assert worker_only <= public
    assert not [name for name in sorted(public - worker_only)
                if not callable(getattr(ShardClient, name, None))]
    assert not [name for name in worker_only if hasattr(ShardClient, name)]


def test_declared_calls_are_forwarders_with_the_shard_signature():
    tree = ast.parse(inspect.getsource(worker))
    (client_class,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ShardClient"]
    spelled_out = {
        node.name for node in client_class.body
        if isinstance(node, ast.FunctionDef)}
    assert not spelled_out & set(REMOTE_CALLS)
    for name in REMOTE_CALLS:
        forwarder = ShardClient.__dict__[name]
        method = EngineShard.__dict__[name]
        assert forwarder.__wrapped__ is method
        assert inspect.signature(forwarder) == inspect.signature(method)
        assert forwarder.__doc__ == method.__doc__


@pytest.mark.parametrize("method", ("shutdown", "wal_append", "_arm_clock"))
def test_undeclared_call_is_refused_typed(client, method):
    with pytest.raises(WorkerError, match="unknown shard method"):
        client._call(method)
    # The refusal is an ordinary reply: the stream stays in step.
    assert client.rule_count() == 0
    assert client.process.is_alive()


def test_client_epoch_follows_the_worker_shard(client, tmp_path):
    """Every RESULT carries the worker shard's epoch."""
    def worker_epoch():
        return client.snapshot_to(str(tmp_path / "snap.json"))["epoch"]

    rule = build_rules(HOME)[0]
    client.register_rule(rule)
    seen = client.epoch
    assert seen == worker_epoch() == 1
    client.remove_rule(rule.name)
    seen = client.epoch
    assert seen == worker_epoch() == 2
    client.register_rule(rule)
    with pytest.raises(DuplicateRuleError):
        client.register_rule(rule)
    seen = client.epoch
    assert seen == worker_epoch() == 3


# -- crash handling ---------------------------------------------------------------


def test_killed_worker_raises_worker_crashed(client):
    client.kill()
    with pytest.raises(WorkerCrashed) as excinfo:
        client.rule_count()
    assert excinfo.value.shard_id == 0
    # SIGKILL'd children report a negative exitcode.
    assert excinfo.value.exitcode is not None
    # Every later call fails fast without touching the dead socket.
    with pytest.raises(WorkerError):
        client.rule_count()
    # shutdown() after a crash must still reap the child (fixture
    # asserts no strays).


def test_shutdown_is_idempotent(client):
    client.shutdown()
    assert not client.process.is_alive()
    assert client.process.exitcode == 0
    client.shutdown()  # second call is a no-op, not an error
    with pytest.raises(WorkerError):
        client.rule_count()


# -- through the ClusterServer facade ---------------------------------------------


def test_cluster_server_rejects_unknown_backend():
    with pytest.raises(ValueError):
        ClusterServer(Simulator(), backend="fibers")


def test_cluster_server_process_backend_no_leaked_children():
    simulator = Simulator()
    server = ClusterServer(simulator, shard_count=2, backend="process",
                           coalesce=False)
    try:
        for home in HOMES[:2]:
            for rule in build_rules(home):
                server.register_rule(rule)
        server.ingest(temp(HOMES[0]), 30.0)
        server.ingest(temp(HOMES[1]), 18.0)
        server.flush()
        simulator.run_until(1.0)
        server.flush()
        assert server.rule_truth(f"{HOMES[0]}-cool") is True
        assert server.rule_truth(f"{HOMES[1]}-heat") is True
        described = server.describe_shards()
        assert len(described) == 2
        total_rules = 2 * len(build_rules(HOME))
        assert sum(int(line.split()[2]) for line in described) == total_rules
        assert {shard.backend for shard in server.shards} == {"process"}
    finally:
        server.shutdown()
    assert no_stray_children()
    server.shutdown()  # idempotent through the facade too


def test_cluster_server_telemetry_merges_worker_snapshots():
    simulator = Simulator()
    server = ClusterServer(simulator, shard_count=2, backend="process",
                           telemetry=True)
    try:
        for rule in build_rules(HOME):
            server.register_rule(rule)
        server.ingest(temp(HOME), 30.0)
        server.flush()
        simulator.run_until(1.0)
        server.flush()
        merged = server.telemetry()
        assert merged["enabled"] is True
        # Both worker processes answered the telemetry pull with their
        # private registry snapshots, tagged with their shard ids.
        assert sorted(snap["shard"] for snap in merged["shards"]) == [0, 1]
        total_writes = sum(
            snap["counters"].get("columnar.writes", 0)
            for snap in merged["shards"])
        assert total_writes >= 1
        assert merged["aggregate"]["counters"]["shard.epochs"] > 0
        rendered = server.prometheus()
        assert 'shard="0"' in rendered and 'shard="1"' in rendered
    finally:
        server.shutdown()
    assert no_stray_children()


def test_cluster_server_survives_worker_crash_on_shutdown():
    simulator = Simulator()
    server = ClusterServer(simulator, shard_count=2, backend="process")
    try:
        for rule in build_rules(HOME):
            server.register_rule(rule)
        server.shards[1].kill()
        with pytest.raises(WorkerCrashed):
            server.shards[1].rule_count()
    finally:
        # Shutdown must reap the healthy worker and the corpse alike.
        server.shutdown()
    assert no_stray_children()


def test_flush_folds_worker_counters_into_bus_registry():
    simulator = Simulator()
    server = ClusterServer(simulator, shard_count=1, backend="process",
                           telemetry=True, coalesce=False)
    try:
        for rule in build_rules(HOME):
            server.register_rule(rule)
        before = server.bus.stats.atoms_flipped
        server.ingest(temp(HOME), 30.0)
        server.ingest(f"{HOME}/hygro:svc:humidity", 55.0)
        server.flush()
        assert server.bus.stats.atoms_flipped > before
        assert server.bus.stats.clauses_touched > 0
    finally:
        server.shutdown()
    assert no_stray_children()


class _LoggedSocket:
    """A client socket that logs its sends and receives."""

    def __init__(self, sock, shard_id, log):
        self._sock = sock
        self._shard_id = shard_id
        self._log = log

    def sendall(self, data):
        self._log.append(("send", self._shard_id))
        self._sock.sendall(data)

    def recv(self, size):
        self._log.append(("recv", self._shard_id))
        return self._sock.recv(size)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_flush_sends_each_worker_one_packet():
    """Each worker's drained record and the counter barrier leave in one
    send, every send precedes the first receive, and the actions the
    batch fires come back with the barrier's reply."""
    simulator = Simulator()
    fired = []
    server = ClusterServer(simulator, shard_count=2, backend="process",
                           dispatch=fired.append, coalesce=False)
    homes = ("home-0000", "home-0004")    # one per shard
    log = []
    try:
        for home in homes:
            for rule in build_rules(home):
                server.register_rule(rule)
        for shard in server.shards:
            shard._sock = _LoggedSocket(shard._sock, shard.shard_id, log)
        for round_index, value in enumerate((30.0, 18.0, 30.0)):
            simulator.run_until(round_index + 1.25)
            for home in homes:
                server.ingest(temp(home), value)
            assert all(server.bus.pending(index) for index in range(2))
            log.clear()
            before = len(fired)
            server.flush()
            assert sorted(log[:2]) == [("send", 0), ("send", 1)]
            assert all(kind == "recv" for kind, _ in log[2:])
            assert len(fired) > before
    finally:
        server.shutdown()
    assert no_stray_children()


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_raising_dispatch_leaves_every_shard_usable(backend):
    """A dispatch callback that raises surfaces from the call that
    delivered its action; the reply behind it is still read, so later
    calls on every shard succeed."""
    fired = []

    def dispatch(spec):
        fired.append(spec)
        if len(fired) == 1:
            raise RuntimeError("actuator offline")

    simulator = Simulator()
    server = ClusterServer(simulator, shard_count=2, backend=backend,
                           dispatch=dispatch, coalesce=False)
    try:
        for home in HOMES[:2]:
            for rule in build_rules(home):
                server.register_rule(rule)
        server.ingest(temp(HOMES[0]), 30.0)
        server.ingest(temp(HOMES[1]), 30.0)
        with pytest.raises(RuntimeError, match="actuator offline"):
            server.flush()
        server.ingest(temp(HOMES[0]), 18.0)
        server.ingest(temp(HOMES[1]), 18.0)
        server.flush()
        assert server.rule_count() == 2 * len(build_rules(HOME))
        assert [shard.rule_count() for shard in server.shards] == \
            [sum(1 for name in server._shard_of_rule
                 if server.shard_of_rule(name) == index)
             for index in range(2)]
        for home in HOMES[:2]:
            assert server.rule_truth(f"{home}-heat") is True
    finally:
        server.shutdown()
    assert no_stray_children()


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_dispatch_may_call_every_shard_during_flush(backend):
    """While flush awaits one worker's barrier, a dispatch callback may
    call into any shard, one whose barrier reply is still unread
    included."""
    simulator = Simulator()
    homes = ("home-0000", "home-0004")    # one per shard
    per_shard = len(build_rules(HOME))
    counts = []
    server = None

    def dispatch(spec):
        counts.append([shard.rule_count() for shard in server.shards])

    server = ClusterServer(simulator, shard_count=2, backend=backend,
                           dispatch=dispatch, coalesce=False)
    try:
        for home in homes:
            for rule in build_rules(home):
                server.register_rule(rule)
        for home in homes:
            server.ingest(temp(home), 30.0)
            server.ingest(humid(home), 50.0)
        server.flush()
        assert len(counts) >= 2
        assert all(count == [per_shard, per_shard] for count in counts)
        assert server.bus.stats.atoms_flipped > 0
        assert server.rule_count() == 2 * per_shard
    finally:
        server.shutdown()
    assert no_stray_children()


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_each_wal_generation_decodes_on_its_own(tmp_path, backend):
    """The key table restarts with every WAL generation: a shard's WAL
    (written in a worker, or in-thread) decodes with a fresh decoder,
    with no pickle involved."""
    import pickle

    from repro.cluster import DurabilityPlane
    from repro.cluster.wire import WireDecoder
    from repro.support.wal import read_wal

    simulator = Simulator()
    server = ClusterServer(simulator, shard_count=1, backend=backend,
                           coalesce=False)
    try:
        for rule in build_rules(HOME):
            server.register_rule(rule)
        server.attach_durability(DurabilityPlane(str(tmp_path)))
        for generation in range(2):
            simulator.run_until(simulator.now + 1.25)
            server.ingest(temp(HOME), 30.0 - generation)
            server.ingest(f"{HOME}/locator:svc:place-Tom", "kitchen")
            server.post_event("returns home", "Tom", home=HOME)
            server.flush()
            if generation == 0:
                server.checkpoint()
        server.durability.sync()
        manifest = server.durability._manifest
        path = tmp_path / manifest["shards"][0]["wal"]

        def refuse(*args, **kwargs):
            raise AssertionError("read_wal unpickled a record")

        original = pickle.loads
        pickle.loads = refuse
        try:
            records, report = read_wal(str(path),
                                       WireDecoder().decode_record)
        finally:
            pickle.loads = original
        assert report.ok() and len(records) == 1
        (record,) = records
        assert record.seq > 0
        assert record.entries[:2] == [
            (temp(HOME), 29.0), (f"{HOME}/locator:svc:place-Tom", "kitchen")]
        assert record.entries[2].event_type == "returns home"
    finally:
        server.shutdown()
    assert no_stray_children()
