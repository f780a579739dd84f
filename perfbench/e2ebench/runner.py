"""Workloads, set-up, the open and closed loops, and the metrics.

One run of one workload:

1. **Set-up**, :data:`SETUPS` times (``setup_s`` is their median): build
   a 2-shard ``ClusterServer`` (forking the workers on the process
   backend), make the rule population, register it through validated
   ``register_rule``, add the priority orders, seed every sensor, attach
   durability (which takes the first checkpoint).  The last set-up is
   kept; the others are shut down.  The offered stream is generated
   after set-up, outside every timed window.
2. Rounds of an **open loop** then a **closed loop**, one round per
   :data:`ROUND_TICKS` open-loop ticks.  The open loop runs at the
   workload's fixed tick rate: a tick advances sim time by one clock
   period (``Simulator.run_until``), publishes its writes (and, on churn
   ticks, registers one rule and removes another) and calls ``flush()``.
   Each action the ``dispatch`` callback receives is timed from the due
   time of the tick that delivered it; a late tick keeps its due time.
   The closed loop runs the same stream back to back (``writes_per_s``).
   Each timing is the median over the rounds.
3. **Output check** (:mod:`e2ebench.check`), memory readings, shutdown.

The traced run (``trace=True``) runs one untraced open loop (the
tracing-overhead baseline), then the traced open and closed loops, from
which the per-layer metrics come.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

from repro.cluster.durability import DurabilityPlane
from repro.cluster.server import ClusterServer
from repro.errors import WorkerCrashed
from repro.sim.events import Simulator

from e2ebench import check, gen, host
from e2ebench.stats import percentile
from e2ebench.tracer import Tracer, install

SHARDS = 2
SETUPS = 3
#: Sim time of the first tick, and the sim time one tick advances (the
#: shards' default clock period): ~1,400 ticks sweep a whole day, so
#: every time window opens and closes during the open loop.
SIM_START = 5 * gen.HOUR
SIM_STEP = 60.0
#: Shares of ``--seconds`` per phase; an untraced run alternates open
#: and closed segments, one round per ``ROUND_TICKS`` open-loop ticks,
#: so every round's p99 rests on at least that many ticks.
OPEN_SHARE = 0.8
ROUND_TICKS = 1000
TRACE_BASELINE_SHARE = 0.25
TRACE_OPEN_SHARE = 0.4
#: A tick that starts this long after its due time is late.
LATE_NS = 1_000_000
#: WAL appends between fsyncs: never within a run.  The benchmark may
#: write only inside its checkout, whose disk is not tmpfs, and fsync
#: stalls there would swamp every latency; disk fsync is not measured.
FSYNC_INTERVAL = 1 << 30


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    durable: bool
    rate: float                      # open-loop ticks per second
    make: Callable[[int], gen.Inputs]
    # Closed-loop ticks generated per closed second, outside the timed
    # loops.  A stream that churns rules gets fresh ticks before every
    # closed loop (a rule registers once), so this must exceed the
    # loop's capacity; any other stream generates one pool of them that
    # the closed loops cycle through.
    closed_ticks_per_s: int


def _fleet(seed: int) -> gen.Inputs:
    return gen.fleet_inputs(seed, homes=48, rules_per_home=48,
                            building_rules=8, writes_per_tick=8)


def _contested(seed: int) -> gen.Inputs:
    return gen.contested_inputs(seed, homes=32, devices_per_home=16,
                                residents=4, writes_per_tick=8)


#: Open-loop rates sit at a sixth or less of each workload's closed-
#: loop capacity on a 2-vCPU host.  BENCHMARK.json lists the workloads
#: the benchmark reports and why each was chosen; a workload left out
#: of it stays runnable by name.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload("fleet-thread", backend="thread", durable=False,
                 rate=150.0, make=_fleet, closed_ticks_per_s=250),
        Workload("fleet-process-wal", backend="process", durable=True,
                 rate=150.0, make=_fleet, closed_ticks_per_s=250),
        Workload("churn-contested", backend="thread", durable=False,
                 rate=150.0, make=_contested, closed_ticks_per_s=1500),
    )
}


def work_dir() -> str:
    """``.bench_build/perfbench`` at the root of the checkout."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


class ActionRecorder:
    """The ``dispatch`` callback: one ``perf_counter_ns`` stamp per
    action (``stamps`` never shrinks, so its length is the total count).
    ``hook`` is swapped for a span-recording version in traced phases."""

    def __init__(self) -> None:
        self.stamps: list[int] = []
        self.hook = self._stamp

    def _stamp(self, spec) -> None:
        self.stamps.append(perf_counter_ns())

    def dispatch(self, spec) -> None:
        self.hook(spec)

    def traced(self, tracer: Tracer) -> None:
        stamps = self.stamps

        def hook(spec) -> None:
            index = tracer.begin("action")
            stamps.append(perf_counter_ns())
            tracer.end(index)
        self.hook = hook

    def untraced(self) -> None:
        self.hook = self._stamp


@dataclass
class Setup:
    server: ClusterServer
    simulator: Simulator
    inputs: gen.Inputs
    recorder: ActionRecorder
    directory: str | None
    seconds: dict


def set_up(workload: Workload, seed: int) -> Setup:
    start = perf_counter_ns()
    simulator = Simulator()
    recorder = ActionRecorder()
    # Workers fork before the inputs exist, so each inherits a lean heap
    # (every full collection in a worker walks what it inherited).
    server = ClusterServer(simulator, shard_count=SHARDS,
                           backend=workload.backend,
                           dispatch=recorder.dispatch)
    spawned = perf_counter_ns()
    inputs = workload.make(seed)
    generated = perf_counter_ns()
    directory = None
    try:
        for rule in inputs.rules:
            server.register_rule(rule)
        for order in inputs.orders:
            server.add_priority_order(order)
        for variable, value in inputs.initial:
            server.ingest(variable, value)
        server.flush()
        registered = perf_counter_ns()
        if workload.durable:
            directory = tempfile.mkdtemp(prefix="wal-", dir=work_dir())
            server.attach_durability(DurabilityPlane(
                directory, fsync_interval=FSYNC_INTERVAL))
        attached = perf_counter_ns()
        gc.collect()
    except BaseException:
        server.shutdown()
        raise
    done = perf_counter_ns()
    seconds = {
        "spawn": (spawned - start) / 1e9,
        "generate": (generated - spawned) / 1e9,
        "register": (registered - generated) / 1e9,
        "checkpoint": (attached - registered) / 1e9,
        "total": (done - start) / 1e9,
    }
    return Setup(server, simulator, inputs, recorder, directory, seconds)


def tear_down(setup: Setup) -> list[str]:
    setup.server.shutdown()
    if setup.directory is not None:
        shutil.rmtree(setup.directory, ignore_errors=True)
    return check.check_stopped(
        [s for s in setup.server.shards if s.backend == "process"])


@dataclass
class Phase:
    """What one loop did: ticks run, operations, lags, latencies."""

    ticks: int = 0
    writes: int = 0
    ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    elapsed_ns: int = 0
    lags_ns: list[int] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    register_ns: list[int] = field(default_factory=list)
    crashed: bool = False


def merged(phases: list[Phase]) -> Phase:
    """One phase's worth of results from consecutive segments."""
    total = Phase()
    for phase in phases:
        total.ticks += phase.ticks
        total.writes += phase.writes
        total.ops += phase.ops
        total.failed += phase.failed
        total.errors += phase.errors
        total.elapsed_ns += phase.elapsed_ns
        total.lags_ns += phase.lags_ns
        total.latencies_ns += phase.latencies_ns
        total.register_ns += phase.register_ns
        total.crashed = total.crashed or phase.crashed
    return total


class TickRunner:
    """Runs ticks of one set-up's stream, in order, across phases."""

    def __init__(self, setup: Setup, open_ticks: int, pool: int) -> None:
        self.setup = setup
        self.tracer: Tracer | None = None   # set for traced phases
        self.next_tick = 0          # ticks run so far, all phases
        self.open_ticks = open_ticks        # the prefix a cycle skips
        self.executed: list[int] = []   # stream index of each tick run
        inputs = setup.inputs
        inputs.extend(1)
        # A stream that churns rules cannot repeat a tick (a rule
        # registers once): each phase gets fresh ticks.  Any other
        # stream gets its open-loop ticks plus one pool that the closed
        # loops cycle through, all generated here.
        self.cycle = inputs.ticks[0][1] is None
        if self.cycle:
            inputs.extend(open_ticks + pool - 1)

    def provide(self, count: int) -> None:
        """Generate, before a phase, the ``count`` ticks it may run, then
        collect garbage: a full collection the generated inputs would
        trigger never lands in a timed loop, so one lands there only
        when that loop's own allocations trigger it."""
        missing = self.next_tick + count - len(self.setup.inputs.ticks)
        if missing > 0 and not self.cycle:
            self.setup.inputs.extend(missing)
        gc.collect()

    def _stream_index(self, number: int) -> int | None:
        ticks = len(self.setup.inputs.ticks)
        if number < ticks:
            return number
        if not self.cycle:
            return None
        pool = ticks - self.open_ticks
        return self.open_ticks + (number - self.open_ticks) % pool

    def _tick(self, phase: Phase, index: int) -> None:
        writes, churn = self.setup.inputs.ticks[index]
        server = self.setup.server
        self.setup.simulator.run_until(
            SIM_START + SIM_STEP * (self.next_tick + 1))
        ingest = server.ingest
        if churn is None:
            for variable, value in writes:
                ingest(variable, value)
        else:
            removed, rule = churn
            half = len(writes) // 2
            for variable, value in writes[:half]:
                ingest(variable, value)
            before = perf_counter_ns()
            server.register_rule(rule)
            phase.register_ns.append(perf_counter_ns() - before)
            for variable, value in writes[half:]:
                ingest(variable, value)
            server.remove_rule(removed)
        server.flush()

    def _run_one(self, phase: Phase) -> bool:
        """One tick; False when the stream is exhausted or a worker
        died (the phase must stop)."""
        index = self._stream_index(self.next_tick)
        if index is None:
            return False
        writes, churn = self.setup.inputs.ticks[index]
        ops = len(writes) + (2 if churn is not None else 0)
        tracer = self.tracer
        span = None
        if tracer is not None:
            tracer.tick = self.next_tick
            span = tracer.begin("tick")
        try:
            self._tick(phase, index)
        except WorkerCrashed as exc:
            phase.failed += ops
            phase.errors.append(repr(exc))
            phase.crashed = True
            return False
        except Exception as exc:  # counted, reported, the run goes on
            phase.failed += 1
            phase.errors.append(repr(exc))
        finally:
            if span is not None:
                tracer.end(span)
                tracer.tick = -1
        self.executed.append(index)
        self.next_tick += 1
        phase.ticks += 1
        phase.writes += len(writes)
        phase.ops += ops
        return True

    def open_loop(self, count: int, rate: float) -> Phase:
        phase = Phase()
        stamps = self.setup.recorder.stamps
        period = 1e9 / rate
        dues: list[int] = []
        ends: list[int] = []
        first_stamp = len(stamps)
        origin = perf_counter_ns() + 1_000_000
        for number in range(count):
            due = origin + int(number * period)
            # Busy-wait, never sleep: on a virtual machine an idle vCPU
            # can take milliseconds to wake, and that host delay would
            # be charged to every action of the tick.  Workers are idle
            # between ticks, and one that wakes preempts the spin.
            while perf_counter_ns() < due:
                pass
            lag = perf_counter_ns() - due
            if not self._run_one(phase):
                break
            phase.lags_ns.append(lag)
            dues.append(due)
            ends.append(len(stamps))
        phase.elapsed_ns = perf_counter_ns() - origin
        latencies = phase.latencies_ns
        position = first_stamp
        for due, end in zip(dues, ends):
            latencies.extend(stamp - due for stamp in stamps[position:end])
            position = end
        return phase

    def closed_loop(self, seconds: float) -> Phase:
        phase = Phase()
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while self._run_one(phase) and perf_counter_ns() < deadline:
            pass
        phase.elapsed_ns = perf_counter_ns() - start
        return phase

    def last_values(self) -> dict:
        """The generator's last-written value of every variable."""
        values = dict(self.setup.inputs.initial)
        ticks = self.setup.inputs.ticks
        for index in self.executed:
            values.update(ticks[index][0])
        return values

    def live_rules(self) -> list:
        rules = {rule.name: rule for rule in self.setup.inputs.rules}
        ticks = self.setup.inputs.ticks
        for index in self.executed:
            churn = ticks[index][1]
            if churn is not None:
                removed, rule = churn
                rules[rule.name] = rule
                rules.pop(removed, None)
        return list(rules.values())


class GcWatch:
    """Collector pauses and full collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_ns = 0
        self.full = 0
        self._since = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._since = perf_counter_ns()
        else:
            self.pause_ns += perf_counter_ns() - self._since
            if info["generation"] == 2:
                self.full += 1


def _ms(values_ns: list[int], q: float) -> float | None:
    try:
        return percentile(values_ns, q) / 1e6
    except ValueError:
        return None


def _median_ms(replicates: list[list[int]], q: float) -> float | None:
    """Median over replicates of each one's ``q``-quantile, in ms (None
    when any replicate has too few samples for it)."""
    values = [_ms(values_ns, q) for values_ns in replicates]
    if not values or None in values:
        return None
    return statistics.median(values)


def late_shares(lags_ns: list[int]) -> tuple[float, float]:
    """Late-tick share of the first and the second half of an open loop."""
    half = len(lags_ns) // 2
    first, second = lags_ns[:half], lags_ns[half:]

    def share(part: list[int]) -> float:
        return sum(1 for lag in part if lag > LATE_NS) / len(part) \
            if part else 0.0
    return share(first), share(second)


def backlog_growing(lags_ns: list[int]) -> bool:
    """The open loop fell behind: the late share of its second half
    exceeds the first half's by more than ten points."""
    first, second = late_shares(lags_ns)
    return second - first > 0.10


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict            # name -> (value, unit)
    attempted: int
    failed: int
    mismatches: list[str]
    notes: list[str]
    fingerprint: dict
    layers: dict = field(default_factory=dict)   # layer -> us per tick
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.failed == 0


def _check_outputs(setup: Setup, ticks: TickRunner) -> list[str]:
    server = setup.server
    world = check.reference_world(setup.simulator, ticks.last_values())
    mismatches = check.check_truth(server, ticks.live_rules(), world)
    mismatches += check.check_dispatch_count(
        len(setup.recorder.stamps), server.telemetry())
    if setup.inputs.orders:
        mismatches += check.check_holders(
            server, sorted({order.device_udn
                            for order in setup.inputs.orders}))
    return mismatches


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    if trace:
        baseline_s = seconds * TRACE_BASELINE_SHARE
        open_s = seconds * TRACE_OPEN_SHARE
        closed_s = seconds - baseline_s - open_s
    else:
        baseline_s = 0.0
        open_s = seconds * OPEN_SHARE
        closed_s = seconds - open_s
    baseline_ticks = round(baseline_s * workload.rate)
    open_ticks = round(open_s * workload.rate)
    opened = baseline_ticks + open_ticks
    pool = max(1, round(closed_s * workload.closed_ticks_per_s))
    rounds = 1 if trace else max(1, open_ticks // ROUND_TICKS)

    mismatches: list[str] = []
    setups: list[dict] = []
    setup = None
    for number in range(SETUPS):
        setup = set_up(workload, seed)
        setups.append(setup.seconds)
        if number < SETUPS - 1:
            mismatches += tear_down(setup)
            # Free the discarded cluster before the next one forks.
            setup = None
            gc.collect()
    fingerprint = host.fingerprint(setup.directory or work_dir())
    server = setup.server
    notes: list[str] = []
    tracer = Tracer() if trace else None
    opens: list[Phase] = []
    closeds: list[Phase] = []
    try:
        ticks = TickRunner(setup, opened, pool)
        baseline = None

        def open_loop(count: int) -> Phase:
            ticks.provide(count)
            return ticks.open_loop(count, workload.rate)

        def closed_loop() -> Phase:
            ticks.provide(pool // rounds)
            return ticks.closed_loop(closed_s / rounds)

        if trace:
            baseline = open_loop(baseline_ticks)
            before = server.telemetry()
            stamps_before = len(setup.recorder.stamps)
            watch = GcWatch()
            gc.callbacks.append(watch)
            ticks.tracer = tracer
            setup.recorder.traced(tracer)
            installation = install(tracer)
            try:
                traced_start = perf_counter_ns()
                open_phase = open_loop(open_ticks)
                closed = closed_loop()
                traced_ns = perf_counter_ns() - traced_start
            finally:
                installation.remove()
                setup.recorder.untraced()
                ticks.tracer = None
                gc.callbacks.remove(watch)
            after = server.telemetry()
        else:
            # Alternate open and closed segments, so each metric is the
            # median of measurements spread over the whole run.
            for number in range(rounds):
                count = (open_ticks * (number + 1) // rounds
                         - open_ticks * number // rounds)
                opens.append(open_loop(count))
                closeds.append(closed_loop())
                if opens[-1].crashed or closeds[-1].crashed:
                    break
            open_phase, closed = merged(opens), merged(closeds)
        phases = [p for p in (baseline, open_phase, closed) if p is not None]
        mismatches += _check_outputs(setup, ticks)
        rss = host.peak_rss_mb()
        worker_rss = [host.peak_rss_mb(shard.worker_pid)
                      for shard in server.shards
                      if shard.backend == "process"]
    finally:
        mismatches += tear_down(setup)

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases) + len(mismatches)
    for p in phases:
        notes += p.errors[:5]
    loop = baseline if trace else open_phase
    if backlog_growing(loop.lags_ns):
        notes.append("open loop fell behind: late-tick share grew from "
                     "the first half to the second; latency is invalid")

    # Each timing is the median over replicates: the rounds of an
    # untraced run (the whole loop when traced).
    open_rounds = opens or [open_phase]
    closed_rounds = closeds or [closed]
    metrics = {
        "action_latency_p50_ms": (_median_ms(
            [p.latencies_ns for p in open_rounds], 0.50), "ms"),
        # p99 must rest on at least ROUND_TICKS ticks in every replicate.
        "action_latency_p99_ms": (_median_ms(
            [p.latencies_ns for p in open_rounds], 0.99)
            if min(p.ticks for p in open_rounds) >= ROUND_TICKS else None,
            "ms"),
        "writes_per_s": (statistics.median(
            p.writes / (p.elapsed_ns / 1e9) for p in closed_rounds), "1/s"),
        "setup_s": (statistics.median(s["total"] for s in setups), "s"),
        "peak_rss_mb": (rss + sum(worker_rss), "MB"),
    }
    if metrics["action_latency_p99_ms"][0] is None:
        notes.append(f"an open-loop round ran under {ROUND_TICKS} ticks: "
                     "action_latency_p99_ms is refused")
    result = Result(
        workload=workload.name, seed=seed, trace=trace, metrics=metrics,
        attempted=attempted, failed=failed, mismatches=mismatches,
        notes=notes, fingerprint=fingerprint)
    result.details = {
        "open_ticks": open_phase.ticks,
        "actions_timed": len(open_phase.latencies_ns),
        "closed_ticks": closed.ticks,
        "late_shares": late_shares(loop.lags_ns),
        "setups": setups,
    }
    churn_rounds = [o.register_ns + c.register_ns
                    for o, c in zip(open_rounds, closed_rounds)]
    if any(churn_rounds):
        # Validated register_rule latency in the timed churn.  Printed,
        # but not listed in BENCHMARK.json, whose metrics every workload
        # reports: a fleet registers rules only during set-up, a few cold
        # seconds after the fork that give no steady figure.
        result.details["registrations"] = sum(map(len, churn_rounds))
        result.details["register"] = {
            "register_p50_ms": (_median_ms(churn_rounds, 0.50), "ms"),
            "register_p99_ms": (_median_ms(churn_rounds, 0.99), "ms"),
        }
    if trace:
        from e2ebench import layers
        result.metrics = layers.per_layer(
            tracer=tracer, before=before, after=after,
            dispatched=len(setup.recorder.stamps) - stamps_before,
            baseline=baseline, traced_open=open_phase,
            traced_ticks=open_phase.ticks + closed.ticks,
            traced_seconds=traced_ns / 1e9, gc_watch=watch,
            setups=setups, worker_rss=worker_rss)
        result.layers = layers.tick_breakdown(tracer)
        path = os.path.join(work_dir(),
                            f"spans-{workload.name}-seed{seed}.jsonl")
        tracer.write(path)
        notes.append(f"spans written to {os.path.relpath(path)}")
    return result
