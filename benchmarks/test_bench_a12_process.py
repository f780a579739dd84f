"""A12 — out-of-process shards: aggregate ingest throughput of worker
processes vs the in-thread cluster, and the wire codec's overhead.

The GIL caps the in-thread cluster at one core no matter how many
shards it runs; ``backend="process"`` moves each shard into its own
worker process behind the framed wire protocol, so shard drains
overlap on real cores.  Two shapes are measured:

* **Worker scaling** — the same fleet stream fed through 1, 2, 4 and 8
  worker processes (and the in-thread twin at the same shard counts).
  Feeding is one-way pipelined BATCH frames; the timed section closes
  with the counter barrier, so it covers serialization, transport and
  every worker's apply.  The ≥3x-at-4-workers acceptance assertion is
  **gated on the runner actually having ≥4 cores** (and skipped in
  smoke runs): on fewer cores the workers time-slice one core and no
  scaling is physically available — rows are still recorded so the
  ledger shows the single-core shape honestly.
* **Wire codec overhead** — encode+decode of realistic ingest batches
  (steady state: key table warm after the first batch) against the
  columnar apply cost of those same batches on a rule-loaded shard.
  Acceptance (asserted on every runner): codec ≤15% of apply — the
  protocol must never dominate the work it ships.

Sizes shrink under ``REPRO_BENCH_SMOKE=1`` (the CI fail-fast job).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import BENCH_SMOKE, report
from repro.cluster import ClusterServer
from repro.cluster.shard import EngineShard
from repro.cluster.wire import FrameReader, WireDecoder, WireEncoder
from repro.sim.events import Simulator
from repro.workloads.fleet import build_home_fleet, fleet_event_stream

if BENCH_SMOKE:
    FLEET_HOMES, RULES_PER_HOME = 8, 25
    WORKER_SWEEP = (1, 2)
    SCALING_EVENTS = 400
    CODEC_BATCHES, CODEC_BATCH_SIZE = 40, 128
else:
    FLEET_HOMES, RULES_PER_HOME = 32, 60
    WORKER_SWEEP = (1, 2, 4, 8)
    SCALING_EVENTS = 1_600
    CODEC_BATCHES, CODEC_BATCH_SIZE = 200, 256

ROUNDS = 5
SCALING_FLOOR = 3.0       # process backend, 1 -> 4 workers, ≥4 cores
CODEC_CEILING = 0.15      # encode+decode ≤15% of columnar apply

THROUGHPUTS: dict[tuple[str, int], float] = {}


@pytest.fixture(scope="module")
def fleet():
    return build_home_fleet(FLEET_HOMES, RULES_PER_HOME, seed="a12-fleet")


def _build_cluster(fleet, shard_count, backend):
    cluster = ClusterServer(
        Simulator(), shard_count=shard_count, backend=backend,
        coalesce=False, max_trace=None, telemetry=False,
    )
    for rule in fleet.all_rules():
        cluster.register_rule(rule, validate=False)
    for home in fleet.homes:
        for variable in fleet.sensors_by_home[home]:
            cluster.ingest(variable, 50.0)
    cluster.flush()
    return cluster


def _run_stream(cluster, stream):
    """Feed + settle, wall-clock.  flush() is the barrier on the
    process backend: it drains every queue into BATCH frames and then
    awaits every worker's counter reply, so apply time is inside."""
    times = []
    for round_index in range(ROUNDS):
        offset = 0.013 * (round_index + 1)
        start = time.perf_counter()
        for variable, value in stream:
            cluster.ingest(variable, value + offset)
        cluster.flush()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


@pytest.mark.hard_timeout(600)
@pytest.mark.parametrize("backend", ("thread", "process"))
@pytest.mark.parametrize("workers", WORKER_SWEEP)
def test_aggregate_ingest(fleet, backend, workers):
    cluster = _build_cluster(fleet, workers, backend)
    try:
        stream = fleet_event_stream(
            fleet, events=SCALING_EVENTS, burst=1, seed="a12-scaling")
        median = _run_stream(cluster, stream)
    finally:
        cluster.shutdown()
    throughput = SCALING_EVENTS / median
    THROUGHPUTS[(backend, workers)] = throughput
    unit = "workers" if backend == "process" else "shards"
    report(
        "A12",
        f"aggregate ingest, {workers} {unit} ({backend}, "
        f"{FLEET_HOMES} homes, {fleet.total_rules} rules)",
        f"n/a (distribution experiment; {throughput:,.0f} events/s "
        "aggregate)",
        median,
    )


def test_worker_scaling_shape():
    """Acceptance: ≥3x aggregate throughput at 4 workers over 1 —
    asserted only where the hardware can express it (≥4 cores, full
    size); single-core runners record the rows and skip the shape."""
    measured = [count for backend, count in THROUGHPUTS
                if backend == "process"]
    if not measured:
        pytest.skip("worker sweep did not run (filtered?)")
    base = THROUGHPUTS[("process", 1)]
    cores = os.cpu_count() or 1
    for count in sorted(set(measured) - {1}):
        ratio = THROUGHPUTS[("process", count)] / base
        print(f"\n  [A12] process scaling 1 -> {count} workers: "
              f"x{ratio:.2f} ({cores} cores)")
    if BENCH_SMOKE:
        pytest.skip("smoke sizes are too small for a stable scaling shape")
    if cores < 4 or 4 not in measured:
        pytest.skip(f"scaling acceptance needs >=4 cores (have {cores})")
    ratio = THROUGHPUTS[("process", 4)] / base
    assert ratio >= SCALING_FLOOR, (
        f"aggregate throughput grew only x{ratio:.2f} from 1 to 4 "
        f"workers on {cores} cores (floor x{SCALING_FLOOR:.1f})"
    )


@pytest.mark.hard_timeout(600)
def test_wire_codec_overhead(fleet):
    """Acceptance (every runner): encoding + decoding a batch costs
    ≤15% of applying it — measured against the columnar apply on a
    shard loaded with the fleet's rules."""
    shard = EngineShard(0, Simulator(), telemetry=False)
    for rule in fleet.all_rules():
        shard.register_rule(rule, validate=False)
    sensors = [v for home in fleet.homes
               for v in fleet.sensors_by_home[home]]
    for variable in sensors:
        shard.ingest(variable, 50.0)

    batches = []
    for index in range(CODEC_BATCHES):
        base = 20.0 + (index % 7)
        batches.append([
            (sensors[(index * 31 + slot) % len(sensors)],
             base + 0.013 * slot)
            for slot in range(CODEC_BATCH_SIZE)
        ])

    encoder, decoder, frames = WireEncoder(), WireDecoder(), FrameReader()

    def codec_pass():
        start = time.perf_counter()
        for t, batch in enumerate(batches):
            frames.feed(encoder.encode_batch(float(t), batch))
            for _frame_type, payload in frames.frames():
                decoder.decode_batch(payload)
        return time.perf_counter() - start

    def apply_pass(offset):
        start = time.perf_counter()
        for batch in batches:
            shard.ingest_batch([(variable, value + offset)
                                for variable, value in batch])
        return time.perf_counter() - start

    codec_pass()  # warm the key table: steady state is the fair shape
    codec_times, apply_times = [], []
    for round_index in range(ROUNDS):
        codec_times.append(codec_pass())
        apply_times.append(apply_pass(0.013 * (round_index + 1)))
    codec_times.sort()
    apply_times.sort()
    codec_median = codec_times[len(codec_times) // 2]
    apply_median = apply_times[len(apply_times) // 2]
    ratio = codec_median / apply_median

    per_batch = codec_median / CODEC_BATCHES
    report(
        "A12",
        f"wire codec encode+decode, batch of {CODEC_BATCH_SIZE}",
        f"n/a (codec overhead; {ratio * 100:.1f}% of columnar apply)",
        per_batch,
    )
    report(
        "A12",
        f"columnar batch apply, batch of {CODEC_BATCH_SIZE} "
        f"({fleet.total_rules} rules)",
        "n/a (codec overhead baseline)",
        apply_median / CODEC_BATCHES,
    )
    shard.shutdown()
    assert ratio <= CODEC_CEILING, (
        f"wire codec costs {ratio * 100:.1f}% of the columnar apply "
        f"(ceiling {CODEC_CEILING * 100:.0f}%)"
    )
