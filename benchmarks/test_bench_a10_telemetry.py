"""A10 — telemetry overhead and the per-stage latency breakdown.

The observability plane (``repro.obs``) promises to be a pure read-side
plane: fixed-bucket histograms, pre-bound counters and one ``None``
check per seam when disabled.  This benchmark holds it to that promise
on the two surfaces that matter:

* **overhead** — telemetry-enabled vs telemetry-disabled batched ingest
  on the A9 columnar band-sweep workload (the hottest instrumented
  path: writes open sampled ``sweep``/``fanout`` spans, every batch a
  ``batch`` span).  Budget: ≤3% at full size.  The measurement runs on
  **one engine**, toggled between rounds with ``set_telemetry`` — two
  separate engine instances differ by allocation layout and cache
  state, which a 60 ms / <3% comparison cannot afford.  Rounds
  alternate on/off in ABBA order with gc paused, and the acceptance
  ratio is a trimmed best-of (mean of the k fastest per side):
  scheduler noise only ever adds time, so the fast tail isolates the
  instrumentation cost from jitter.

* **action-heavy overhead** — the same ABBA ``set_telemetry`` toggle on
  one engine serving a dispatching fleet stream (``build_home_fleet`` +
  ``fleet_event_stream``): every rule drives its own device, so each
  rising edge dispatches and opens an ``action`` span.  The row records
  the ratio with the stream's actions per write and is not gated — a
  wall-clock ratio this small would make tier-1 flaky; the ≤3% budget
  is judged end to end, on perfbench's ``fleet-process-wal``.

* **stage breakdown** — a sharded fleet serves a mixed event stream and
  runs past several time-window boundaries, then each pipeline stage's
  p50 (from the merged ``span.<stage>_ms`` histograms) lands in the
  ledger: drain → batch → sweep → fanout → wheel → action.  These rows
  make a regression in any single stage visible even when end-to-end
  ingest cost hides it.
"""

from time import perf_counter

import pytest

from benchmarks.conftest import BENCH_SMOKE, record_result, report
from repro.cluster import ClusterServer
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine
from repro.core.priority import PriorityManager
from repro.obs.trace import STAGES, Telemetry
from repro.sim.clock import hhmm
from repro.sim.events import Simulator
from repro.workloads.fleet import build_home_fleet, fleet_event_stream
from repro.workloads.rules import build_columnar_population

RULES = 2_000 if BENCH_SMOKE else 10_000
BATCH_SIZE = 64
ROUNDS = 24 if BENCH_SMOKE else 50
TRIM = 3 if BENCH_SMOKE else 5  # k fastest rounds per side

# Acceptance ceiling on the enabled/disabled trimmed best-of ratio.
# The full-size budget is 3%; smoke shrinks the workload so the
# constant span cost weighs relatively more and CI boxes are noisier.
OVERHEAD_CEILING = 1.10 if BENCH_SMOKE else 1.03

# Stage-breakdown fleet: full size hits the 10k-rule acceptance point
# (10 homes x 1000 rules over 4 shards).
SHARDS = 4
FLEET = (3, 40) if BENCH_SMOKE else (10, 1_000)
FLEET_EVENTS = 400 if BENCH_SMOKE else 4_000
FLEET_RULES = FLEET[0] * FLEET[1]
# The dispatching stream replayed each ABBA round (~60 ms a round at full
# size on a 2-vCPU host).
DISPATCH_EVENTS = 128 if BENCH_SMOKE else 512


# -- instrumentation overhead --------------------------------------------------


def _build_engine():
    population = build_columnar_population(RULES, seed=f"a10-{RULES}")
    engine = RuleEngine(
        population.database, PriorityManager(), Simulator(),
        dispatch=lambda spec: None, max_trace=10_000,
    )
    for rule in population.database.all_rules():
        engine.rule_added(rule)
    # Prime: the first readings initialize every atom; the measured
    # steady state is the band jump (same protocol as A9).
    engine.ingest(population.hot_variable, population.toggle_low)
    engine.ingest(population.hot_variable, population.toggle_high)
    engine.ingest(population.hot_variable, population.toggle_low)
    return population, engine


def _band_step(engine, population, size):
    values = (population.toggle_high, population.toggle_low)
    state = [0]

    def step():
        phase = state[0]
        batch = [
            (population.hot_variable, values[(phase + offset) % 2])
            for offset in range(size)
        ]
        state[0] = (phase + size) % 2
        engine.ingest_batch(batch)

    return step


def _measure_overhead(engine, telemetry, step):
    """One ABBA measurement block: per-side sorted round times."""
    import gc

    times = {True: [], False: []}
    gc.collect()
    gc.disable()
    try:
        engine.set_telemetry(telemetry)
        for _ in range(3):
            step()
        for index in range(ROUNDS):
            # ABBA: alternate which side leads so slow machine drift
            # (thermal / frequency scaling) cancels across the run.
            order = (True, False) if index % 2 == 0 else (False, True)
            for flag in order:
                engine.set_telemetry(telemetry if flag else None)
                start = perf_counter()
                step()
                times[flag].append(perf_counter() - start)
    finally:
        gc.enable()
    for values in times.values():
        values.sort()
    return times


def test_telemetry_overhead_on_columnar_ingest():
    """Acceptance: telemetry-enabled batched ingest within the overhead
    budget of the disabled twin on the A9 columnar workload.

    The true cost sits well under 1% (sampled per-write spans), but the
    estimator's noise floor on a shared box is ~±1.5% — so the budget
    check retries up to three measurement blocks and keeps the best.
    A real regression past the ceiling dominates the noise and fails
    every attempt; a noise spike fails at most one.
    """
    telemetry = Telemetry()
    population, engine = _build_engine()
    step = _band_step(engine, population, BATCH_SIZE)
    ratio = None
    for _ in range(3):
        times = _measure_overhead(engine, telemetry, step)
        trimmed = {
            flag: sum(values[:TRIM]) / TRIM
            for flag, values in times.items()
        }
        attempt = trimmed[True] / trimmed[False]
        if ratio is None or attempt < ratio:
            ratio = attempt
            median = {
                flag: values[ROUNDS // 2] for flag, values in times.items()
            }
        if ratio <= OVERHEAD_CEILING:
            break

    report(
        "A10",
        f"telemetry-enabled batch ingest @ {RULES} rules "
        f"(batch {BATCH_SIZE})",
        "overhead budget: <=3% over disabled", median[True],
    )
    report(
        "A10",
        f"telemetry-disabled batch ingest @ {RULES} rules "
        f"(batch {BATCH_SIZE}, ablation)",
        "n/a (ablation)", median[False],
    )
    record_result(
        "A10", f"telemetry overhead @ {RULES} rules (percent)",
        max(0.0, (ratio - 1.0) * 100.0),
    )
    print(f"\n  [A10] overhead ratio (trimmed best {TRIM}/{ROUNDS} "
          f"ABBA rounds, best attempt): x{ratio:.4f} "
          f"(ceiling x{OVERHEAD_CEILING:g})")

    # The comparison must not be vacuous: the enabled rounds really
    # recorded per-batch batch spans and 1-in-N sampled sweep spans.
    histograms = telemetry.registry.snapshot()["histograms"]
    assert histograms["span.batch_ms"]["count"] >= ROUNDS
    assert histograms["span.sweep_ms"]["count"] >= ROUNDS * BATCH_SIZE // 16

    assert ratio <= OVERHEAD_CEILING, (
        f"telemetry overhead x{ratio:.4f} over the disabled twin at "
        f"{RULES} rules (ceiling x{OVERHEAD_CEILING:g})"
    )


# -- action-heavy overhead -----------------------------------------------------


def test_telemetry_overhead_on_dispatching_fleet_ingest():
    """Ledger rows, not a gate: the enabled/disabled trimmed best-of
    ratio on a stream whose writes dispatch actions, and the stream's
    actions per write.  After one warm-up pass every replay of the
    stream starts from the world the previous one left, so each round
    does identical work."""
    fleet = build_home_fleet(*FLEET, seed="a10-fleet")
    database = RuleDatabase()
    dispatched = []
    engine = RuleEngine(database, PriorityManager(), Simulator(),
                        dispatch=dispatched.append)
    for rule in fleet.all_rules():
        database.add(rule)
        engine.rule_added(rule)
    stream = fleet_event_stream(fleet, events=DISPATCH_EVENTS, burst=8,
                                seed="a10-stream")
    engine.ingest_batch(stream)
    del dispatched[:]
    engine.ingest_batch(stream)
    actions_per_write = len(dispatched) / len(stream)
    telemetry = Telemetry()
    times = _measure_overhead(
        engine, telemetry, lambda: engine.ingest_batch(stream))
    trimmed = {flag: sum(values[:TRIM]) / TRIM
               for flag, values in times.items()}
    ratio = trimmed[True] / trimmed[False]
    record_result(
        "A10", f"telemetry overhead on dispatching fleet ingest @ "
        f"{FLEET_RULES} rules (percent)", max(0.0, (ratio - 1.0) * 100.0))
    record_result(
        "A10", f"dispatching fleet ingest @ {FLEET_RULES} rules: "
        f"actions per write (count)", actions_per_write)
    print(f"\n  [A10] dispatching fleet ingest @ {FLEET_RULES} rules, "
          f"{actions_per_write:.3f} actions/write: overhead ratio "
          f"x{ratio:.4f} (trimmed best {TRIM}/{ROUNDS} ABBA rounds, "
          f"not gated)")
    # Not vacuous: the stream dispatches, and the enabled rounds timed
    # those dispatches.
    assert actions_per_write > 0
    histograms = telemetry.registry.snapshot()["histograms"]
    assert histograms["span.action_ms"]["count"] >= ROUNDS


# -- per-stage latency breakdown -----------------------------------------------


@pytest.fixture(scope="module")
def settled_fleet():
    simulator = Simulator()
    cluster = ClusterServer(simulator, shard_count=SHARDS)
    fleet = build_home_fleet(*FLEET, seed="a10-fleet")
    for rule in fleet.all_rules():
        cluster.register_rule(rule, validate=False)
    # Flush in waves rather than once at the end so the drain/batch
    # histograms aggregate many realistically sized bus drains instead
    # of one giant coalesced one.
    for index, (variable, value) in enumerate(fleet_event_stream(
        fleet, events=FLEET_EVENTS, burst=8, seed="a10-stream"
    )):
        cluster.ingest(variable, value)
        if index % 50 == 49:
            cluster.flush()
    cluster.flush()
    simulator.run_until(hhmm(23))  # cross window boundaries: wheel wakes
    yield cluster
    cluster.shutdown()


def test_stage_latency_breakdown(settled_fleet):
    """Ledger rows: per-stage p50 from the merged span histograms at the
    fleet acceptance point — one row per pipeline stage that fired."""
    aggregate = settled_fleet.telemetry()["aggregate"]["histograms"]
    recorded = []
    for stage in STAGES:
        view = aggregate.get(f"span.{stage}_ms")
        if view is None or view["count"] == 0:
            continue
        p50 = view["p50"]
        if not isinstance(p50, (int, float)):
            continue  # "+Inf" overflow: never expected at these sizes
        print(f"\n  [A10] span {stage}: p50 {p50:.4f} ms "
              f"over {view['count']} spans")
        record_result(
            "A10",
            f"span {stage} p50 @ {FLEET_RULES}-rule fleet "
            f"({SHARDS} shards)",
            p50,
        )
        recorded.append(stage)
    # Every stage of the documented pipeline except action dispatch is
    # guaranteed by this stream; action rows appear whenever the random
    # fleet fired a device command.
    assert {"drain", "batch", "sweep", "fanout", "wheel"} <= set(recorded)
