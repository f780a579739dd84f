"""A11 — durability overhead and recovery time.

The durability plane (:mod:`repro.cluster.durability`) promises that
crash safety is cheap on the hot path and that recovery is snapshot +
tail-replay, not a full re-run of history.  Two surfaces hold it to
that:

* **WAL append overhead** — wal-enabled vs wal-disabled batched ingest
  on the A9 columnar band-sweep workload through a one-shard cluster
  bus (every drain appends one framed, checksummed record before the
  batch applies; fsyncs are batched).  Budget: ≤10% at full size.  Same
  ABBA/trimmed-best-of protocol as A10, on one cluster toggled between
  rounds — two separate clusters differ by allocation layout and cache
  state.

* **recovery time** — restore (manifest + snapshot overlay + WAL tail
  replay) measured against tail length, next to a cold full replay of
  the same event history through a fresh cluster.  The acceptance
  assertion is the paper-shaped one: snapshot + short-tail restore
  beats replaying the whole history.
"""

from time import perf_counter

from benchmarks.conftest import BENCH_SMOKE, record_result, report
from repro.cluster import ClusterServer, DurabilityPlane, restore_cluster
from repro.sim.events import Simulator
from repro.workloads.rules import build_columnar_population

RULES = 2_000 if BENCH_SMOKE else 10_000
BATCH = 64
ROUNDS = 24 if BENCH_SMOKE else 50
TRIM = 3 if BENCH_SMOKE else 5  # k fastest rounds per side
FSYNC_INTERVAL = 64  # fsync batching: one barrier per 64 appended records

# Acceptance ceiling on the enabled/disabled trimmed best-of ratio.
# Full-size budget is 10%; smoke shrinks the per-batch engine work so
# the constant framing/write cost weighs relatively more.
OVERHEAD_CEILING = 1.25 if BENCH_SMOKE else 1.10

# Recovery-time population: smaller, so four cluster builds stay cheap.
R_RULES = 400 if BENCH_SMOKE else 2_000
TAILS = (0, 256, 1_024) if not BENCH_SMOKE else (0, 64, 256)  # writes
HISTORY = 1_024 if BENCH_SMOKE else 4_096  # total writes in the life


def _build_cluster(population):
    cluster = ClusterServer(
        Simulator(), shard_count=1, coalesce=False,
    )
    for rule in population.database.all_rules():
        cluster.register_rule(rule, validate=False)
    return cluster


def _toggle_step(cluster, population, size):
    """One measured step: ``size`` band-toggle writes queued, then one
    synchronous drain (= one WAL record when durability is on)."""
    values = (population.toggle_high, population.toggle_low)
    state = [0]

    def step():
        phase = state[0]
        for offset in range(size):
            cluster.ingest(
                population.hot_variable, values[(phase + offset) % 2])
        state[0] = (phase + size) % 2
        cluster.flush()

    return step


def _drive(cluster, population, writes):
    step = _toggle_step(cluster, population, BATCH)
    for _ in range(writes // BATCH):
        step()


# -- WAL append overhead -------------------------------------------------------


def test_wal_append_overhead_on_batched_ingest(tmp_path):
    """Acceptance: wal-enabled batched ingest within the overhead budget
    of the wal-disabled twin on the A9 band-sweep workload."""
    import gc

    population = build_columnar_population(RULES, seed=f"a11-{RULES}")
    cluster = _build_cluster(population)
    plane = DurabilityPlane(str(tmp_path), fsync_interval=FSYNC_INTERVAL)
    cluster.attach_durability(plane)
    step = _toggle_step(cluster, population, BATCH)
    for _ in range(3):
        step()  # prime atoms, file handles, page cache

    def measure():
        """One ABBA block: per-side sorted round times.  The toggle is
        the bus's durability hook itself — exactly the seam a disabled
        plane leaves as one ``None`` check per drain."""
        times = {True: [], False: []}
        gc.collect()
        gc.disable()
        try:
            for index in range(ROUNDS):
                order = (True, False) if index % 2 == 0 else (False, True)
                for flag in order:
                    cluster.bus._durability = plane if flag else None
                    start = perf_counter()
                    step()
                    times[flag].append(perf_counter() - start)
        finally:
            gc.enable()
            cluster.bus._durability = plane
        for values in times.values():
            values.sort()
        return times

    ratio = None
    for _ in range(3):
        times = measure()
        trimmed = {
            flag: sum(values[:TRIM]) / TRIM for flag, values in times.items()
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
        "A11",
        f"wal-enabled batch ingest @ {RULES} rules (batch {BATCH})",
        "overhead budget: <=10% over disabled", median[True],
    )
    report(
        "A11",
        f"wal-disabled batch ingest @ {RULES} rules "
        f"(batch {BATCH}, ablation)",
        "n/a (ablation)", median[False],
    )
    record_result(
        "A11", f"wal overhead @ {RULES} rules (percent)",
        max(0.0, (ratio - 1.0) * 100.0),
    )
    print(f"\n  [A11] wal overhead ratio (trimmed best {TRIM}/{ROUNDS} "
          f"ABBA rounds, best attempt): x{ratio:.4f} "
          f"(ceiling x{OVERHEAD_CEILING:g})")

    # Not vacuous: the enabled rounds really appended framed records.
    counters = cluster.bus.registry.snapshot()["counters"]
    assert counters["recovery.wal_records"] >= ROUNDS
    assert counters["recovery.wal_bytes"] > 0
    cluster.shutdown()

    assert ratio <= OVERHEAD_CEILING, (
        f"WAL append overhead x{ratio:.4f} over the disabled twin at "
        f"{RULES} rules (ceiling x{OVERHEAD_CEILING:g})"
    )


# -- recovery time -------------------------------------------------------------


def _timed_restore(directory, population):
    start = perf_counter()
    server, restore_report = restore_cluster(
        str(directory), Simulator(),
        list(population.database.all_rules()), attach=False,
    )
    elapsed = perf_counter() - start
    assert restore_report.ok()
    server.shutdown()
    return elapsed


def test_recovery_time_vs_tail_length(tmp_path):
    """Ledger rows: restore wall time for growing WAL tails, plus the
    cold full-replay baseline.  Acceptance: snapshot + short-tail
    restore beats replaying the whole history from scratch."""
    population = build_columnar_population(R_RULES, seed=f"a11-r{R_RULES}")
    restore_times = {}
    for tail in TAILS:
        directory = tmp_path / f"tail-{tail}"
        cluster = _build_cluster(population)
        cluster.attach_durability(
            DurabilityPlane(str(directory), fsync_interval=FSYNC_INTERVAL))
        _drive(cluster, population, HISTORY - tail)
        cluster.checkpoint()
        _drive(cluster, population, tail)
        # Abrupt kill: the tail past the checkpoint is replayed from the
        # WAL on restore.
        restore_times[tail] = min(
            _timed_restore(directory, population) for _ in range(3))
        report(
            "A11",
            f"restore @ {R_RULES} rules, wal tail {tail} writes",
            "recovery = snapshot overlay + tail replay",
            restore_times[tail],
        )

    def cold_replay():
        start = perf_counter()
        cluster = _build_cluster(population)
        _drive(cluster, population, HISTORY)
        elapsed = perf_counter() - start
        cluster.shutdown()
        return elapsed

    cold = min(cold_replay() for _ in range(3))
    report(
        "A11",
        f"cold full replay @ {R_RULES} rules, {HISTORY} writes",
        "n/a (no-snapshot baseline)", cold,
    )
    record_result(
        "A11",
        f"restore speedup over cold replay @ {R_RULES} rules (ratio)",
        cold / restore_times[TAILS[0]],
    )
    assert restore_times[TAILS[0]] < cold, (
        f"snapshot restore ({restore_times[TAILS[0]] * 1e3:.1f} ms) "
        f"should beat cold replay of {HISTORY} writes "
        f"({cold * 1e3:.1f} ms)"
    )
