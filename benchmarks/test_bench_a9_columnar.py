"""A9 — columnar batch ingest.

The columnar state keeps global atom truth, per-clause false-atom
counters and clause→rule fan-out in flat arrays (``repro.core.columnar``)
and sweeps a numeric write's whole candidate threshold window with one
vectorized comparison instead of a per-atom Python ``evaluate`` loop.
This benchmark measures that critical path on the worst-case band sweep:
a population of rules whose thresholds span one shared sensor variable,
driven by batches of writes that each jump across the entire band and
therefore flip *every* distinct threshold atom — while a shared
never-true companion atom keeps every clause false, isolating atom-flip
and clause-counter cost from rule evaluation and arbitration.

Two sweeps:

* **rule count** at a fixed batch size;
* **batch size** at the peak rule count — per-write cost should be ~flat
  in batch size (batching amortizes only call overhead; per-event
  semantics are preserved write by write), gated below.

The object-graph ablation these rows were measured against was deleted
once its point was made; its last full-size ledger row stands as the
comparison: 4559 ms per batch of 64 at 10k rules vs 70.4 ms columnar.

Counter rows (atoms flipped / clauses touched per batch) land in the
ledger alongside the timings so regressions in sweep *width* are as
visible as regressions in sweep *speed*.
"""

import pytest

from benchmarks.conftest import (
    BENCH_SMOKE,
    median_seconds,
    record_result,
    report,
)
from repro.core.engine import RuleEngine
from repro.core.priority import PriorityManager
from repro.sim.events import Simulator
from repro.workloads.rules import build_columnar_population

RULE_SWEEP = (1_000, 5_000) if BENCH_SMOKE else (1_000, 10_000, 20_000)
# Full-size acceptance point: 10k rules (20k only extends the rule-count
# sweep; the batch-size sweep would be needlessly slow there).
RULES_PEAK = 5_000 if BENCH_SMOKE else 10_000
BATCH_SIZE = 64
BATCH_SWEEP = (1,) if BENCH_SMOKE else (1, 256)

# Acceptance ceiling: the largest measured batch may cost at most this
# many times batch 1, per write (full ledger rows: 1.02 / 1.10 / 1.12 ms
# per write at batch 1 / 64 / 256).
PER_WRITE_GROWTH_CEILING = 2.0

MEDIANS: dict[tuple[int, int], float] = {}  # (rules, batch) -> s


def _discard(spec) -> None:
    pass


def _build(rules):
    population = build_columnar_population(rules, seed=f"a9-{rules}")
    engine = RuleEngine(
        population.database, PriorityManager(), Simulator(),
        dispatch=_discard, max_trace=10_000,
    )
    for rule in population.database.all_rules():
        engine.rule_added(rule)
    # Prime: the first reading initializes every atom; the sweep
    # measures the steady-state band jump.
    engine.ingest(population.hot_variable, population.toggle_low)
    engine.ingest(population.hot_variable, population.toggle_high)
    engine.ingest(population.hot_variable, population.toggle_low)
    return population, engine


@pytest.fixture(scope="module")
def setups():
    return {rules: _build(rules) for rules in RULE_SWEEP}


def _batched_ingest(engine, population, size):
    """One step = one ``ingest_batch`` of ``size`` band-jumping writes.

    Values alternate high/low starting opposite to where the previous
    step ended, so *every* write crosses the whole threshold band and
    odd batch sizes stay consistent across rounds.
    """
    values = (population.toggle_high, population.toggle_low)
    state = {"phase": 0}

    def step():
        phase = state["phase"]
        batch = [
            (population.hot_variable, values[(phase + offset) % 2])
            for offset in range(size)
        ]
        state["phase"] = (phase + size) % 2
        engine.ingest_batch(batch)

    return step


# -- ingest vs rule count ------------------------------------------------------


@pytest.mark.parametrize("rules", RULE_SWEEP)
def test_columnar_batch_ingest(benchmark, setups, rules):
    population, engine = setups[rules]

    benchmark(_batched_ingest(engine, population, BATCH_SIZE))

    median = median_seconds(benchmark)
    MEDIANS[(rules, BATCH_SIZE)] = median
    report("A9", f"columnar batch ingest @ {rules} rules "
                 f"(batch {BATCH_SIZE})",
           "vectorized threshold sweep", median)


# -- ingest vs batch size ------------------------------------------------------


@pytest.mark.parametrize("size", BATCH_SWEEP)
def test_columnar_batch_size(benchmark, setups, size):
    population, engine = setups[RULES_PEAK]

    benchmark(_batched_ingest(engine, population, size))

    median = median_seconds(benchmark)
    MEDIANS[(RULES_PEAK, size)] = median
    report("A9", f"columnar batch ingest @ batch {size} "
                 f"({RULES_PEAK} rules)",
           "per-write cost ~flat in batch size", median)


# -- sweep-width counters ------------------------------------------------------


def test_columnar_counters(setups):
    """Ledger rows for sweep *width*: atoms flipped and clauses touched
    per batch at the peak configuration (every write flips every distinct
    threshold atom, each sitting in one clause)."""
    population, engine = setups[RULES_PEAK]
    stats = engine.columnar_stats
    before = (stats.batches, stats.atoms_flipped, stats.clauses_touched)
    step = _batched_ingest(engine, population, BATCH_SIZE)
    for _ in range(4):
        step()
    batches = stats.batches - before[0]
    flipped = (stats.atoms_flipped - before[1]) / batches
    touched = (stats.clauses_touched - before[2]) / batches
    print(
        f"\n  [A9] per batch of {BATCH_SIZE} @ {RULES_PEAK} rules: "
        f"{flipped:.0f} atoms flipped, {touched:.0f} clauses touched"
    )
    assert flipped > 0 and touched > 0
    record_result(
        "A9", f"atoms flipped per batch @ {RULES_PEAK} rules (count)",
        flipped,
    )
    record_result(
        "A9", f"clauses touched per batch @ {RULES_PEAK} rules (count)",
        touched,
    )


# -- acceptance ----------------------------------------------------------------


def test_batch_scaling_shape():
    """Acceptance: per-write cost ~flat in batch size at the peak rule
    count — the largest measured batch costs at most
    ``PER_WRITE_GROWTH_CEILING`` times batch 1 per write."""
    per_write = {
        size: median / size
        for (rules, size), median in MEDIANS.items()
        if rules == RULES_PEAK
    }
    if 1 not in per_write or len(per_write) < 2:
        pytest.skip("batch sweep did not run (filtered?)")
    largest = max(per_write)
    growth = per_write[largest] / per_write[1]
    print(
        f"\n  [A9] per-write cost @ {RULES_PEAK} rules: batch {largest} "
        f"is x{growth:.2f} batch 1"
    )
    assert growth <= PER_WRITE_GROWTH_CEILING, (
        f"per-write cost at batch {largest} is x{growth:.2f} batch 1 "
        f"(ceiling x{PER_WRITE_GROWTH_CEILING:g})"
    )
