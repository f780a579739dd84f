"""A7 — cross-rule sharing: ingest vs template duplication, tick vs
window-rule count.

Real fleets are dominated by *templated* rules: the same vendor rule
pack stamped out per apartment, so atoms and whole conjunctions repeat
across hundreds of rules.  This benchmark shows the two hot paths
scaling with *distinct context* rather than rule count:

* **ingest** — a templated population (``templates`` distinct two-atom
  clauses × ``duplication`` copies) absorbs a shared-sensor toggle that
  flips every distinct atom while every clause stays false.  Clause
  sharing in the columnar state makes the cost O(templates), ~flat as
  duplication grows (gated below).
* **clock tick** — a dense window population (boundaries spread across
  the day).  The time-window wheel wakes only rules whose boundary a
  tick crossed: O(crossings).

The per-rule and per-tick ablations these rows were measured against
were deleted once their point was made; their last full-size ledger
rows stand as the comparison: per-rule ingest 18.06 ms vs 0.097 ms
shared at 100× duplication, per-tick re-evaluation 20.6 ms vs 0.077 ms
for the wheel at 4096 window rules.
"""

import pytest

from benchmarks.conftest import BENCH_SMOKE, median_seconds, report
from repro.core.engine import RuleEngine
from repro.core.priority import PriorityManager
from repro.sim.events import Simulator
from repro.workloads.rules import (
    build_templated_population,
    build_window_population,
)

TEMPLATES = 25 if BENCH_SMOKE else 50
# Full sweep peaks at the acceptance point (100× duplication).
DUPLICATIONS = (1, 20) if BENCH_SMOKE else (1, 10, 100)
WINDOW_SWEEP = (256, 1024) if BENCH_SMOKE else (512, 4096)

TICK_PERIOD = 60.0

MEDIANS: dict[tuple[str, int], float] = {}


def _discard(spec) -> None:
    pass


# -- ingest vs duplication -----------------------------------------------------


def _build_templated(duplication):
    population = build_templated_population(
        templates=TEMPLATES, duplication=duplication,
        seed=f"a7-{duplication}",
    )
    engine = RuleEngine(
        population.database, PriorityManager(), Simulator(),
        dispatch=_discard, max_trace=10_000,
    )
    for rule in population.database.all_rules():
        engine.rule_added(rule)
    # Prime: the first reading fans out to every atom; the sweep
    # measures the steady-state toggle.
    engine.ingest(population.hot_variable, population.toggle_low)
    engine.ingest(population.hot_variable, population.toggle_high)
    engine.ingest(population.hot_variable, population.toggle_low)
    return population, engine


@pytest.fixture(scope="module")
def templated_setups():
    return {
        duplication: _build_templated(duplication)
        for duplication in DUPLICATIONS
    }


def _toggling_ingest(engine, population):
    state = {"high": False}

    def step():
        state["high"] = not state["high"]
        engine.ingest(
            population.hot_variable,
            population.toggle_high if state["high"]
            else population.toggle_low,
        )

    return step


@pytest.mark.parametrize("duplication", DUPLICATIONS)
def test_shared_ingest(benchmark, templated_setups, duplication):
    population, engine = templated_setups[duplication]

    benchmark(_toggling_ingest(engine, population))

    median = median_seconds(benchmark)
    MEDIANS[("shared", duplication)] = median
    report("A7", f"shared-network ingest @ {duplication}x duplication "
                 f"({population.total_rules} rules)",
           "~flat in duplication factor", median)


def test_ingest_scaling_shape():
    """Acceptance: shared ingest ~flat across the duplication sweep."""
    needed = [("shared", duplication)
              for duplication in (DUPLICATIONS[0], DUPLICATIONS[-1])]
    if any(key not in MEDIANS for key in needed):
        pytest.skip("ingest sweep did not run (filtered?)")
    peak = DUPLICATIONS[-1]
    flatness = (
        MEDIANS[("shared", peak)] / MEDIANS[("shared", DUPLICATIONS[0])]
    )
    print(
        f"\n  [A7] shared ingest grew x{flatness:.2f} "
        f"across {DUPLICATIONS[0]}x -> {peak}x duplication"
    )
    assert flatness <= 3.0, (
        f"shared ingest grew x{flatness:.2f} across the duplication "
        "sweep (expected ~flat: cost tracks distinct templates)"
    )


# -- clock tick vs window-rule count -------------------------------------------


def _build_windows(count):
    population = build_window_population(count, seed=f"a7-w{count}")
    simulator = Simulator()
    engine = RuleEngine(
        population.database, PriorityManager(), simulator,
        dispatch=_discard, max_trace=10_000,
    )
    for rule in population.database.all_rules():
        engine.rule_added(rule)
    return simulator, engine


@pytest.fixture(scope="module")
def window_setups():
    return {count: _build_windows(count) for count in WINDOW_SWEEP}


def _ticking(simulator, engine):
    def step():
        simulator.run_until(simulator.now + TICK_PERIOD)
        engine.clock_tick()

    return step


@pytest.mark.parametrize("count", WINDOW_SWEEP)
def test_wheel_tick(benchmark, window_setups, count):
    simulator, engine = window_setups[count]

    benchmark(_ticking(simulator, engine))

    report("A7", f"wheel clock tick @ {count} window rules",
           "O(crossings)", median_seconds(benchmark))
