"""A1 — ablation: satisfiability backends on the E2 workload.

Compares, per single pairwise check (one product of 4 inequalities):

* the interval-propagation fast path (our default);
* the two-phase Simplex (the paper's prototype used a C Simplex
  library).

The sampling baseline (cheap but incomplete) was deleted once its point
was made; its last full-size ledger row stands as the comparison:
0.256 ms per check with 64 samples, 0/54 conflicts missed, against
0.014 ms for the interval path and 0.093 ms for Simplex.
"""

import pytest

from benchmarks.conftest import median_seconds, report
from repro.core.satisfiability import conditions_jointly_satisfiable
from repro.workloads.rules import build_rule_population

PAIRS = 64


@pytest.fixture(scope="module")
def condition_pairs():
    population = build_rule_population(total_rules=PAIRS + 1,
                                       same_device_rules=PAIRS + 1,
                                       device_count=2, seed="a1-pairs")
    rules = population.database.all_rules()
    probe = rules[0]
    return [(probe.condition, other.condition) for other in rules[1:]]


def test_interval_fast_path(benchmark, condition_pairs):
    def run():
        return [
            conditions_jointly_satisfiable(a, b, prefer_intervals=True)
            for a, b in condition_pairs
        ]

    verdicts = benchmark(run)
    per_check = median_seconds(benchmark) / len(condition_pairs)
    report("A1", f"interval fast path ({len(condition_pairs)} checks; "
                 f"{sum(verdicts)} joint-sat)",
           "n/a (ablation)", per_check)


def test_simplex_backend(benchmark, condition_pairs):
    def run():
        return [
            conditions_jointly_satisfiable(a, b, prefer_intervals=False)
            for a, b in condition_pairs
        ]

    verdicts = benchmark(run)
    per_check = median_seconds(benchmark) / len(condition_pairs)
    report("A1", f"two-phase Simplex ({len(condition_pairs)} checks; "
                 f"{sum(verdicts)} joint-sat)",
           "0.002 ms/check (C library)", per_check)


def test_backends_agree(condition_pairs):
    """Correctness side of the ablation: exact backends always agree."""
    for first, second in condition_pairs:
        assert conditions_jointly_satisfiable(
            first, second, prefer_intervals=True
        ) == conditions_jointly_satisfiable(
            first, second, prefer_intervals=False
        )
