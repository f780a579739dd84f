"""Tests of the end-to-end benchmark's own machinery.

The workload runner itself (``run.py``) is not a test module, so a
plain ``pytest`` at the repository root collects only this file.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import json
import os

import pytest

from e2ebench import check, gen, layers, runner
from e2ebench.stats import percentile, spread
from e2ebench.tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(os.path.dirname(HERE), "BENCH_results.json")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _canonical(inputs: gen.Inputs) -> list:
    def rule(r):
        return (r.name, r.owner, r.condition.key(), r.action)
    return [
        [rule(r) for r in inputs.rules],
        [(o.device_udn, o.ranking, o.context.key()) for o in inputs.orders],
        sorted(inputs.initial, key=lambda write: write[0]),
        [(writes, None if churn is None else (churn[0], rule(churn[1])))
         for writes, churn in inputs.ticks],
    ]


@pytest.mark.parametrize("make", [
    lambda seed: gen.fleet_inputs(seed, homes=8, rules_per_home=20,
                                  building_rules=3, writes_per_tick=6),
    lambda seed: gen.contested_inputs(seed, homes=4, devices_per_home=3,
                                      residents=3, writes_per_tick=4),
], ids=["fleet", "contested"])
def test_generator_is_a_function_of_the_seed(make):
    def inputs(seed):
        generated = make(seed)
        generated.extend(20)
        generated.extend(10)
        return _canonical(generated)
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_benchmark_never_imports_repro_workloads():
    for directory, _, files in os.walk(os.path.join(HERE, "e2ebench")):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                for module in modules:
                    assert not module.startswith("repro.workloads"), name


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 1001), 0.99) == 990
    with pytest.raises(ValueError):
        percentile(range(1, 1000), 0.99)
    assert percentile(range(20), 0.5) == 9
    with pytest.raises(ValueError):
        percentile(range(19), 0.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_spread_reports_quartile_share():
    stats = spread([10.0, 11.0, 9.0, 10.0, 12.0, 8.0, 10.0, 10.0, 11.0, 9.0])
    assert stats["median"] == 10.0
    assert stats["q1"] == 9.0 and stats["q3"] == 11.0
    assert stats["iqr_share"] == pytest.approx(0.2)


def _nested_tracer() -> Tracer:
    """tick[0,100) > publish[5,15), flush[20,95) > apply[30,80) > action
    [40,45); a second tick[200,260) > publish[210,250)."""
    tracer = Tracer()
    rows = [("tick", 0, 100, -1, 0), ("bus.publish", 5, 15, 0, 0),
            ("bus.flush", 20, 95, 0, 0), ("engine.apply", 30, 80, 2, 0),
            ("action", 40, 45, 3, 0), ("tick", 200, 260, -1, 1),
            ("bus.publish", 210, 250, 5, 1)]
    for name, start, end, parent, tick in rows:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.ticks.append(tick)
    return tracer


def test_self_time_subtracts_direct_children():
    tracer = _nested_tracer()
    assert tracer.self_times() == [15, 10, 25, 45, 5, 20, 40]
    assert layers.tick_shares(tracer, tracer.self_times()) == \
        [0.15, pytest.approx(1 / 3)]
    breakdown = layers.tick_breakdown(tracer)
    assert breakdown["unaccounted"] == pytest.approx((15 + 20) / 2 / 1e3)
    assert breakdown["engine.apply"] == pytest.approx(45 / 2 / 1e3)
    assert sum(breakdown.values()) == pytest.approx((100 + 60) / 2 / 1e3)


def test_recorded_spans_nest():
    tracer = Tracer()
    outer = tracer.begin("tick")
    inner = tracer.begin("bus.publish")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.parents == [-1, 0]
    own = tracer.self_times()
    assert own[0] + own[1] == tracer.ends[0] - tracer.starts[0]


TINY = dataclasses.replace(
    runner.WORKLOADS["fleet-thread"], name="tiny", rate=200.0,
    closed_ticks_per_s=200,
    make=lambda seed: gen.fleet_inputs(
        seed, homes=4, rules_per_home=12, building_rules=3,
        writes_per_tick=4))
TINY_CHURN = dataclasses.replace(
    runner.WORKLOADS["churn-contested"], name="tiny-churn", rate=200.0,
    closed_ticks_per_s=400,
    make=lambda seed: gen.contested_inputs(
        seed, homes=3, devices_per_home=3, residents=3, writes_per_tick=4))


def test_output_check_catches_a_corrupted_truth_value():
    setup = runner.set_up(TINY, 3)
    try:
        ticks = runner.TickRunner(setup, 20, 20)
        ticks.open_loop(20, 1000.0)
        world = check.reference_world(setup.simulator, ticks.last_values())
        rules = ticks.live_rules()
        assert check.check_truth(setup.server, rules, world) == []
        victim = rules[5].name
        served = setup.server.rule_truth

        class Corrupted:
            def rule_truth(self, name):
                truth = served(name)
                return (not truth) if name == victim else truth

        mismatches = check.check_truth(Corrupted(), rules, world)
        assert len(mismatches) == 1 and victim in mismatches[0]
        telemetry = setup.server.telemetry()
        dispatched = len(setup.recorder.stamps)
        assert check.check_dispatch_count(dispatched, telemetry) == []
        assert check.check_dispatch_count(dispatched + 1, telemetry)
    finally:
        runner.tear_down(setup)


def _ledger_state():
    try:
        return os.stat(LEDGER).st_mtime_ns
    except FileNotFoundError:
        return None


@pytest.mark.parametrize("workload", [TINY, TINY_CHURN],
                         ids=["fleet", "churn"])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_small_run_passes_its_check_and_leaves_the_ledger_alone(
        workload, trace):
    before = _ledger_state()
    result = runner.run(workload, 5, 0.6, trace)
    assert result.correct, result.mismatches
    assert result.attempted > 0 and result.failed == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in result.metrics.items()} == \
        {metric["name"]: metric["unit"] for metric in listed}
    assert _ledger_state() == before


def test_benchmark_lists_only_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(runner.WORKLOADS)


def test_no_module_mentions_the_ledger():
    for directory, _, files in os.walk(HERE):
        for name in files:
            if name.endswith(".py") and not name.startswith("test_"):
                with open(os.path.join(directory, name),
                          encoding="utf-8") as f:
                    assert "BENCH_results" not in f.read(), name


def test_runner_stays_out_of_test_collection():
    """A root ``pytest`` has no ``testpaths`` and collects every
    ``test_*.py``/``*_test.py``: only this file may match."""
    matches = []
    for directory, _, files in os.walk(HERE):
        for name in files:
            if fnmatch.fnmatch(name, "test_*.py") or \
                    fnmatch.fnmatch(name, "*_test.py"):
                matches.append(name)
    assert matches == ["test_e2ebench.py"]
