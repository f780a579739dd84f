"""The output check every run ends with.

Each function returns a list of mismatch descriptions (empty when the
outputs are right); the runner counts every mismatch as a failed
operation and fails the run.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.engine import WorldState
from repro.core.rule import Rule


def reference_world(simulator, last_values: dict) -> WorldState:
    """A world holding the generator's last-written value of every
    variable, read at the simulator's current time."""
    world = WorldState(simulator)
    for variable, value in last_values.items():
        if isinstance(value, str):
            world.set_discrete(variable, value)
        elif isinstance(value, frozenset):
            world.set_set(variable, value)
        else:
            world.set_numeric(variable, float(value))
    return world


def check_truth(cluster, rules: Iterable[Rule], world) -> list[str]:
    """Every rule's served truth equals its condition evaluated by the
    seed semantics (``Condition.evaluate``) on the reference world."""
    mismatches = []
    for rule in rules:
        expected = rule.condition.evaluate(world)
        served = cluster.rule_truth(rule.name)
        if served != expected:
            mismatches.append(
                f"rule {rule.name}: served truth {served}, "
                f"reference {expected}")
    return mismatches


def action_span_count(telemetry: dict) -> int:
    histogram = telemetry["aggregate"]["histograms"].get("span.action_ms")
    return histogram["count"] if histogram else 0


def check_dispatch_count(dispatched: int, telemetry: dict) -> list[str]:
    """The parent received exactly the actions the shards recorded."""
    recorded = action_span_count(telemetry)
    if dispatched != recorded:
        return [f"parent dispatched {dispatched} actions, shards "
                f"recorded {recorded} action spans"]
    return []


def check_holders(cluster, devices: Iterable[str]) -> list[str]:
    """Each contested device has at most one holder, for that device,
    and the holding rule's condition is true."""
    mismatches = []
    for udn in devices:
        holder = cluster.holder_of(udn)
        if holder is None:
            continue
        name, spec = holder
        if spec.device_udn != udn:
            mismatches.append(f"device {udn}: holder {name} holds "
                              f"{spec.device_udn}")
        elif not cluster.rule_truth(name):
            mismatches.append(f"device {udn}: holder {name} is false")
    return mismatches


def check_stopped(clients: Iterable) -> list[str]:
    """After ``shutdown()`` every worker process has exited cleanly."""
    mismatches = []
    for client in clients:
        process = client.process
        if process.is_alive():
            mismatches.append(
                f"worker {client.worker_pid} outlived shutdown()")
        elif process.exitcode != 0:
            mismatches.append(
                f"worker {client.worker_pid} exited with "
                f"{process.exitcode}")
    return mismatches
