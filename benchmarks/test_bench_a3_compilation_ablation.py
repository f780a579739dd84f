"""A3 — ablation: compiled rule objects vs CADEL interpretation.

Paper Sect. 4.1: "The rule execution module does not executes rules by
interpreting CADEL descriptions, but ... a CADEL description is
expressed as equivalent a 'rule object'".  This benchmark measures the
compiled side: evaluating a compiled condition against the world state.

The interpreting arm (re-parse + re-bind the CADEL sentence on every
evaluation) was deleted once its point was made; its last full-size
ledger rows stand as the comparison: 92.4 ms against 0.97 ms compiled
per 200 evaluations.
"""

import pytest

from benchmarks.conftest import median_seconds, report
from repro.cadel.binding import Binder, HomeDirectory
from repro.cadel.compiler import RuleCompiler
from repro.cadel.parser import CadelParser
from repro.home.environment import Room
from repro.home.sensors import Hygrometer, Thermometer
from repro.upnp.registry import DeviceRecord, DeviceRegistry

RULE_TEXT = (
    "If humidity is higher than 80 percent and temperature is higher than "
    "28 degrees, turn on the air conditioner with 25 degrees of temperature "
    "setting."
)
EVALUATIONS = 200


class _Ctx:
    """Minimal evaluation context over two fixed sensor readings."""

    def __init__(self, values):
        self._values = values

    def numeric(self, variable):
        return self._values.get(variable)

    def discrete(self, variable):
        return None

    def set_members(self, variable):
        return frozenset()

    def time_of_day(self):
        return 0.0

    def weekday(self):
        return 0

    def event_fired(self, event_type, subject):
        return False

    def held(self, key, currently_true, duration):
        return currently_true


@pytest.fixture(scope="module")
def setup():
    from repro.home.appliances import AirConditioner

    living = Room("living room")
    registry = DeviceRegistry()
    thermometer = Thermometer("thermometer", living)
    hygrometer = Hygrometer("hygrometer", living)
    for device in (thermometer, hygrometer,
                   AirConditioner("air conditioner", location="living room")):
        registry.add(DeviceRecord.from_description(device.describe()))
    directory = HomeDirectory(users=["Tom"], current_user="Tom")
    binder = Binder(registry, directory)
    values = {
        f"{thermometer.udn}:temperature:temperature": 30.0,
        f"{hygrometer.udn}:humidity:humidity": 85.0,
    }
    return binder, _Ctx(values)


def test_compiled_rule_object_evaluation(benchmark, setup):
    binder, ctx = setup
    ruledef = CadelParser().parse(RULE_TEXT)
    rule = RuleCompiler(binder).compile_rule(ruledef, name="r", owner="Tom")

    def run():
        hits = 0
        for _ in range(EVALUATIONS):
            if rule.condition.evaluate(ctx):
                hits += 1
        return hits

    hits = benchmark(run)
    assert hits == EVALUATIONS
    report("A3", f"compiled rule object, {EVALUATIONS} evaluations",
           "n/a (the framework's choice)",
           median_seconds(benchmark))
