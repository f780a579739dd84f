"""Discovery, description and registry tests for the UPnP substrate."""

import pytest

from repro.errors import UPnPError
from repro.upnp import ssdp
from repro.upnp.registry import DeviceRecord, DeviceRegistry

from tests.upnp.conftest import make_lamp, make_thermometer


class TestSearch:
    def test_search_all_finds_every_device(self, sim, bus, lamp, thermometer,
                                            control_point):
        records = control_point.search(ssdp.ST_ALL)
        names = {r.friendly_name for r in records}
        assert names == {"floor lamp", "thermometer"}

    def test_search_by_device_type(self, sim, bus, lamp, thermometer, control_point):
        records = control_point.search("urn:repro:device:Lamp:1")
        assert [r.friendly_name for r in records] == ["floor lamp"]

    def test_search_by_service_type(self, sim, bus, lamp, thermometer, control_point):
        records = control_point.search("urn:repro:service:TemperatureSensor:1")
        assert [r.friendly_name for r in records] == ["thermometer"]

    def test_search_by_udn(self, sim, bus, lamp, control_point):
        records = control_point.search(f"uuid:{lamp.udn}")
        assert [r.udn for r in records] == [lamp.udn]

    def test_search_no_match_returns_empty(self, sim, bus, lamp, control_point):
        assert control_point.search("urn:repro:device:Toaster:1") == []

    def test_search_populates_registry(self, sim, bus, lamp, control_point):
        control_point.search(ssdp.ST_ALL)
        assert lamp.udn in control_point.registry

    def test_detached_device_not_found(self, sim, bus, lamp, control_point):
        lamp.detach()
        sim.run()
        assert control_point.search(ssdp.ST_ALL) == []

    def test_byebye_evicts_from_registry(self, sim, bus, lamp, control_point):
        control_point.search(ssdp.ST_ALL)
        assert lamp.udn in control_point.registry
        lamp.detach()
        sim.run()
        assert lamp.udn not in control_point.registry


class TestFindHelpers:
    def test_find_by_name_searches_lazily(self, sim, bus, lamp, control_point):
        record = control_point.find_by_name("floor lamp")
        assert record.udn == lamp.udn

    def test_find_by_name_case_insensitive(self, sim, bus, lamp, control_point):
        assert control_point.find_by_name("Floor Lamp").udn == lamp.udn

    def test_find_by_name_unknown_raises(self, sim, bus, control_point):
        with pytest.raises(UPnPError):
            control_point.find_by_name("teleporter")

    def test_find_by_service(self, sim, bus, lamp, thermometer, control_point):
        records = control_point.find_by_service("urn:repro:service:SwitchPower:1")
        assert [r.friendly_name for r in records] == ["floor lamp"]


class TestDescription:
    def test_description_contains_services(self, sim, bus, lamp, control_point):
        record = control_point.describe(lamp.address)
        assert record.friendly_name == "floor lamp"
        assert record.service_ids() == ["power"]
        power = record.service_description("power")
        action_names = {a["name"] for a in power["actions"]}
        assert action_names == {"TurnOn", "TurnOff"}

    def test_description_variables_carry_ranges(self, sim, bus, lamp, control_point):
        record = control_point.describe(lamp.address)
        level = next(
            v for v in record.service_description("power")["variables"]
            if v["name"] == "level"
        )
        assert level["minimum"] == 0.0
        assert level["maximum"] == 100.0
        assert level["unit"] == "%"

    def test_describe_offline_address_raises(self, sim, bus, control_point):
        with pytest.raises(UPnPError):
            control_point.describe("dev:ghost")

    def test_unknown_service_description_raises(self, sim, bus, lamp, control_point):
        record = control_point.describe(lamp.address)
        with pytest.raises(UPnPError):
            record.service_description("nope")


class TestRegistry:
    def _record(self, name="lamp", location="hall", keywords=("light",),
                device_type="urn:repro:device:Lamp:1", udn="u1"):
        return DeviceRecord.from_description(
            {
                "udn": udn,
                "address": f"dev:{udn}",
                "friendly_name": name,
                "device_type": device_type,
                "location": location,
                "category": "appliance",
                "keywords": list(keywords),
                "services": [
                    {"service_type": "urn:repro:service:SwitchPower:1",
                     "service_id": "power", "variables": [], "actions": []}
                ],
            }
        )

    def test_add_and_lookup_by_every_index(self):
        registry = DeviceRegistry()
        registry.add(self._record())
        assert len(registry.by_name("LAMP")) == 1
        assert len(registry.by_device_type("urn:repro:device:Lamp:1")) == 1
        assert len(registry.by_service_type("urn:repro:service:SwitchPower:1")) == 1
        assert len(registry.by_location("Hall")) == 1
        assert len(registry.by_keyword("Light")) == 1
        assert len(registry.by_category("appliance")) == 1

    def test_replace_on_re_add(self):
        registry = DeviceRegistry()
        registry.add(self._record(location="hall"))
        registry.add(self._record(location="kitchen"))
        assert len(registry) == 1
        assert registry.by_location("hall") == []
        assert len(registry.by_location("kitchen")) == 1

    def test_remove_cleans_every_index(self):
        registry = DeviceRegistry()
        registry.add(self._record())
        registry.remove("u1")
        assert len(registry) == 0
        assert registry.by_name("lamp") == []
        assert registry.by_keyword("light") == []

    def test_remove_unknown_is_noop(self):
        registry = DeviceRegistry()
        registry.remove("ghost")  # must not raise

    def test_get_unknown_raises(self):
        with pytest.raises(UPnPError):
            DeviceRegistry().get("ghost")

    def test_missing_description_fields_rejected(self):
        with pytest.raises(UPnPError):
            DeviceRecord.from_description({"udn": "x"})

    def test_scan_matches_indexed_lookup(self):
        registry = DeviceRegistry()
        for i in range(20):
            registry.add(self._record(name=f"lamp-{i % 3}", udn=f"u{i}"))
        assert {r.udn for r in registry.all()
                if r.friendly_name.lower() == "lamp-1"} == {
            r.udn for r in registry.by_name("lamp-1")
        }


class TestFiftyDevicePopulation:
    """The E1 experiment shape: 50 virtual devices, name/service retrieval."""

    @pytest.fixture
    def population(self, sim, bus):
        devices = []
        for i in range(25):
            device = make_lamp(f"lamp-{i:02d}", location=f"room-{i % 5}")
            device.attach(bus, sim)
            devices.append(device)
        for i in range(25):
            device = make_thermometer(f"thermo-{i:02d}", location=f"room-{i % 5}")
            device.attach(bus, sim)
            devices.append(device)
        return devices

    def test_search_all_finds_fifty(self, sim, bus, population, control_point):
        assert len(control_point.search(ssdp.ST_ALL)) == 50

    def test_retrieval_by_name_unique(self, sim, bus, population, control_point):
        control_point.search(ssdp.ST_ALL)
        record = control_point.find_by_name("lamp-17")
        assert record.friendly_name == "lamp-17"

    def test_retrieval_by_service_returns_half(self, sim, bus, population,
                                               control_point):
        control_point.search(ssdp.ST_ALL)
        records = control_point.find_by_service(
            "urn:repro:service:TemperatureSensor:1"
        )
        assert len(records) == 25
