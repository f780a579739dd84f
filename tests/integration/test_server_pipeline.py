"""Integration tests: the registration pipeline and live execution over
real UPnP devices (no mocks anywhere)."""

import pytest

from repro.core.priority import PriorityOrder
from repro.errors import InconsistentRuleError
from repro.sim.clock import hhmm


class TestRegistrationPipeline:
    def test_simple_rule_registers_and_fires(self, stack):
        stack.session("Tom").submit(
            "If temperature is higher than 28 degrees, turn on the electric "
            "fan",
            rule_name="fan-rule",
        )
        living = stack.home.environment.room("living room")
        living.temperature = 30.0
        stack.run_for(120.0)  # a physics tick publishes the reading
        assert stack.home.fan.is_on

    def test_inconsistent_rule_rejected(self, stack):
        with pytest.raises(InconsistentRuleError):
            stack.session("Tom").submit(
                "If temperature is higher than 28 degrees and temperature is "
                "lower than 20 degrees, turn on the electric fan"
            )

    def test_conflicting_registration_reports(self, stack):
        stack.session("Alan").submit(
            "If temperature is higher than 25 degrees, turn on the air "
            "conditioner with 24 degrees of temperature setting",
            rule_name="alan-ac",
        )
        outcome = stack.session("Tom").submit(
            "If temperature is higher than 26 degrees, turn on the air "
            "conditioner with 25 degrees of temperature setting",
            rule_name="tom-ac",
        )
        assert len(outcome.conflicts) == 1
        assert outcome.conflicts[0].existing_rule == "alan-ac"

    def test_identical_actions_do_not_conflict(self, stack):
        stack.session("Alan").submit(
            "If temperature is higher than 25 degrees, turn on the electric "
            "fan",
            rule_name="alan-fan",
        )
        outcome = stack.session("Tom").submit(
            "If temperature is higher than 26 degrees, turn on the electric "
            "fan",
            rule_name="tom-fan",
        )
        assert outcome.conflicts == []

    def test_conflict_policy_invoked_once_per_uncovered_device(self):
        from tests.integration.conftest import Stack

        asked = []

        stack = Stack()
        stack.server.conflict_policy = lambda rule, reports: asked.append(
            (rule.name, [r.device_name for r in reports])
        ) or None
        stack.session("Alan").submit(
            "If temperature is higher than 25 degrees, turn on the air "
            "conditioner with 24 degrees of temperature setting",
            rule_name="alan-ac",
        )
        stack.session("Tom").submit(
            "If temperature is higher than 26 degrees, turn on the air "
            "conditioner with 25 degrees of temperature setting",
            rule_name="tom-ac",
        )
        assert asked == [("tom-ac", ["air conditioner"])]

    def test_rule_removal_stops_execution(self, stack):
        stack.session("Tom").submit(
            "If temperature is higher than 28 degrees, turn on the electric "
            "fan",
            rule_name="fan-rule",
        )
        stack.server.remove_rule("fan-rule")
        living = stack.home.environment.room("living room")
        living.temperature = 30.0
        stack.run_for(120.0)
        assert not stack.home.fan.is_on


class TestLiveExecution:
    def test_hall_light_on_return_when_dark(self, stack):
        stack.session("Tom").submit(
            "After evening, if someone returns home and the hall is dark, "
            "turn on the light at the hall",
            rule_name="hall-rule",
        )
        stack.simulator.run_until(hhmm(19))  # dark hall, evening
        stack.home.household.arrive_home("Tom", "work", "hall")
        assert stack.home.hall_light.is_on

    def test_hall_light_not_on_in_morning(self, stack):
        stack.session("Tom").submit(
            "After evening, if someone returns home and the hall is dark, "
            "turn on the light at the hall",
            rule_name="hall-rule",
        )
        stack.simulator.run_until(hhmm(9))
        stack.home.household.arrive_home("Tom", "errand", "hall")
        assert not stack.home.hall_light.is_on

    def test_alarm_after_door_unlocked_one_hour(self, stack):
        stack.session("Alan").submit(
            "At night, if entrance door is unlocked for 1 hour, turn on the "
            "alarm",
            rule_name="alarm-rule",
        )
        stack.simulator.run_until(hhmm(22))
        stack.home.door.service("lock").invoke("Unlock")
        stack.run_for(3700.0)
        assert stack.home.alarm.is_on

    def test_alarm_not_triggered_if_relocked(self, stack):
        stack.session("Alan").submit(
            "At night, if entrance door is unlocked for 1 hour, turn on the "
            "alarm",
            rule_name="alarm-rule",
        )
        stack.simulator.run_until(hhmm(22))
        stack.home.door.service("lock").invoke("Unlock")
        stack.run_for(1800.0)
        stack.home.door.service("lock").invoke("Lock")
        stack.run_for(3700.0)
        assert not stack.home.alarm.is_on

    def test_until_postcondition_stops_device(self, stack):
        stack.session("Tom").submit(
            "If someone is at the living room, turn on the floor lamp "
            "until 23:00",
            rule_name="lamp-curfew",
        )
        stack.simulator.run_until(hhmm(22))
        stack.home.household.arrive_home("Tom", "work", "living room")
        stack.run_for(120.0)
        assert stack.home.floor_lamp.is_on
        stack.simulator.run_until(hhmm(23, 2))
        assert not stack.home.floor_lamp.is_on

    def test_aircon_feedback_loop_cools_room(self, stack):
        stack.session("Tom").submit(
            "If temperature is higher than 28 degrees, turn on the air "
            "conditioner with 24 degrees of temperature setting",
            rule_name="cooling",
        )
        living = stack.home.environment.room("living room")
        living.temperature = 32.0
        stack.run_for(4 * 3600.0)
        assert stack.home.aircon.is_on
        assert living.temperature < 30.0  # feedback loop engaged

    def test_epg_keyword_triggers_tv(self, stack):
        from repro.home.sensors.epg import Program

        stack.home.epg.schedule(Program(
            title="cup final", channel=5,
            start=stack.simulator.now + 600.0,
            end=stack.simulator.now + 4200.0,
            keywords=("soccer",),
        ))
        stack.session("Alan").submit(
            "If I am in the living room and a soccer is on air, turn on the "
            "TV with 5 of channel setting",
            rule_name="soccer-rule",
        )
        stack.home.household.arrive_home("Alan", "work", "living room")
        assert not stack.home.tv.is_on
        stack.run_for(700.0)
        assert stack.home.tv.is_on
        assert stack.home.tv.channel == 5.0

    def test_tv_released_when_program_ends(self, stack):
        from repro.home.sensors.epg import Program

        stack.home.epg.schedule(Program(
            title="cup final", channel=5,
            start=stack.simulator.now + 60.0,
            end=stack.simulator.now + 600.0,
            keywords=("soccer",),
        ))
        stack.session("Alan").submit(
            "If I am in the living room and a soccer is on air, turn on the "
            "TV with 5 of channel setting",
            rule_name="soccer-rule",
        )
        stack.home.household.arrive_home("Alan", "work", "living room")
        stack.run_for(120.0)
        assert stack.server.engine.holder_of(stack.home.tv.udn) is not None
        stack.run_for(600.0)
        assert stack.server.engine.holder_of(stack.home.tv.udn) is None


class TestRuntimeArbitration:
    def test_priority_preemption_over_upnp(self, stack):
        stack.session("Tom").submit(
            "If I am in the living room, play the stereo with jazz of genre "
            "setting",
            rule_name="tom-jazz",
        )
        stack.session("Emily").submit(
            "If I am in the living room, play the stereo with classical of "
            "genre setting",
            rule_name="emily-classical",
        )
        stack.session("Emily").set_priority("stereo", ["Emily", "Tom"])
        stack.home.household.arrive_home("Tom", "school", "living room")
        stack.run_for(30.0)
        assert stack.home.stereo.get_state("player", "genre") == "jazz"
        stack.home.household.arrive_home("Emily", "shopping", "living room")
        stack.run_for(30.0)
        assert stack.home.stereo.get_state("player", "genre") == "classical"

    def test_context_scoped_priority_over_upnp(self, stack):
        stack.session("Tom").submit(
            "If I am in the living room, play the stereo with jazz of genre "
            "setting",
            rule_name="tom-jazz",
        )
        stack.session("Alan").submit(
            "If I am in the living room, play the stereo with opera of genre "
            "setting",
            rule_name="alan-opera",
        )
        stack.session("Alan").set_priority(
            "stereo", ["Alan", "Tom"], context="alan got home from work"
        )
        stack.home.household.arrive_home("Tom", "school", "living room")
        stack.run_for(30.0)
        # Alan arrives from SHOPPING: his work-context priority won't apply,
        # and with no applicable order the incumbent keeps the device.
        stack.home.household.arrive_home("Alan", "shopping", "living room")
        stack.run_for(30.0)
        assert stack.home.stereo.get_state("player", "genre") == "jazz"
