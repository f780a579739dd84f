"""Tests for household persistence across a simulated server restart."""

import json

import pytest

from repro.errors import ArchiveError, RuleError
from repro.support.persistence import (
    restore_household,
    save_household,
)
from tests.stack import Stack


def populated_stack():
    stack = Stack()
    tom = stack.session("Tom")
    tom.submit(
        "Let's call the condition that temperature is higher than 26 "
        "degrees and humidity is over 65 percent hot and stuffy"
    )
    tom.submit(
        'If I am in the living room and the living room is "hot and '
        'stuffy", turn on the air conditioner with 25 degrees of '
        "temperature setting",
        rule_name="tom-climate",
    )
    alan = stack.session("Alan")
    alan.submit(
        "If I am in the living room, play the stereo with opera of genre "
        "setting",
        rule_name="alan-opera",
    )
    alan.set_priority("stereo", ["Alan", "Tom"],
                      context="alan got home from work")
    tom.shared_words.define_condition(
        "sweltering",
        tom.parser.parse_condition("temperature is higher than 30 degrees"),
    )
    return stack


class TestSaveRestore:
    def test_round_trip_restores_everything(self):
        old = populated_stack()
        sessions = {name: old.session(name) for name in ("Tom", "Alan")}
        archive = save_household(old.server, sessions)

        fresh = Stack()  # the "rebooted" server: new UDNs everywhere
        fresh_sessions = {name: fresh.session(name)
                          for name in ("Tom", "Alan")}
        report = restore_household(fresh_sessions, archive)

        assert report.ok()
        assert report.rules_restored == 2
        assert report.priorities_restored == 1
        assert "tom-climate" in fresh.server.database
        assert "alan-opera" in fresh.server.database
        # Personal word survived and is usable.
        assert fresh.session("Tom").words.has_condition("hot and stuffy")
        # Shared word survived.
        assert fresh.session("Alan").words.has_condition("sweltering")
        # Priority order re-bound to the *new* stereo UDN.
        stereo_udn = fresh.home.stereo.udn
        orders = fresh.server.priorities.orders_for_device(stereo_udn)
        assert len(orders) == 1
        assert orders[0].ranking == ("Alan", "Tom")

    def test_restored_rules_execute(self):
        old = populated_stack()
        archive = save_household(
            old.server, {name: old.session(name) for name in ("Tom", "Alan")}
        )
        fresh = Stack()
        restore_household(
            {name: fresh.session(name) for name in ("Tom", "Alan")}, archive
        )
        living = fresh.home.environment.room("living room")
        living.temperature, living.humidity = 31.0, 80.0
        fresh.home.household.arrive_home("Tom", "school", "living room")
        fresh.run_for(180.0)
        assert fresh.home.aircon.is_on
        assert fresh.home.aircon.target_temperature == 25.0

    def test_missing_user_reported_not_fatal(self):
        old = populated_stack()
        archive = save_household(
            old.server, {name: old.session(name) for name in ("Tom", "Alan")}
        )
        fresh = Stack()
        report = restore_household({"Tom": fresh.session("Tom")}, archive)
        assert not report.ok()
        assert ("alan-opera", "no session for user 'Alan'") in [
            (name, reason) for name, reason in report.rules_failed
        ]
        assert report.rules_restored == 1

    def test_bad_format_rejected(self):
        fresh = Stack()
        with pytest.raises(RuleError, match="format"):
            restore_household({"Tom": fresh.session("Tom")},
                              '{"format": "bogus"}')

    @pytest.mark.parametrize("incremental", (True, False))
    def test_restored_rules_wake_on_ingest(self, incremental):
        """A restored rule must be fully indexed by the (incremental)
        engine: a direct sensor ingest through the public server API
        wakes it with no device traffic involved."""
        old = populated_stack()
        archive = save_household(
            old.server, {name: old.session(name) for name in ("Tom", "Alan")}
        )
        fresh = Stack(incremental=incremental)
        report = restore_household(
            {name: fresh.session(name) for name in ("Tom", "Alan")}, archive
        )
        assert report.ok()
        rule = fresh.server.database.get("tom-climate")
        assert fresh.server.engine.rule_truth("tom-climate") is False
        # Satisfy every referenced variable directly: numerics high
        # (the rule wants temperature > 26 and humidity > 65), Tom's
        # place set to the bound room.
        for variable in sorted(rule.condition.referenced_variables()):
            if variable in rule.condition.numeric_variables():
                fresh.server.ingest(variable, 99.0)
            else:
                fresh.server.ingest(variable, "living room")
        assert fresh.server.engine.rule_truth("tom-climate") is True
        holder = fresh.server.engine.holder_of(fresh.home.aircon.udn)
        assert holder is not None and holder[0] == "tom-climate"

    def test_rule_removal_mid_stream_prunes_every_bucket(self):
        """Removing a restored rule while sensor events keep flowing must
        prune every index bucket (variable watches, engine plans and
        watches, its columnar clause table) and leave the surviving
        rules live."""
        old = populated_stack()
        archive = save_household(
            old.server, {name: old.session(name) for name in ("Tom", "Alan")}
        )
        fresh = Stack()
        assert restore_household(
            {name: fresh.session(name) for name in ("Tom", "Alan")}, archive
        ).ok()
        server = fresh.server
        doomed = server.database.get("tom-climate")
        variables = sorted(doomed.condition.referenced_variables())
        numeric = doomed.condition.numeric_variables()

        def pump(value):
            for variable in variables:
                server.ingest(
                    variable, value if variable in numeric else "living room"
                )

        pump(99.0)
        assert server.engine.rule_truth("tom-climate") is True
        server.remove_rule("tom-climate")
        pump(98.0)  # events keep flowing after removal
        pump(1.0)

        database = server.database
        engine = server.engine
        assert "tom-climate" not in database
        for watchers in database._var_watch.values():
            assert "tom-climate" not in watchers
        assert "tom-climate" not in engine._plans
        assert "tom-climate" not in engine._watch_vars
        state = engine._columnar
        assert "tom-climate" not in state._tables
        assert "tom-climate" not in state._rule_atoms
        for subscribers in state._clause_subs:
            assert "tom-climate" not in subscribers
        for rules in engine._held_atom_rules.values():
            assert "tom-climate" not in rules
        # The survivor still arbitrates normally on the live stream.
        fresh.home.household.arrive_home("Alan", "work", "living room")
        fresh.run_for(120.0)
        assert server.engine.rule_truth("alan-opera") is True

    def test_unbindable_rule_reported(self):
        """A rule naming a device the new home lacks fails cleanly."""
        fresh = Stack()
        archive = json.dumps({
            "format": "cadel-household/1",
            "users": {
                "Tom": {
                    "rules": [
                        {"name": "ghost", "text": "turn on the jacuzzi"}
                    ],
                    "condition_words": {},
                    "configuration_words": {},
                }
            },
            "shared_condition_words": {},
            "shared_configuration_words": {},
            "priorities": [],
        })
        report = restore_household({"Tom": fresh.session("Tom")}, archive)
        assert not report.ok()
        assert report.rules_failed[0][0] == "ghost"
        assert "no device" in report.rules_failed[0][1]


class TestDamagedArchives:
    """A power cut can hand the restore path anything: truncated JSON,
    the wrong document shape, items that no longer parse or bind.  The
    typed boundary is ArchiveError for undecodable documents; everything
    inside a well-formed archive degrades per item."""

    def test_truncated_archive_raises_archive_error(self):
        old = populated_stack()
        sessions = {name: old.session(name) for name in ("Tom", "Alan")}
        archive = save_household(old.server, sessions)
        fresh = Stack()
        with pytest.raises(ArchiveError, match="not valid JSON"):
            restore_household(
                {"Tom": fresh.session("Tom")}, archive[:len(archive) // 2])

    def test_archive_error_is_a_rule_error(self):
        # Callers predating the typed error catch RuleError; the new
        # class must keep slotting into those handlers.
        assert issubclass(ArchiveError, RuleError)

    def test_non_object_archive_rejected(self):
        fresh = Stack()
        with pytest.raises(ArchiveError, match="JSON object"):
            restore_household({"Tom": fresh.session("Tom")}, "[1, 2, 3]")

    def test_restore_needs_at_least_one_session(self):
        old = populated_stack()
        archive = save_household(
            old.server, {name: old.session(name) for name in ("Tom", "Alan")}
        )
        with pytest.raises(ArchiveError, match="no authoring sessions"):
            restore_household({}, archive)

    def test_unparseable_word_reported_not_fatal(self):
        old = populated_stack()
        archive = json.loads(save_household(
            old.server, {name: old.session(name) for name in ("Tom", "Alan")}
        ))
        archive["shared_condition_words"]["mangled"] = "zxqv blorp &&&"
        fresh = Stack()
        report = restore_household(
            {name: fresh.session(name) for name in ("Tom", "Alan")},
            json.dumps(archive),
        )
        assert not report.ok()
        assert [word for word, _reason in report.words_failed] == ["mangled"]
        # Everything else still restored around the damage.
        assert report.rules_restored == 2
        assert fresh.session("Alan").words.has_condition("sweltering")

    def test_priority_for_vanished_device_reported(self):
        old = populated_stack()
        archive = json.loads(save_household(
            old.server, {name: old.session(name) for name in ("Tom", "Alan")}
        ))
        archive["priorities"].append({
            "device": "jacuzzi", "ranking": ["Tom", "Alan"], "context": None,
        })
        fresh = Stack()
        report = restore_household(
            {name: fresh.session(name) for name in ("Tom", "Alan")},
            json.dumps(archive),
        )
        assert not report.ok()
        assert [device for device, _ in report.priorities_failed] \
            == ["jacuzzi"]
        assert report.priorities_restored == 1  # the stereo order survived

    def test_save_to_path_commits_atomically(self, tmp_path):
        old = populated_stack()
        sessions = {name: old.session(name) for name in ("Tom", "Alan")}
        path = tmp_path / "household.json"
        path.write_text("previous archive")
        document = save_household(old.server, sessions, path=str(path))
        assert path.read_text() == document
        assert list(tmp_path.iterdir()) == [path]  # no temp litter
        fresh = Stack()
        report = restore_household(
            {name: fresh.session(name) for name in ("Tom", "Alan")},
            path.read_text(),
        )
        assert report.ok()
