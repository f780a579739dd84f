"""Golden trace text: one scripted home, every decision kind, exact text.

The twin suites compare two engine configurations that share one trace
writer, so a change in how a decision is *recorded* or *formatted* would
pass them unnoticed.  This file pins the text itself: a scripted home
with a priority order, a fallback, a preemption, a no-order conflict,
an ``until`` stop, a failed access check and a failing dispatch, whose
``describe()`` lines and ``runtime_snapshot()["trace"]`` rows are spelled
out below verbatim.  A snapshot's trace restores to the same text.

The rows are spelled out as an older engine recorded them, when a
DENIED rule retried arbitration on every write to a variable it reads:
that engine also logged a second ``conflict``/``deny`` pair for
``bright`` at t=60, a retry on an unrelated temperature write.  A DENIED
rule now waits for a re-arbitration trigger, so the live trace is those
rows without that pair, and the restore test restores all of them.
"""

import json

import pytest

from repro.core.access import AccessDeniedError
from repro.core.action import ActionSpec, Setting
from repro.core.database import RuleDatabase
from repro.core.engine import RuleEngine
from repro.core.priority import PriorityManager, PriorityOrder
from repro.errors import ActionError
from repro.sim.events import Simulator

from tests.core.conftest import in_room, make_rule, temp_above


def _spec(udn, name, act, verb, **settings):
    return ActionSpec(
        device_udn=udn, device_name=name, service_id="svc",
        action_name=act,
        settings=tuple(Setting(k, v) for k, v in sorted(settings.items())),
        verb_text=verb,
    )


TV = _spec("tv-1", "TV", "TurnOn", "turn on", channel=4)
TV_NEWS = _spec("tv-1", "TV", "TurnOn", "turn on", channel=1)
TV_OFF = _spec("tv-1", "TV", "TurnOff", "turn off")
RECORDER = _spec("vcr-1", "video recorder", "Record", "record")
LAMP_ON = _spec("lamp-1", "lamp", "SetLevel", "dim", level=30)
LAMP_OFF = _spec("lamp-1", "lamp", "SetLevel", "brighten", level=90)
FAN = _spec("fan-1", "ceiling fan", "TurnOn", "")
DOOR = _spec("door-1", "front door", "Unlock", "unlock")


def _dispatch(spec):
    if spec.device_udn == "fan-1":
        raise ActionError(spec.device_name, spec.action_name, "device offline")


def _access_check(rule, spec):
    if spec.device_udn == "door-1":
        raise AccessDeniedError(rule.owner, spec.device_name, spec.action_name)


def _live():
    """Run the scripted home; returns its engine."""
    simulator = Simulator()
    database = RuleDatabase()
    priorities = PriorityManager()
    engine = RuleEngine(database, priorities, simulator, dispatch=_dispatch,
                        access_check=_access_check)
    priorities.add_order(PriorityOrder(
        "tv-1", ("Alan", "Tom"), label="Alan got home from work"))
    for rule in (
        make_rule("tom-tv", "Tom", in_room("Tom"), TV_NEWS,
                  fallback=RECORDER, stop_action=TV_OFF),
        make_rule("alan-tv", "Alan", in_room("Alan"), TV),
        make_rule("kid-tv", "Kid", in_room("Kid"), TV_NEWS,
                  fallback=RECORDER),
        make_rule("gran-tv", "Gran", in_room("Gran"), TV),
        make_rule("dim", "Tom", temp_above(20), LAMP_ON,
                  until=temp_above(30)),
        make_rule("bright", "Alan", temp_above(25), LAMP_OFF),
        make_rule("fan", "Tom", temp_above(27), FAN),
        make_rule("door", "Kid", in_room("Kid", "hall"), DOOR),
    ):
        database.add(rule)
        engine.rule_added(rule)

    def at(when, variable, value):
        simulator.run_until(when)
        engine.ingest(variable, value)

    at(10.0, "person:Tom:place", "living room")     # fire
    at(20.5, "person:Alan:place", "living room")    # preempt, fallback
    at(30.0, "person:Gran:place", "living room")    # deny
    at(40.25, "thermo:t:temperature", 22.0)         # fire (lamp)
    at(50.0, "thermo:t:temperature", 26.0)          # no-order conflict
    at(60.0, "thermo:t:temperature", 28.0)          # failing dispatch, no retry
    at(70.0, "thermo:t:temperature", 31.0)          # until stop
    at(80.0, "person:Alan:place", "kitchen")        # stop, ordered regrant
    at(90.0, "person:Kid:place", "living room")     # fallback on a loss
    at(100.0, "person:Kid:place", "hall")           # access denied
    return engine


RECORDED_TEXT = [
    "t=     10.0 fire     tom-tv [tv-1] — turn on the TV with 1 of channel setting",
    "t=     20.5 preempt  tom-tv [tv-1] — preempted by 'alan-tv'",
    "t=     20.5 fallback tom-tv [tv-1] — preempted; trying record the video recorder",
    "t=     20.5 fire     alan-tv [tv-1] — turn on the TV with 4 of channel setting (order: Alan > Tom (when Alan got home from work))",
    "t=     20.5 fire     tom-tv [vcr-1] — record the video recorder",
    "t=     30.0 deny     gran-tv [tv-1] — lost to 'alan-tv'",
    "t=     40.2 fire     dim [lamp-1] — dim the lamp with 30 of level setting",
    "t=     50.0 conflict bright [lamp-1] — no applicable priority order; prompting",
    "t=     50.0 deny     bright [lamp-1] — lost to 'dim'",
    "t=     60.0 fire     fan [fan-1] — TurnOn the ceiling fan",
    "t=     60.0 error    fan [fan-1] — dispatch failed: action 'TurnOn' on device 'ceiling fan' failed: device offline",
    "t=     60.0 conflict bright [lamp-1] — no applicable priority order; prompting",
    "t=     60.0 deny     bright [lamp-1] — lost to 'dim'",
    "t=     70.0 stop     dim — until condition met",
    "t=     70.0 fire     bright [lamp-1] — brighten the lamp with 90 of level setting",
    "t=     80.0 stop     alan-tv — condition no longer holds",
    "t=     80.0 fire     tom-tv [tv-1] — turn on the TV with 1 of channel setting (order: Alan > Tom (when Alan got home from work))",
    "t=     90.0 fallback kid-tv [tv-1] — lost 'TV' to 'tom-tv'; trying record the video recorder",
    "t=     90.0 fire     kid-tv [vcr-1] — record the video recorder",
    "t=    100.0 stop     kid-tv — condition no longer holds",
    "t=    100.0 fire     door [door-1] — unlock the front door",
    "t=    100.0 error    door [door-1] — access denied: user 'Kid' is not allowed to perform 'Unlock' on device 'front door'",
]

RECORDED_SNAPSHOT = [
    [10.0, "fire", "tom-tv", "tv-1", "turn on the TV with 1 of channel setting"],
    [20.5, "preempt", "tom-tv", "tv-1", "preempted by 'alan-tv'"],
    [20.5, "fallback", "tom-tv", "tv-1", "preempted; trying record the video recorder"],
    [20.5, "fire", "alan-tv", "tv-1", "turn on the TV with 4 of channel setting (order: Alan > Tom (when Alan got home from work))"],
    [20.5, "fire", "tom-tv", "vcr-1", "record the video recorder"],
    [30.0, "deny", "gran-tv", "tv-1", "lost to 'alan-tv'"],
    [40.25, "fire", "dim", "lamp-1", "dim the lamp with 30 of level setting"],
    [50.0, "conflict", "bright", "lamp-1", "no applicable priority order; prompting"],
    [50.0, "deny", "bright", "lamp-1", "lost to 'dim'"],
    [60.0, "fire", "fan", "fan-1", "TurnOn the ceiling fan"],
    [60.0, "error", "fan", "fan-1", "dispatch failed: action 'TurnOn' on device 'ceiling fan' failed: device offline"],
    [60.0, "conflict", "bright", "lamp-1", "no applicable priority order; prompting"],
    [60.0, "deny", "bright", "lamp-1", "lost to 'dim'"],
    [70.0, "stop", "dim", "", "until condition met"],
    [70.0, "fire", "bright", "lamp-1", "brighten the lamp with 90 of level setting"],
    [80.0, "stop", "alan-tv", "", "condition no longer holds"],
    [80.0, "fire", "tom-tv", "tv-1", "turn on the TV with 1 of channel setting (order: Alan > Tom (when Alan got home from work))"],
    [90.0, "fallback", "kid-tv", "tv-1", "lost 'TV' to 'tom-tv'; trying record the video recorder"],
    [90.0, "fire", "kid-tv", "vcr-1", "record the video recorder"],
    [100.0, "stop", "kid-tv", "", "condition no longer holds"],
    [100.0, "fire", "door", "door-1", "unlock the front door"],
    [100.0, "error", "door", "door-1", "access denied: user 'Kid' is not allowed to perform 'Unlock' on device 'front door'"],
]

#: The two t=60 rows of the retry on every write.
_RETRY = slice(11, 13)
EXPECTED_TEXT = RECORDED_TEXT[:_RETRY.start] + RECORDED_TEXT[_RETRY.stop:]
EXPECTED_SNAPSHOT = (RECORDED_SNAPSHOT[:_RETRY.start]
                     + RECORDED_SNAPSHOT[_RETRY.stop:])


def test_only_the_retry_rows_are_gone():
    assert [row[:3] for row in RECORDED_SNAPSHOT[_RETRY]] == [
        [60.0, "conflict", "bright"], [60.0, "deny", "bright"]]
    assert len(RECORDED_SNAPSHOT) == 22 and len(EXPECTED_SNAPSHOT) == 20


@pytest.fixture(scope="module")
def engine():
    return _live()


def test_every_entry_describes_verbatim(engine):
    assert [entry.describe() for entry in engine.trace] == EXPECTED_TEXT


def test_snapshot_trace_rows_verbatim(engine):
    assert engine.runtime_snapshot()["trace"] == EXPECTED_SNAPSHOT


def test_trace_view_reads_like_a_ring(engine):
    trace = engine.trace
    assert len(trace) == len(EXPECTED_TEXT)
    assert trace[0].describe() == EXPECTED_TEXT[0]
    assert trace[-1].describe() == EXPECTED_TEXT[-1]
    assert trace[3].kind == "fire" and trace[3].rule == "alan-tv"


def test_restored_trace_describes_verbatim(engine):
    """A snapshot's trace, through JSON, restores to the same text; the
    rows are the recorded ones, as a snapshot written before the ring
    stored decisions as data (and before the retry on every write went)
    holds them."""
    snapshot = json.loads(json.dumps(engine.runtime_snapshot()))
    snapshot["trace"] = json.loads(json.dumps(RECORDED_SNAPSHOT))
    twin = _live()
    twin.restore_runtime(snapshot)
    assert [entry.describe() for entry in twin.trace] == RECORDED_TEXT
    assert twin.runtime_snapshot()["trace"] == RECORDED_SNAPSHOT


def test_ring_keeps_the_newest_entries():
    simulator = Simulator()
    database = RuleDatabase()
    engine = RuleEngine(database, PriorityManager(), simulator,
                        dispatch=lambda spec: None, max_trace=3)
    rule = make_rule("r", "Tom", temp_above(20), LAMP_ON)
    database.add(rule)
    engine.rule_added(rule)
    for step, value in enumerate((25.0, 15.0, 25.0, 15.0, 25.0)):
        simulator.run_until(float(step + 1))
        engine.ingest("thermo:t:temperature", value)
    assert engine.trace.maxlen == 3
    assert [(entry.time, entry.kind) for entry in engine.trace] == [
        (3.0, "fire"), (4.0, "stop"), (5.0, "fire")]


def test_order_text_is_captured_at_decision_time():
    """A priority order is mutable; a fire records the text it had when
    it decided, not the text it has when the trace is read."""
    engine = _live()
    engine.priorities.orders_for_device("tv-1")[0].label = "relabelled"
    assert [entry.describe() for entry in engine.trace] == EXPECTED_TEXT
