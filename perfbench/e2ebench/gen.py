"""Seeded input generator: rule populations, priority orders, streams.

Everything the benchmark feeds the cluster comes from here and from the
``--seed`` argument alone.  The shapes follow the repository's fleet
workloads (home-prefixed variables, four per-home rule archetypes,
cross-home building rules), but nothing is imported from
``repro.workloads``: a change to those builders cannot change what the
benchmark measures.

A *tick* is one unit of offered work: ``(writes, churn)``, where
``writes`` is a list of ``(variable, value)`` sensor writes published
together and ``churn`` is ``None`` or ``(remove_name, new_rule)`` — the
validated rule replacement a churn tick performs beside its writes.
The stream is endless; :meth:`Inputs.extend` generates more of it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.action import ActionSpec, Setting
from repro.core.condition import (
    AndCondition,
    Condition,
    DiscreteAtom,
    MembershipAtom,
    NumericAtom,
    OrCondition,
    TimeWindowAtom,
    TrueAtom,
)
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

HOUR = 3600.0
#: Standard deviation of one numeric sensor step (readings span 0-100).
DRIFT = 8.0

SENSORS = ("temperature", "humidity", "illuminance", "noise")
ROOMS = ("living room", "kitchen", "bedroom", "hall", "study")
KEYWORDS = ("baseball", "news", "movie", "jazz", "drama", "weather")
# Canonical windows (seconds since midnight) so time atoms dedupe.
WINDOWS = (
    (6 * HOUR, 9 * HOUR, "in the morning"),
    (17 * HOUR, 21 * HOUR, "in the evening"),
    (21 * HOUR, 6 * HOUR, "at night"),
    (12 * HOUR, 13 * HOUR, "at lunchtime"),
)

Write = tuple[str, Any]
Churn = tuple[str, Rule]
Tick = tuple[list[Write], "Churn | None"]


def rng_for(seed: int, part: str) -> random.Random:
    """An isolated stream per (seed, purpose): adding a draw to one
    part never shifts another part's inputs."""
    return random.Random(f"e2ebench:{seed}:{part}")


def numeric_var(home: str, sensor: str) -> str:
    return f"{home}/sense:svc:{sensor}"


def presence_var(home: str) -> str:
    return f"{home}/presence:svc:room"


def epg_var(home: str) -> str:
    return f"{home}/epg:svc:keywords"


@dataclass
class Inputs:
    """One workload's generated inputs.

    ``orders`` are registered after the rules, ``initial`` seeds every
    sensor before the first tick, ``ticks`` is the part of the offered
    stream generated so far and ``source`` the rest of it."""

    rules: list[Rule]
    orders: list[PriorityOrder]
    initial: list[Write]
    source: Iterator[Tick]
    ticks: list[Tick]

    def extend(self, count: int) -> None:
        """Generate the next ``count`` ticks of the stream."""
        self.ticks.extend(itertools.islice(self.source, count))


def _action(udn: str, rng: random.Random) -> ActionSpec:
    return ActionSpec(
        device_udn=udn, device_name=udn, service_id="svc",
        action_name="Set",
        settings=(Setting("level", round(rng.uniform(0.0, 100.0), 1)),),
    )


def _inequality(variable: str, rng: random.Random) -> NumericAtom:
    return NumericAtom(LinearConstraint.make(
        LinearExpr.var(variable),
        rng.choice((Relation.GT, Relation.LT)), rng.uniform(0.0, 100.0),
    ))


def _numeric_pair(home: str, rng: random.Random) -> AndCondition:
    # Distinct sensors: always satisfiable, so validation never rejects.
    first, second = rng.sample(SENSORS, 2)
    return AndCondition([_inequality(numeric_var(home, first), rng),
                         _inequality(numeric_var(home, second), rng)])


def _fleet_condition(home: str, index: int, rng: random.Random) -> Condition:
    """The four fleet archetypes, weighted toward the numeric shape."""
    kind = index % 10
    if kind < 7:
        return _numeric_pair(home, rng)
    any_sensor = numeric_var(home, rng.choice(SENSORS))
    if kind == 7:
        return AndCondition([
            DiscreteAtom(presence_var(home), rng.choice(ROOMS),
                         negated=rng.random() < 0.2),
            _inequality(any_sensor, rng),
        ])
    if kind == 8:
        return AndCondition([
            MembershipAtom(epg_var(home), rng.choice(KEYWORDS),
                           negated=rng.random() < 0.2),
            _inequality(any_sensor, rng),
        ])
    start, end, label = WINDOWS[(index // 10) % len(WINDOWS)]
    return AndCondition([
        TimeWindowAtom(start, end, label=label),
        DiscreteAtom(presence_var(home), rng.choice(ROOMS)),
    ])


def _building_rules(homes: list[str], per_building: int,
                    rng: random.Random) -> list[Rule]:
    """Cross-home rules over buildings of four apartments: any-of,
    all-of and a two-apartment aggregate, each driving a device of the
    building's anchor home (served by variable mirroring)."""
    rules = []
    for number, start in enumerate(range(0, len(homes), 4)):
        members = homes[start:start + 4]
        if len(members) < 2:
            continue
        anchor, others = members[0], members[1:]
        for index in range(per_building):
            foreign = rng.sample(others, min(2, len(others)))
            kind = index % 3
            if kind == 0:
                condition: Condition = OrCondition([
                    _inequality(numeric_var(h, rng.choice(SENSORS)), rng)
                    for h in foreign])
            elif kind == 1:
                condition = AndCondition(
                    [_inequality(numeric_var(anchor, "temperature"), rng)]
                    + [_inequality(numeric_var(h, "humidity"), rng)
                       for h in foreign])
            else:
                first, second = (foreign * 2)[:2]
                condition = NumericAtom(LinearConstraint.make(
                    LinearExpr.var(numeric_var(first, "temperature"))
                    + LinearExpr.var(numeric_var(second, "humidity")),
                    Relation.GT, rng.uniform(60.0, 160.0)))
            name = f"bldg-{number:03d}-rule-{index:03d}"
            rules.append(Rule(
                name=name, owner=f"bldg-{number:03d}-manager",
                condition=condition,
                action=_action(f"{anchor}/bldg-{number:03d}-dev-{index:03d}",
                               rng),
            ))
    return rules


def _sensor_values(homes: list[str], rng: random.Random) -> list[Write]:
    initial: list[Write] = []
    for home in homes:
        for sensor in SENSORS:
            initial.append((numeric_var(home, sensor),
                            round(rng.uniform(0.0, 100.0), 3)))
        initial.append((presence_var(home), rng.choice(ROOMS)))
        initial.append((epg_var(home),
                        frozenset(rng.sample(KEYWORDS, rng.randint(1, 3)))))
    return initial


def _stream_writes(homes: list[str], count: int, rng: random.Random,
                   readings: dict, *, bursts: bool, sets: bool
                   ) -> list[Write]:
    """``count`` writes: single numeric writes, short ramping bursts to
    one sensor (coalescible runs), presence moves and EPG keyword sets.

    Numeric sensors drift (a Gaussian step from their current reading
    in ``readings``, which this updates) instead of jumping anywhere in
    their range, as physical readings do."""
    writes: list[Write] = []
    while len(writes) < count:
        home = homes[rng.randrange(len(homes))]
        roll = rng.random()
        if roll < 0.15:
            writes.append((presence_var(home), rng.choice(ROOMS)))
        elif sets and roll < 0.30:
            writes.append((epg_var(home), frozenset(
                rng.sample(KEYWORDS, rng.randint(1, 3)))))
        else:
            variable = numeric_var(home, rng.choice(SENSORS))
            value = readings[variable] + rng.gauss(0.0, DRIFT)
            value = round(min(100.0, max(0.0, value)), 3)
            run = rng.randint(2, 4) if bursts and rng.random() < 0.35 else 1
            for step in range(run):
                writes.append((variable, round(value + 0.37 * step, 3)))
            readings[variable] = writes[-1][1]
    return writes[:count]


def fleet_inputs(seed: int, *, homes: int, rules_per_home: int,
                 building_rules: int, writes_per_tick: int) -> Inputs:
    """A home fleet plus cross-home building rules; every rule owns its
    device, so arbitration stays out of the measurement."""
    names = [f"home-{index:04d}" for index in range(homes)]
    rng = rng_for(seed, "fleet-rules")
    rules = []
    for home in names:
        for index in range(rules_per_home):
            rules.append(Rule(
                name=f"{home}-rule-{index:04d}",
                owner=f"{home}-user-{index % 3}",
                condition=_fleet_condition(home, index, rng),
                action=_action(f"{home}/dev-{index:04d}", rng),
            ))
    rules += _building_rules(names, building_rules,
                             rng_for(seed, "fleet-building"))
    initial = _sensor_values(names, rng_for(seed, "fleet-init"))

    def stream() -> Iterator[Tick]:
        readings = dict(initial)
        rng = rng_for(seed, "fleet-stream")
        while True:
            yield (_stream_writes(names, writes_per_tick, rng, readings,
                                  bursts=True, sets=True), None)

    return Inputs(rules=rules, orders=[], initial=initial, source=stream(),
                  ticks=[])


def _contested_rule(name: str, home: str, owner: str, udn: str,
                    rng: random.Random) -> Rule:
    if rng.random() < 0.75:
        condition: Condition = _numeric_pair(home, rng)
    else:
        condition = AndCondition([
            DiscreteAtom(presence_var(home), rng.choice(ROOMS)),
            _inequality(numeric_var(home, rng.choice(SENSORS)), rng),
        ])
    return Rule(name=name, owner=owner, condition=condition,
                action=_action(udn, rng))


def contested_inputs(seed: int, *, homes: int, devices_per_home: int,
                     residents: int, writes_per_tick: int) -> Inputs:
    """Every device contested by one rule per resident, arbitrated by a
    default ranking plus a presence-attached ranking; each tick replaces
    one rule (validated register + remove) beside its writes."""
    names = [f"home-{index:04d}" for index in range(homes)]
    rng = rng_for(seed, "contested-rules")
    rules: list[Rule] = []
    orders: list[PriorityOrder] = []
    # device -> {owner: live rule name}, so churn keeps one rule per
    # resident on every device and the contest shape stays steady.
    live: dict[str, dict[str, str]] = {}
    owners_of: dict[str, list[str]] = {}
    for home in names:
        owners = [f"{home}-res-{r}" for r in range(residents)]
        for device in range(devices_per_home):
            udn = f"{home}/dev-{device:03d}"
            owners_of[udn] = owners
            live[udn] = {}
            for owner in owners:
                name = f"{udn}-{owner[-5:]}-0"
                rules.append(_contested_rule(name, home, owner, udn, rng))
                live[udn][owner] = name
            default = owners[:]
            rng.shuffle(default)
            at_room = owners[:]
            rng.shuffle(at_room)
            orders.append(PriorityOrder(udn, tuple(default),
                                        context=TrueAtom(),
                                        label="by default"))
            room = rng.choice(ROOMS)
            orders.append(PriorityOrder(
                udn, tuple(at_room),
                context=DiscreteAtom(presence_var(home), room),
                label=f"someone is in the {room}"))
    initial = [write for write in
               _sensor_values(names, rng_for(seed, "contested-init"))
               if not write[0].endswith(":keywords")]

    def stream() -> Iterator[Tick]:
        readings = dict(initial)
        rng = rng_for(seed, "contested-stream")
        churn = rng_for(seed, "contested-churn")
        devices = sorted(live)
        for number in itertools.count(1):
            writes = _stream_writes(names, writes_per_tick, rng, readings,
                                    bursts=False, sets=False)
            udn = devices[churn.randrange(len(devices))]
            owner = churn.choice(owners_of[udn])
            new_name = f"{udn}-{owner[-5:]}-{number}"
            new_rule = _contested_rule(new_name, udn.split("/", 1)[0],
                                       owner, udn, churn)
            yield (writes, (live[udn][owner], new_rule))
            live[udn][owner] = new_name

    return Inputs(rules=rules, orders=orders, initial=initial,
                  source=stream(), ticks=[])
