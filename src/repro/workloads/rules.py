"""Synthetic rule populations (E2 / A1 / A2 workloads).

The paper's conflict-detection experiment: "the server retains 10,000
registered rules, and ... among them 100 rules specify the same device
in their action parts.  We also assume that the condition part of each
rule contains a logical product of two inequalities.  Thus, a logical
product of four inequalities must be evaluated for each extracted rule."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.action import ActionSpec, Setting
from repro.core.condition import (
    AndCondition,
    Condition,
    DiscreteAtom,
    MembershipAtom,
    NumericAtom,
    OrCondition,
    TimeWindowAtom,
)
from repro.core.database import RuleDatabase
from repro.core.rule import Rule
from repro.sim.clock import SECONDS_PER_DAY, hhmm
from repro.sim.rng import seeded_rng
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

SENSOR_VARIABLES = (
    "sensor:temperature", "sensor:humidity", "sensor:illuminance",
    "sensor:noise", "sensor:co2", "sensor:pressure",
)

ROOMS = ("living room", "kitchen", "bedroom", "hall", "study")

EPG_KEYWORDS = ("baseball", "news", "movie", "jazz", "drama", "weather")

# A handful of canonical windows so time atoms deduplicate across rules.
TIME_WINDOWS = (
    (hhmm(6), hhmm(9), "in the morning"),
    (hhmm(17), hhmm(21), "in the evening"),
    (hhmm(21), hhmm(6), "at night"),
    (hhmm(12), hhmm(13), "at lunchtime"),
)


@dataclass
class RulePopulation:
    """A generated database plus the probe rule used by the benchmark."""

    database: RuleDatabase
    hot_device: str
    probe_rule: Rule
    total_rules: int
    same_device_rules: int


def _two_inequality_condition(rng) -> AndCondition:
    """A conjunction of two single-variable inequalities (the E2 shape)."""
    atoms = []
    for _ in range(2):
        variable = rng.choice(SENSOR_VARIABLES)
        relation = rng.choice((Relation.GT, Relation.LT))
        bound = rng.uniform(0.0, 100.0)
        atoms.append(NumericAtom(
            LinearConstraint.make(LinearExpr.var(variable), relation, bound)
        ))
    return AndCondition(atoms)


def _action_on(device: str, rng) -> ActionSpec:
    return ActionSpec(
        device_udn=device,
        device_name=device,
        service_id="svc",
        action_name="Set",
        settings=(Setting("level", round(rng.uniform(0.0, 100.0), 1)),),
    )


def build_rule_population(
    total_rules: int = 10_000,
    same_device_rules: int = 100,
    device_count: int = 500,
    seed: int | str = "e2-rules",
) -> RulePopulation:
    """Build the E2 database: ``total_rules`` rules across
    ``device_count`` devices, with exactly ``same_device_rules`` of them
    targeting the designated *hot* device; plus a probe rule targeting
    the hot device (not yet registered)."""
    rng = seeded_rng(seed)
    database = RuleDatabase()
    hot_device = "device-hot"
    other_devices = [f"device-{i:04d}" for i in range(device_count - 1)]
    for index in range(total_rules):
        if index < same_device_rules:
            device = hot_device
        else:
            device = rng.choice(other_devices)
        rule = Rule(
            name=f"synthetic-{index:05d}",
            owner=f"user-{index % 7}",
            condition=_two_inequality_condition(rng),
            action=_action_on(device, rng),
        )
        database.add(rule)
    probe = Rule(
        name="probe-rule",
        owner="prober",
        condition=_two_inequality_condition(rng),
        action=_action_on(hot_device, rng),
    )
    return RulePopulation(
        database=database,
        hot_device=hot_device,
        probe_rule=probe,
        total_rules=total_rules,
        same_device_rules=same_device_rules,
    )


# -- mixed-atom populations (A5 incremental-evaluation workload) ---------------


@dataclass
class MixedPopulation:
    """A mixed-atom rule database for the incremental-engine benchmarks.

    ``hot_variable`` is a shared sensor variable read by the numeric bulk
    of the population — the variable an A5 probe ingests so the seed
    full-re-eval path scales with rule count.
    """

    database: RuleDatabase
    hot_variable: str
    zone_count: int
    total_rules: int


def _zone_numeric(zone: str, rng) -> NumericAtom:
    relation = rng.choice((Relation.GT, Relation.LT))
    bound = rng.uniform(0.0, 100.0)
    return NumericAtom(
        LinearConstraint.make(
            LinearExpr.var(f"{zone}:sensor:temperature"), relation, bound
        )
    )


def _mixed_condition(index: int, rng, zone_count: int) -> Condition:
    """One of four archetypes, weighted toward the paper's numeric shape.

    The discrete / membership / time-window archetypes read per-zone and
    per-person variables, which is what per-home sharding looks like at
    scale; only the numeric bulk reads the shared sensor feed.
    """
    zone = f"zone-{rng.randrange(zone_count):04d}"
    kind = index % 10
    if kind < 7:
        # The E2 shape: conjunction of two shared-sensor inequalities.
        return _two_inequality_condition(rng)
    if kind == 7:
        person = f"person:resident-{index % 23}:place"
        return AndCondition([
            DiscreteAtom(person, rng.choice(ROOMS),
                         negated=rng.random() < 0.2),
            _zone_numeric(zone, rng),
        ])
    if kind == 8:
        return AndCondition([
            OrCondition([
                MembershipAtom("epg:guide:keywords", rng.choice(EPG_KEYWORDS),
                               negated=rng.random() < 0.2),
                DiscreteAtom(f"{zone}:occupancy:present", "true"),
            ]),
            _zone_numeric(zone, rng),
        ])
    # index % 10 == 9 here, so cycle windows on index // 10 to reach all
    # four shapes (including the midnight-wrapping "at night").
    start, end, label = TIME_WINDOWS[(index // 10) % len(TIME_WINDOWS)]
    return AndCondition([
        TimeWindowAtom(start, end, label=label),
        DiscreteAtom(f"{zone}:occupancy:present", "true"),
    ])


# -- templated / dense-window populations (A7 clause-sharing workloads) -------


@dataclass
class TemplatedPopulation:
    """A duplicated-template rule database for the A7 ingest benchmark.

    ``templates`` distinct two-atom conjunctions (a shared-sensor
    inequality ∧ a per-template occupancy equality) are each stamped out
    ``duplication`` times under fresh names/devices — the fleet shape
    where hundreds of apartments run the same vendor rule pack.  All
    thresholds sit inside ``(toggle_low, toggle_high)``, so one toggle
    of ``hot_variable`` flips every distinct atom while every clause
    stays false (occupancy is never set): exactly the delta clause
    sharing absorbs in O(templates) where a per-rule evaluation would
    pay O(templates × duplication).
    """

    database: RuleDatabase
    hot_variable: str
    templates: int
    duplication: int
    total_rules: int
    toggle_low: float
    toggle_high: float


def build_templated_population(
    templates: int = 50,
    duplication: int = 100,
    seed: int | str = "a7-templated",
) -> TemplatedPopulation:
    rng = seeded_rng(seed)
    database = RuleDatabase()
    hot_variable = "sensor:temperature"
    toggle_low, toggle_high = 24.0, 26.0
    thresholds = sorted(
        rng.uniform(toggle_low + 0.1, toggle_high - 0.1)
        for _ in range(templates)
    )
    index = 0
    for template, threshold in enumerate(thresholds):
        for _copy in range(duplication):
            # Fresh condition objects per rule: dedup must happen through
            # atom/clause identity, not shared object memoization.
            condition = AndCondition([
                NumericAtom(LinearConstraint.make(
                    LinearExpr.var(hot_variable), Relation.GT, threshold)),
                DiscreteAtom(f"zone-{template:04d}:occupancy:present",
                             "true"),
            ])
            database.add(Rule(
                name=f"tmpl-{index:06d}",
                owner=f"user-{index % 7}",
                condition=condition,
                action=_action_on(f"tmpl-dev-{index:06d}", rng),
            ))
            index += 1
    return TemplatedPopulation(
        database=database,
        hot_variable=hot_variable,
        templates=templates,
        duplication=duplication,
        total_rules=index,
        toggle_low=toggle_low,
        toggle_high=toggle_high,
    )


@dataclass
class WindowPopulation:
    """A dense time-window rule database for the A7 tick benchmark.

    Every rule conjoins a time window (starts spread across the whole
    day, off the minute grid) with a never-true occupancy atom, so
    clock ticks measure pure evaluation cost: the per-tick path walks
    all ``total_rules`` rules every tick, the wheel path only the
    handful whose boundary a tick crossed — and no rule ever fires.
    """

    database: RuleDatabase
    total_rules: int


def build_window_population(
    total_rules: int = 4_096,
    seed: int | str = "a7-windows",
) -> WindowPopulation:
    rng = seeded_rng(seed)
    database = RuleDatabase()
    for index in range(total_rules):
        start = rng.uniform(0.0, SECONDS_PER_DAY - 1.0)
        length = rng.uniform(1_800.0, 10_800.0)
        end = (start + length) % SECONDS_PER_DAY
        condition = AndCondition([
            TimeWindowAtom(start, end),
            DiscreteAtom(f"wzone-{index:05d}:occupancy:present", "true"),
        ])
        database.add(Rule(
            name=f"window-{index:05d}",
            owner=f"user-{index % 7}",
            condition=condition,
            action=_action_on(f"window-dev-{index:05d}", rng),
        ))
    return WindowPopulation(database=database, total_rules=total_rules)


@dataclass
class ColumnarPopulation:
    """A threshold-sweep rule database for the A9 columnar benchmark.

    Every rule conjoins a distinct inequality over ``hot_variable``
    (thresholds spread across ``(toggle_low, toggle_high)``) with a
    shared never-true inequality over the same variable.  A write that
    jumps between ``toggle_low`` and ``toggle_high`` therefore flips
    *every* distinct threshold atom — the worst-case band sweep — while
    no clause ever turns true, so the benchmark isolates the atom-flip /
    clause-counter critical path from rule evaluation and arbitration.
    """

    database: RuleDatabase
    hot_variable: str
    total_rules: int
    toggle_low: float
    toggle_high: float


def build_columnar_population(
    total_rules: int = 10_000,
    seed: int | str = "a9-columnar",
) -> ColumnarPopulation:
    rng = seeded_rng(seed)
    database = RuleDatabase()
    hot_variable = "sensor:temperature"
    toggle_low, toggle_high = 10.0, 90.0
    for index in range(total_rules):
        threshold = rng.uniform(toggle_low + 0.5, toggle_high - 0.5)
        # Fresh atom objects per rule (dedup is by key); the companion
        # atom's key is identical across rules, so it collapses to one
        # shared never-true slot keeping every clause false.
        condition = AndCondition([
            NumericAtom(LinearConstraint.make(
                LinearExpr.var(hot_variable), Relation.GT, threshold)),
            NumericAtom(LinearConstraint.make(
                LinearExpr.var(hot_variable), Relation.GT, 1e9)),
        ])
        database.add(Rule(
            name=f"col-{index:06d}",
            owner=f"user-{index % 7}",
            condition=condition,
            action=_action_on(f"col-dev-{index:06d}", rng),
        ))
    return ColumnarPopulation(
        database=database,
        hot_variable=hot_variable,
        total_rules=total_rules,
        toggle_low=toggle_low,
        toggle_high=toggle_high,
    )


def build_mixed_population(
    total_rules: int = 10_000,
    zone_count: int | None = None,
    seed: int | str = "a5-mixed",
) -> MixedPopulation:
    """Build a mixed-atom database: 70% shared-sensor numeric rules plus
    discrete, membership and time-window archetypes over per-zone
    variables.  Each rule drives its own device so benchmark probes
    measure evaluation, not arbitration contention."""
    if zone_count is None:
        zone_count = max(8, total_rules // 50)
    rng = seeded_rng(seed)
    database = RuleDatabase()
    for index in range(total_rules):
        rule = Rule(
            name=f"mixed-{index:05d}",
            owner=f"user-{index % 7}",
            condition=_mixed_condition(index, rng, zone_count),
            action=_action_on(f"mixed-dev-{index:05d}", rng),
        )
        database.add(rule)
    return MixedPopulation(
        database=database,
        hot_variable="sensor:temperature",
        zone_count=zone_count,
        total_rules=total_rules,
    )
