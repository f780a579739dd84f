"""One seeded life and one judge for every twin suite.

The paper's runtime semantics (edge-triggered firing, context-attached
priority orders, fallback and re-grant) exist twice: in the fast path
and in the seed interpreter (``incremental=False``), kept as the
executable spec.  This module holds everything a suite needs to hold a
configuration to that spec:

* **The population.**  Per home, every engine feature once: stop
  actions, ``until`` and fallback; a contested tv under a context-free,
  a presence-context and a time-window-context order; negated discrete
  atoms, EPG membership and negated membership; a constraint over two
  variables, an equality atom and a duration atom; events with and
  without a subject; windows off the tick grid, across midnight and on
  a weekday, a clock-reading ``until`` and an OR of two windowed
  clauses.  The first home adds a window inside a duration.
  Multi-home lives add building rules whose conditions read other
  homes' variables, so their writes mirror across shards.
* **The life** (:func:`script`).  A seed gives ``(t, kind, a, b, c)``
  ops: sensor writes and bursts, place changes, EPG sets, door/dark
  flips, home-scoped and broadcast events, clock advances, checkpoint
  markers and churn; multi-home lives add smoke spikes at the mirrored
  sensors.  The value grid holds every numeric bound of the
  population, plus NaN.  Churn adds late rules that read a variable
  before its first write, drops a rule that holds a device and one
  that is DENIED (re-adding both later), adds and removes a priority
  order and, where the configuration holds the ``Rule`` objects,
  disables and re-enables a plain and a windowed rule at settled
  points.
* **The judge** (:class:`Judge`).  It drives any configurations beside
  the oracle, ``HomeServer(incremental=False)`` serving the merged
  homes, through :func:`drive`, the one op loop.  After every settled
  step it compares truth and state of every live rule and the holder
  (rule and action) of every device, and at the end each home's trace
  as full five-tuples (truth, states and holders only where coalescing
  may merge edges away).  Every side builds its own rule objects.

Script times advance in multiples of 0.25 s, so they often land on
whole seconds, and a few on the 60-s tick grid.  An op at exactly a
timer's instant is the tie :mod:`repro.cluster.durability` documents
as a known limitation of replay.
"""

import functools
import math

from repro.cluster import ALL_CRASH_SITES, ClusterServer, DurabilityPlane, restore_cluster
from repro.cluster.router import home_key, is_ambient
from repro.core.action import ActionSpec, Setting
from repro.core.condition import (
    AndCondition,
    DiscreteAtom,
    DurationAtom,
    EventAtom,
    MembershipAtom,
    NumericAtom,
    OrCondition,
    TimeWindowAtom,
)
from repro.core.engine import RuleState
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.core.server import HomeServer
from repro.net.bus import NetworkBus
from repro.sim.clock import hhmm
from repro.sim.events import Simulator
from repro.sim.faults import FaultInjector, SimulatedCrash
from repro.sim.rng import seeded_rng
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

HOME = "home-0000"
HOMES = tuple(f"home-{index:04d}" for index in range(4))
LOBBY = "lobby"
PEOPLE = ("Tom", "Alan", "Emily")
ROOMS = ("living room", "kitchen", "bedroom", "hall")
KEYWORDS = ("baseball", "news", "movie", "jazz")
EVENTS = ("returns home", "leaves home", "smoke alarm")
#: Every single-variable numeric bound of the population lies on the
#: grid (15 to 49.5 in half steps), so writes land exactly on them.
VALUE_GRID = [15.0 + 0.5 * i for i in range(70)] + [math.nan]
GT, LT, EQ = Relation.GT, Relation.LT, Relation.EQ


def temp(home):
    return f"{home}/thermo:svc:temperature"


def humid(home):
    return f"{home}/hygro:svc:humidity"


def lux(home):
    return f"{home}/lux:svc:illuminance"


def smoke(home):
    return f"{home}/smoke:svc:level"


def co2(home):
    return f"{home}/co2:svc:level"


def place_var(home, person):
    return f"{home}/locator:svc:place-{person}"


def epg_var(home):
    return f"{home}/epg:svc:keywords"


def door_var(home):
    return f"{home}/door:svc:locked"


def dark_var(home):
    return f"{home}/hall:svc:dark"


def num(variable, relation, bound):
    return NumericAtom(
        LinearConstraint.make(LinearExpr.var(variable), relation, bound)
    )


def place(home, person, room, negated=False):
    return DiscreteAtom(place_var(home, person), room, negated=negated)


def act(device, name="Set", level=1):
    return ActionSpec(
        device_udn=device, device_name=device, service_id="svc",
        action_name=name, settings=(Setting("level", level),),
    )


# -- the population -----------------------------------------------------------


def build_rules(home):
    """Fresh rule objects for one home.  Nothing here is true before the
    first write, and temperature writes alone move only ``cool`` and
    ``heat`` (the worker tests count their actions)."""
    def rule(name, owner, condition, device, verb="Set", **extra):
        return Rule(name=f"{home}-{name}", owner=owner, condition=condition,
                    action=act(f"{home}/{device}", verb), **extra)

    def off(device):
        return act(f"{home}/{device}", "Off")

    def window(start, end, **kwargs):
        return TimeWindowAtom(start, end, **kwargs)

    return [
        rule("cool", "Tom", num(temp(home), GT, 26.0), "aircon",
             stop_action=off("aircon")),
        rule("heat", "Alan", num(temp(home), LT, 20.0), "heater",
             until=num(temp(home), GT, 24.0), stop_action=off("heater")),
        rule("tom-tv", "Tom", OrCondition([
            place(home, "Tom", "living room"),
            place(home, "Alan", "living room")]), "tv", "ShowJazz"),
        rule("emily-tv", "Emily", place(home, "Emily", "living room"), "tv",
             "ShowMovie", fallback=act(f"{home}/recorder", "Record")),
        rule("alan-tv", "Alan", num(humid(home), LT, 35.0), "tv", "ShowNews"),
        rule("lamp", "Tom", AndCondition([
            place(home, "Tom", "kitchen", negated=True),
            num(lux(home), LT, 30.0)]), "lamp"),
        rule("ballgame", "Alan", MembershipAtom(epg_var(home), "baseball"),
             "tv2", "ShowBaseball"),
        # Contests tv2 with ``ballgame`` under no order: a conflict.
        rule("quiet", "Emily", AndCondition([
            MembershipAtom(epg_var(home), "news", negated=True),
            place(home, "Emily", "bedroom")]), "tv2", "Mute"),
        rule("muggy", "Alan", NumericAtom(LinearConstraint.make(
            LinearExpr.var(temp(home)) - LinearExpr.var(humid(home)),
            GT, 5.0)), "dehumid"),
        rule("exact-lux", "Emily", num(lux(home), EQ, 42.0), "indicator"),
        rule("door-alarm", "Emily", DurationAtom(
            DiscreteAtom(door_var(home), "false"), 600.0), "alarm",
             stop_action=off("alarm")),
        rule("hall-light", "Tom", EventAtom("returns home"), "hall-light"),
        rule("alan-arrives", "Alan", AndCondition([
            EventAtom("returns home", subject="Alan"),
            DiscreteAtom(dark_var(home), "true")]), "hall-light2"),
        # [00:00, 01:00): short scripts cross its closing boundary, the
        # wheel-restore hazard.
        rule("early-lamp", "Tom", AndCondition([
            window(hhmm(0), hhmm(1), label="early"),
            place(home, "Tom", "living room")]), "lamp2"),
        rule("offgrid", "Emily", AndCondition([
            window(hhmm(2, 0, 30), hhmm(3, 30, 15)),
            place(home, "Emily", "kitchen")]), "offgrid-dev"),
        rule("night", "Alan", AndCondition([
            window(hhmm(21), hhmm(5)), place(home, "Alan", "bedroom")]),
             "night-dev", stop_action=off("night-dev")),
        rule("monday", "Emily", AndCondition([
            window(hhmm(5), hhmm(7), weekday=0),
            place(home, "Emily", "kitchen")]), "stereo2",
             until=MembershipAtom(epg_var(home), "news")),
        # A bare window on the tick grid: truth is the boundary alone.
        rule("siesta", "Tom", window(hhmm(4), hhmm(4, 30)), "blinds",
             stop_action=off("blinds")),
        # A clock-reading ``until``: the wheel does not schedule it, so
        # every tick re-checks it while the rule holds its device.
        rule("until-window", "Emily", num(humid(home), GT, 45.0), "shade",
             until=window(hhmm(2, 15), hhmm(7, 45)),
             stop_action=off("shade")),
        # Two windowed clauses in one disjunction.
        rule("either-window", "Alan", OrCondition([
            AndCondition([window(hhmm(0, 45), hhmm(2)),
                          place(home, "Alan", "kitchen")]),
            AndCondition([window(hhmm(3, 15), hhmm(7, 30)),
                          place(home, "Alan", "kitchen")])]), "kettle"),
    ]


def held_window(home):
    """A window inside a duration: a stateful plan the wheel cannot
    schedule, so every tick re-examines it and its shard never sleeps.
    Lives give it to their first home only, so other shards still sleep
    between window boundaries."""
    return Rule(name=f"{home}-held-window", owner="Tom",
                condition=DurationAtom(AndCondition([
                    TimeWindowAtom(hhmm(1), hhmm(5, 30)),
                    place(home, "Tom", "bedroom")]), 900.0),
                action=act(f"{home}/held-dev"))


def cross_rules(homes):
    """The building layer of a multi-home life: lobby rules (and one
    apartment's) whose conditions read other homes' variables."""
    if len(homes) < 2:
        return []
    first, second, last = homes[0], homes[1], homes[-1]

    def lobby(device, verb="Set"):
        return act(f"{LOBBY}/{device}", verb)

    return [
        Rule(name="bldg-any-smoke", owner="manager",
             condition=OrCondition([num(smoke(h), GT, 40.0)
                                    for h in homes[:3]]),
             action=lobby("door", "Unlock"), stop_action=lobby("door", "Lock")),
        Rule(name="bldg-aggregate", owner="manager",
             condition=NumericAtom(LinearConstraint.make(
                 LinearExpr.var(temp(first)) + LinearExpr.var(temp(second)),
                 GT, 58.0)),
             action=lobby("vent")),
        Rule(name="bldg-porch", owner="manager",
             condition=AndCondition([
                 TimeWindowAtom(hhmm(1), hhmm(2, 30), label="small hours"),
                 place(last, "Tom", "hall")]),
             action=lobby("porch-light")),
        Rule(name="bldg-evac", owner="manager",
             condition=AndCondition([EventAtom("smoke alarm"),
                                     num(smoke(second), GT, 20.0)]),
             action=lobby("siren")),
        Rule(name="bldg-ad-board", owner="manager",
             condition=num(temp(last), GT, 24.0),
             action=lobby("display", "ShowAds")),
        Rule(name="bldg-warning-board", owner="fire-chief",
             condition=num(smoke(last), GT, 30.0),
             action=lobby("display", "ShowWarning")),
        Rule(name=f"{first}-neighbour-watch", owner="Tom",
             condition=num(smoke(last), GT, 35.0),
             action=act(f"{first}/buzzer"),
             until=DiscreteAtom(door_var(first), "true"),
             stop_action=act(f"{first}/buzzer", "Off")),
    ]


def late_rules(homes):
    """Rules a life registers mid-stream.  Each reads a variable that
    is first written after it registers."""
    rules = [
        Rule(name=f"{home}-late-comer", owner="Tom",
             condition=AndCondition([
                 num(temp(home), GT, 22.0),
                 OrCondition([place(home, "Alan", "bedroom"),
                              num(co2(home), LT, 20.0)])]),
             action=act(f"{home}/lamp3"))
        for home in homes
    ]
    if len(homes) > 1:
        rules.append(Rule(
            name="bldg-late-watch", owner="manager",
            condition=OrCondition([num(co2(h), GT, 45.0) for h in homes[1:]]),
            action=act(f"{LOBBY}/spare-siren")))
    return rules


def fresh_rules(homes):
    """What a life registers before its first op, as fresh objects."""
    return [rule for home in homes for rule in build_rules(home)] \
        + [held_window(homes[0])] + cross_rules(homes)


def rules_named(names, homes):
    """Fresh objects for the named rules of a life over ``homes``."""
    by_name = {rule.name: rule
               for rule in fresh_rules(homes) + late_rules(homes)}
    return [by_name[name] for name in names]


def priority_orders(homes):
    """Fresh orders: per home, Emily over Tom (Alan unranked) on the
    tv, Alan first while he is in the living room or between 00:30 and
    01:30; the fire chief over the manager on the lobby display."""
    orders = [
        order
        for home in homes
        for order in (
            PriorityOrder(f"{home}/tv", ("Emily", "Tom")),
            PriorityOrder(f"{home}/tv", ("Alan", "Tom", "Emily"),
                          context=place(home, "Alan", "living room"),
                          label="Alan is in the living room"),
            PriorityOrder(f"{home}/tv", ("Alan", "Emily", "Tom"),
                          context=TimeWindowAtom(hhmm(0, 30), hhmm(1, 30)),
                          label="after midnight"),
        )
    ]
    if len(homes) > 1:
        orders.append(PriorityOrder(f"{LOBBY}/display",
                                    ("fire-chief", "manager")))
    return orders


#: The labels of the tv's context-attached orders.
CONTEXT_LABELS = {"Alan is in the living room", "after midnight"}


def context_labels(trace):
    """The labels of the context orders that ``trace``'s decisions
    name."""
    return {label for label in CONTEXT_LABELS for entry in trace
            if entry.detail.endswith(f"(when {label}))")}


def spare_order(home):
    """The order churn adds and removes.  Its id is fixed, so a fresh
    object on each side names the same order."""
    return PriorityOrder(f"{home}/tv", ("Tom", "Alan", "Emily"),
                         context=DiscreteAtom(dark_var(home), "true"),
                         label="the hall is dark",
                         order_id=10**9 + HOMES.index(home))


def trace_homes(homes):
    return tuple(homes) + ((LOBBY,) if len(homes) > 1 else ())


# -- the life -----------------------------------------------------------------

#: Clock advances: up to 40 minutes, so durations (600 s) and window
#: boundaries fire mid-life.
JUMPS = (301.5, 660.25, 1501.75, 2400.75)
#: Advances for lives that must cross several midnights.
LONG_JUMPS = (1501.75, 7200.5, 14400.25, 25200.75)
#: The time between two ops that are not advances.
STEPS = (0.75, 1.25, 2.5, 6.25, 13.75)


def script(seed, homes=(HOME,), steps=48, *, ckpt_every=9, churn=False,
           toggles=False, jumps=JUMPS):
    """A deterministic life: ``(t, kind, a, b, c)`` ops with increasing
    times, multiples of 0.25 s; advances draw from ``jumps``.

    Kinds: ``w`` (write ``b`` to ``a``), ``burst`` (write each of ``b``
    to ``a``), ``e`` (event ``a`` with subject ``b``, scoped to home
    ``c`` or broadcast), ``a`` (advance only), ``ckpt`` (checkpoint a
    durable side), and with ``churn``: ``+`` (register the rules named
    ``a``), ``-`` (remove rule ``a``), ``drop-held``/``drop-denied`` (the
    judge removes a rule of home ``a`` holding a device / DENIED),
    ``readd`` (re-register what was dropped), ``order+``/``order-`` (add
    or remove :func:`spare_order` of home ``a``) and, with ``toggles``,
    ``toggle`` (set rule ``a``'s ``enabled`` to ``b``)."""
    rng = seeded_rng(f"life-{seed}")
    spikes = seeded_rng(f"spikes-{seed}") if len(homes) > 1 else None
    churn_at = {}
    if churn:
        home = homes[seed % len(homes)]
        plan = [("drop-held", home, None), ("order+", home, None),
                ("+", tuple(r.name for r in late_rules(homes)), homes),
                ("drop-denied", home, None), ("readd", None, None),
                ("order-", home, None)]
        if len(homes) > 1:
            plan.append(("-", "bldg-any-smoke", None))
        if toggles:
            plan[1:1] = [("toggle", f"{home}-cool", False),
                         ("toggle", f"{home}-offgrid", False)]
            plan[6:6] = [("toggle", f"{home}-cool", True),
                         ("toggle", f"{home}-offgrid", True)]
        churn_at = {steps * (index + 1) // (len(plan) + 1): op
                    for index, op in enumerate(plan)}
    late = False
    ops = []
    t = 0.0
    for step in range(steps):
        home = homes[rng.randrange(len(homes))]
        roll = rng.random()
        t += rng.choice(jumps if roll < 0.14 else STEPS)
        if roll < 0.14:
            ops.append((t, "a", None, None, None))
        elif roll < 0.20:
            # A context flip while a DENIED rule waits: Alan's news wants
            # the tv, Emily's movie holds it, then Alan walks in or out.
            for variable, value in ((humid(home), 30.0),
                                    (place_var(home, "Emily"), "living room"),
                                    (place_var(home, "Alan"),
                                     rng.choice(ROOMS))):
                ops.append((t, "w", variable, value, None))
                t += 0.25
        elif roll < 0.50:
            sensors = (temp, humid, lux, smoke) + ((co2,) if late else ())
            variable = rng.choice(sensors)(home)
            values = rng.sample(VALUE_GRID, rng.choice((1, 1, 1, 3, 5)))
            if len(values) == 1:
                ops.append((t, "w", variable, values[0], None))
            else:
                ops.append((t, "burst", variable, tuple(values), None))
        elif roll < 0.70:
            person = rng.choice(PEOPLE)
            ops.append(
                (t, "w", place_var(home, person), rng.choice(ROOMS), None))
        elif roll < 0.76:
            members = frozenset(
                keyword for keyword in KEYWORDS if rng.random() < 0.4)
            ops.append((t, "w", epg_var(home), members, None))
        elif roll < 0.86:
            variable = rng.choice((door_var, dark_var))(home)
            ops.append((t, "w", variable, rng.choice(("true", "false")), None))
        else:
            scope = None if rng.random() < 0.3 else home
            ops.append(
                (t, "e", rng.choice(EVENTS), rng.choice(PEOPLE), scope))
        if spikes is not None and spikes.random() < 0.08:
            # A smoke spike at the building rules' mirrored sensors.
            t += 0.25
            ops.append((t, "burst", smoke(spikes.choice(homes)),
                        tuple(spikes.sample((15.0, 32.5, 45.0), 2)), None))
        if step in churn_at:
            t += 0.25
            kind, a, b = churn_at[step]
            ops.append((t, kind, a, b, None))
            late = late or kind == "+"
        if ckpt_every and (step + 1) % ckpt_every == 0:
            t += 0.5
            ops.append((t, "ckpt", None, None, None))
    return ops


def end_time_of(ops):
    """Late enough past the last op for every pending duration timer and
    window boundary to have fired on both sides."""
    return ops[-1][0] + 1300.0


# -- the servers --------------------------------------------------------------


class MergedServer(HomeServer):
    """One engine serving every home behind the cluster's surface.

    With ``incremental=False`` it is the judge's oracle; with the
    default it is the engine fast path.  A home-scoped event reaches the
    rules anchored in that home plus every rule whose condition reads
    it, as the cluster's routing does.  ``batch`` holds writes until
    :meth:`flush` and applies them with one ``ingest_batch``; ``tune``
    adjusts the engine before any rule registers."""

    def __init__(self, homes=(HOME,), *, batch=False, tune=None, **kwargs):
        simulator = Simulator()
        super().__init__(simulator, NetworkBus(simulator), **kwargs)
        self.engine.dispatch = lambda spec: None
        self.rule_truth = self.engine.rule_truth
        self.rule_state = self.engine.rule_state
        self.holder_of = self.engine.holder_of
        if tune is not None:
            tune(self.engine)
        self.pending = [] if batch else None
        self.batch_deltas = [0, 0]
        self.anchor = {}
        self.reach = {}
        populate(self, homes)

    def register_rule(self, rule):
        anchor = home_key(min(rule.devices()))
        self.anchor[rule.name] = anchor
        self.reach[rule.name] = {anchor} | {
            home_key(variable)
            for variable in rule.condition.referenced_variables()
            if not is_ambient(variable)}
        return super().register_rule(rule)

    def remove_rule(self, name):
        del self.reach[name]
        return super().remove_rule(name)

    def remove_priority_order(self, order):
        self.priorities.remove_order(order.order_id)

    def ingest(self, variable, value):
        if self.pending is None:
            super().ingest(variable, value)
        else:
            self.pending.append((variable, value))

    def flush(self):
        if self.pending:
            flips, touched = self.ingest_batch(self.pending)
            self.batch_deltas[0] += flips
            self.batch_deltas[1] += touched
            self.pending = []

    def post_event(self, event_type, subject=None, *, home=None):
        self.flush()
        only = None if home is None else {
            name for name, homes in self.reach.items() if home in homes}
        self.engine.post_event(event_type, subject, only=only)

    def trace(self, home=None):
        return [entry for entry in self.engine.trace
                if home is None or self.anchor.get(entry.rule) == home]


def populate(server, homes):
    for rule in fresh_rules(homes):
        server.register_rule(rule)
    for order in priority_orders(homes):
        server.add_priority_order(order)


def new_cluster(simulator, homes=(HOME,), **kwargs):
    """A cluster serving the population of ``homes``.  Coalescing
    defaults off so every intermediate edge survives into the trace
    (the strictest equivalence surface)."""
    kwargs.setdefault("shard_count", 1)
    kwargs.setdefault("coalesce", False)
    server = ClusterServer(simulator, **kwargs)
    populate(server, homes)
    return server


def restore(directory, homes=(HOME,), **kwargs):
    """Restore the population's cluster from a durability directory onto
    a fresh simulator."""
    return restore_cluster(
        str(directory), Simulator(), fresh_rules(homes),
        priority_orders=priority_orders(homes), **kwargs,
    )


def abandon(server):
    """Leave a crashed cluster as a killed process would, but release
    its WAL handles: appends flush as they go, so closing changes
    nothing on disk."""
    if server.durability is not None:
        server.durability.close()


# -- the op loop --------------------------------------------------------------


def step(server, op):
    """Apply one op to one server at its time, then settle."""
    t, kind, a, b, c = op
    if t > server.simulator.now:
        server.simulator.run_until(t)
    if kind == "w":
        server.ingest(a, b)
    elif kind == "burst":
        for value in b:
            server.ingest(a, value)
    elif kind == "e":
        server.post_event(a, b, home=c)
    elif kind == "ckpt":
        if getattr(server, "durability", None) is not None:
            server.checkpoint()
    elif kind == "+":
        for rule in rules_named(a, b):
            server.register_rule(rule)
    elif kind == "-":
        server.remove_rule(a)
    elif kind == "toggle":
        if isinstance(server, MergedServer):
            database = server.database
        else:
            database = server.shards[server.shard_of_rule(a)].database
        database.get(a).enabled = b
    elif kind == "order+":
        server.add_priority_order(spare_order(a))
    elif kind == "order-":
        server.remove_priority_order(spare_order(a))
    server.flush()


def drive(server, ops, start=0, stop=None):
    """The op loop: apply ``ops[start:stop]`` to one server, settling
    after each.  Returns the index of the op whose handling crashed, or
    ``None``."""
    for index in range(start, len(ops) if stop is None else stop):
        try:
            step(server, ops[index])
        except SimulatedCrash:
            return index
    return None


def settle_at(server, end_time):
    server.simulator.run_until(end_time)
    server.flush()


def resume_index(ops, applied):
    """Index of the first op not yet durably applied, given a restored
    single-shard cluster's applied-entry count (coalescing off: one
    entry per write or event).  Ops that log nothing in between are
    skipped; a restore's attach already checkpointed."""
    seen = 0
    for index, op in enumerate(ops):
        entries = entries_of(op)
        if entries and seen == applied:
            return index
        seen += entries
    return len(ops)


def entries_of(op):
    """The entries one op logs on a single shard with coalescing off."""
    return len(op[3]) if op[1] == "burst" else int(op[1] in ("w", "e"))


# -- observation --------------------------------------------------------------


def observe(server, homes=(HOME,), names=None, devices=None, traces=True):
    """Everything the equivalence contract covers: rule truth, rule
    states, device holders (rule + action), and per-home traces as full
    five-tuples.  ``names`` and ``devices`` default to the population's."""
    if names is None:
        rules = fresh_rules(homes)
        names = [rule.name for rule in rules]
        devices = sorted({udn for rule in rules for udn in rule.devices()})
    truth, state, holder_of = \
        server.rule_truth, server.rule_state, server.holder_of
    holders = {}
    for udn in devices:
        holder = holder_of(udn)
        holders[udn] = holder and (holder[0], holder[1].action_name)
    return {
        "truth": {name: truth(name) for name in names},
        "state": {name: state(name) for name in names},
        "holders": holders,
        "traces": {
            home: [(entry.time, entry.kind, entry.rule, entry.device,
                    entry.detail) for entry in server.trace(home=home)]
            for home in (trace_homes(homes) if traces else ())
        },
    }


def assert_equivalent(actual, expected, context=""):
    note = f" [{context}]" if context else ""
    for section, values in expected.items():
        if actual[section] == values:
            continue
        for key, value in values.items():
            assert actual[section][key] == value, \
                f"{section} of {key!r} diverged{note}"


# -- the judge ----------------------------------------------------------------


def engine(**kwargs):
    """The engine on one merged server; ``batch`` and ``tune`` as in
    :class:`MergedServer`."""
    return lambda homes: MergedServer(homes, **kwargs)


def cluster(**kwargs):
    """A cluster; keyword arguments as in :class:`ClusterServer`."""
    return lambda homes: new_cluster(Simulator(), homes, **kwargs)


class Crashes:
    """A durable thread cluster under seeded crash plans, restored and
    resumed after every crash.  One shard may crash at any site; several
    shards only at checkpoint sites, where every shard's durable prefix
    is the whole history, so the resume point is exact.  Each plan after
    the first is armed on the cluster the previous crash restored; the
    last stays armed, spent, so restored planes walk its sites clean."""

    def __init__(self, directory, seeds, sites=ALL_CRASH_SITES, **kwargs):
        self.directory = directory
        self.plans = [FaultInjector.random(seed, sites) for seed in seeds]
        self.armed = list(self.plans)
        self.kwargs = kwargs
        self.restarts = 0

    def __call__(self, homes):
        self.homes = homes
        server = new_cluster(Simulator(), homes, **self.kwargs)
        server.attach_durability(DurabilityPlane(str(self.directory)))
        # Armed only after the attach checkpoint committed: a real fleet
        # enables durability healthy and crashes later.
        server.durability.arm_faults(self.armed[0])
        return server

    def recover(self, server, ops, index):
        """Restore after a crash handling ``ops[index]``; re-feed until
        the restored cluster has handled that op too."""
        crashed = index
        while crashed is not None:
            self.restarts += 1
            assert self.restarts <= 6, "crash/restore loop did not converge"
            abandon(server)
            server, report = restore(self.directory, self.homes)
            assert not report.rules_missing
            if len(self.armed) > 1:
                self.armed.pop(0)
            server.durability.arm_faults(self.armed[0])
            if server.router.shard_count == 1:
                start = resume_index(ops, server.bus.applied_counts[0])
            else:
                assert ops[crashed][1] == "ckpt"
                start = crashed + 1
            crashed = drive(server, ops, start, index + 1)
        # After a crash at a checkpoint nothing is left to re-feed: bring
        # the restored clock to the op's time, as handling it would have.
        if server.simulator.now < ops[index][0]:
            settle_at(server, ops[index][0])
        return server


class Oracle:
    """The oracle's run of one life: the ops with their churn resolved,
    what the oracle shows after every settled step (:attr:`steps`) and
    at the end, traces included (:attr:`end`).  The run is a function
    of the life, so :func:`oracle_of` makes it once for every test that
    judges the same life."""

    def __init__(self, ops, homes):
        self.homes = homes
        self.server = MergedServer(homes, incremental=False)
        rules = fresh_rules(homes)
        self.live = [rule.name for rule in rules]
        self.devices = {udn for rule in rules for udn in rule.devices()}
        self.dropped = []
        self.churned = set()
        self.ops, self.steps = [], []
        for op in ops:
            self.ops.append(self.resolve(op))
            drive(self.server, self.ops, len(self.ops) - 1)
            self.steps.append(self.observe(traces=False))
        settle_at(self.server, end_time_of(self.ops))
        self.end = self.observe(traces=True)
        self.server.shutdown()
        fired = {entry.rule for entry in self.server.trace()
                 if entry.kind == "fire"}
        assert fired, "life never fired a rule"
        assert len(homes) == 1 or fired & {
            rule.name for rule in cross_rules(homes)}, \
            "life never fired a building rule"

    def observe(self, traces):
        return observe(self.server, self.homes, self.live,
                       sorted(self.devices), traces)

    def resolve(self, op):
        """Name the rule a churn op removes, from the oracle's state
        (every side agreed with it at the last settled step)."""
        t, kind, a, b, c = op
        if kind in ("drop-held", "drop-denied"):
            mine = [name for name in self.live if name.startswith(a)]
            if kind == "drop-held":
                held = (self.server.holder_of(udn)
                        for udn in sorted(self.devices) if udn.startswith(a))
                found = next((holder[0] for holder in held if holder), None)
            else:
                found = next((name for name in mine if
                              self.server.rule_state(name) is RuleState.DENIED),
                             None)
            if found is None:
                return (t, "a", None, None, None)
            self.dropped.append(found)
            self.churned.add(kind)
            kind, a = "-", found
        elif kind == "readd":
            kind, a, b = "+", tuple(self.dropped), self.homes
            self.dropped = []
        elif kind in ("toggle", "-") and a not in self.live:
            return (t, "a", None, None, None)
        if kind == "+":
            for rule in rules_named(a, b):
                self.live.append(rule.name)
                self.devices |= rule.devices()
        elif kind == "-":
            self.live.remove(a)
        return (t, kind, a, b, c)


@functools.lru_cache(maxsize=16)
def oracle_of(ops, homes):
    """The :class:`Oracle` of the life ``ops`` (a tuple) over ``homes``."""
    return Oracle(ops, homes)


def changes(observation, last):
    """The rules and devices of ``observation`` that differ from the
    ``last`` one."""
    truth, state, holders = (observation[section] for section in
                             ("truth", "state", "holders"))
    names = [name for name in truth if (truth[name], state[name]) !=
             (last["truth"].get(name), last["state"].get(name))]
    devices = [udn for udn in holders if udn not in last["holders"]
               or holders[udn] != last["holders"][udn]]
    return dict(observation,
                truth={name: truth[name] for name in names},
                state={name: state[name] for name in names},
                holders={udn: holders[udn] for udn in devices})


class Judge:
    """One life through each configuration, held to the oracle.

    ``configs`` build a side from the homes (:func:`engine`,
    :func:`cluster` or a :class:`Crashes`).  :meth:`run` applies each of
    the oracle's resolved ops to every side through :func:`drive` and
    compares every side with what the oracle showed after that step; at
    the end it compares traces and asserts the coverage the
    configurations exist for."""

    def __init__(self, ops, *configs, homes=(HOME,)):
        life = oracle_of(tuple(ops), homes)
        self.oracle, self.ops, self.churned = life.server, life.ops, \
            life.churned
        self.steps, self.expected = life.steps, life.end
        self.homes = homes
        self.configs = configs
        self.sides = [config(homes) for config in configs]

    def run(self):
        """Drive the life and judge it."""
        last = None
        for index, expected in enumerate(self.steps):
            for position, server in enumerate(self.sides):
                if drive(server, self.ops, index, index + 1) is not None:
                    self.sides[position] = self.configs[position].recover(
                        server, self.ops, index)
            self.compare(expected, last, f"step {index}: {self.ops[index]}")
            last = expected
        for server in self.sides:
            settle_at(server, end_time_of(self.ops))
        self.compare(self.expected, None, "end")
        for config, server in zip(self.configs, self.sides):
            if isinstance(config, Crashes):
                assert all(plan.spent for plan in config.plans), \
                    [plan.describe() for plan in config.plans]
            if isinstance(server, ClusterServer):
                if server.bus.coalesce:
                    assert server.stats().coalesced > 0, "nothing coalesced"
                if len(server.shards) > 1 and len(self.homes) > 1 and \
                        not isinstance(config, Crashes):
                    assert server.stats().mirrored > 0, "no mirrored write"
        return self

    def compare(self, expected, last, context):
        """Compare every side with what the oracle showed.  A read from a
        worker process is a round trip, so given the ``last`` step's
        observation a worker side reads only the rules and devices the
        oracle changed since then; the end reads them all."""
        for index, server in enumerate(self.sides):
            want = expected
            if isinstance(server, ClusterServer):
                if server.backend == "process" and last is not None:
                    want = changes(expected, last)
                if server.bus.coalesce:
                    want = dict(want, traces={})
            assert_equivalent(
                observe(server, self.homes, list(want["truth"]),
                        list(want["holders"]), bool(want["traces"])),
                want, f"side {index}, {context}")

    def shutdown(self):
        for server in self.sides:
            server.shutdown()


def judge(ops, *configs, homes=(HOME,)):
    """Run one life through ``configs``, each held to the oracle;
    returns the judge after shutting every side down."""
    twin = Judge(ops, *configs, homes=homes)
    try:
        return twin.run()
    finally:
        twin.shutdown()
