"""Shared scenario for the durability suites.

One compact rule population per home covering every engine feature class
(stop actions, untils, arbitration with fallback, negation, EPG
membership, a near-origin time window, events, duration atoms), the
tv's priority orders (context-free, presence-context and
time-window-context, so context flips re-arbitrate DENIED rules), a
seeded op-script generator, and drive/observe helpers used by both the
unit-level recovery tests and the randomized restart-equivalence suite.

Script times advance in steps that are multiples of 0.25 s, so they
often land on whole seconds: over seeds 0-15 on the four ``HOMES``,
216 of 848 op times are whole seconds and 4 fall on the 60-s clock-tick
grid.  The scripts therefore do not keep ingest batches away from
whole-second timers; an op at exactly a timer's instant is the tie
documented as a known limitation in :mod:`repro.cluster.durability`,
which ROADMAP item 5a's (time, phase, seq) order is to close.
"""

from repro.cluster import ClusterServer, restore_cluster
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
from repro.core.priority import PriorityOrder
from repro.core.rule import Rule
from repro.sim.clock import hhmm
from repro.sim.events import Simulator
from repro.sim.faults import SimulatedCrash
from repro.sim.rng import seeded_rng
from repro.solver.linear import LinearConstraint, LinearExpr, Relation

HOME = "home-0000"
HOMES = tuple(f"home-{index:04d}" for index in range(4))
PEOPLE = ("Tom", "Alan", "Emily")
ROOMS = ("living room", "kitchen", "bedroom", "hall")
KEYWORDS = ("baseball", "news", "movie", "jazz")
EVENTS = ("returns home", "leaves home")
VALUE_GRID = [15.0 + 0.5 * i for i in range(60)]


def temp(home):
    return f"{home}/thermo:svc:temperature"


def humid(home):
    return f"{home}/hygro:svc:humidity"


def lux(home):
    return f"{home}/lux:svc:illuminance"


def place_var(home, person):
    return f"{home}/locator:svc:place-{person}"


def epg_var(home):
    return f"{home}/epg:svc:keywords"


def door_var(home):
    return f"{home}/door:svc:locked"


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


def build_rules(home):
    """Fresh rule objects for one home, touching every recovery-relevant
    engine path.  The time window sits at [00:00, 01:00) so short
    scripts cross its closing boundary — the wheel-restore hazard."""
    dev = lambda suffix: f"{home}/{suffix}"
    early = TimeWindowAtom(hhmm(0), hhmm(1), label="early")
    return [
        Rule(name=f"{home}-cool", owner="Tom",
             condition=num(temp(home), Relation.GT, 26.0),
             action=act(dev("aircon")),
             stop_action=act(dev("aircon"), "Off")),
        Rule(name=f"{home}-heat", owner="Alan",
             condition=num(temp(home), Relation.LT, 20.0),
             action=act(dev("heater")),
             until=num(temp(home), Relation.GT, 24.0),
             stop_action=act(dev("heater"), "Off")),
        Rule(name=f"{home}-tom-tv", owner="Tom",
             condition=OrCondition([place(home, "Tom", "living room"),
                                    place(home, "Alan", "living room")]),
             action=act(dev("tv"), "ShowJazz")),
        Rule(name=f"{home}-emily-tv", owner="Emily",
             condition=place(home, "Emily", "living room"),
             action=act(dev("tv"), "ShowMovie"),
             fallback=act(dev("recorder"), "Record")),
        Rule(name=f"{home}-alan-tv", owner="Alan",
             condition=num(humid(home), Relation.LT, 35.0),
             action=act(dev("tv"), "ShowNews")),
        Rule(name=f"{home}-lamp", owner="Tom",
             condition=AndCondition([
                 place(home, "Tom", "kitchen", negated=True),
                 num(lux(home), Relation.LT, 30.0)]),
             action=act(dev("lamp"))),
        Rule(name=f"{home}-ballgame", owner="Alan",
             condition=MembershipAtom(epg_var(home), "baseball"),
             action=act(dev("tv2"), "ShowBaseball")),
        Rule(name=f"{home}-early-lamp", owner="Tom",
             condition=AndCondition([early,
                                     place(home, "Tom", "living room")]),
             action=act(dev("lamp2"))),
        Rule(name=f"{home}-hall-light", owner="Tom",
             condition=EventAtom("returns home"),
             action=act(dev("hall-light"))),
        Rule(name=f"{home}-door-alarm", owner="Emily",
             condition=DurationAtom(
                 DiscreteAtom(door_var(home), "false"), 600.0),
             action=act(dev("alarm")), stop_action=act(dev("alarm"), "Off")),
        Rule(name=f"{home}-muggy", owner="Alan",
             condition=NumericAtom(LinearConstraint.make(
                 LinearExpr.var(temp(home)) - LinearExpr.var(humid(home)),
                 Relation.GT, 5.0)),
             action=act(dev("dehumid"))),
    ]


def fresh_rules(homes):
    return [rule for home in homes for rule in build_rules(home)]


def tv_orders(homes):
    """Fresh priority orders for each home's tv: Emily over Tom (Alan
    unranked) by default; Alan first while Tom is in the kitchen or
    between 00:30 and 01:30 (a window short scripts open and close)."""
    return [
        order
        for home in homes
        for order in (
            PriorityOrder(f"{home}/tv", ("Emily", "Tom")),
            PriorityOrder(f"{home}/tv", ("Alan", "Tom", "Emily"),
                          context=place(home, "Tom", "kitchen"),
                          label="Tom is in the kitchen"),
            PriorityOrder(f"{home}/tv", ("Alan", "Emily", "Tom"),
                          context=TimeWindowAtom(hhmm(0, 30), hhmm(1, 30)),
                          label="after midnight"),
        )
    ]


def devices_of(home):
    return sorted({
        udn for rule in build_rules(home) for udn in rule.devices()
    })


# -- op scripts ------------------------------------------------------------------


def script(seed, homes=(HOME,), steps=48, ckpt_every=9):
    """A deterministic op script: ``(t, kind, a, b, c)`` tuples with
    strictly increasing times (multiples of 0.25 s), checkpoint markers
    every ``ckpt_every`` steps, and occasional big jumps so duration
    atoms (600 s) and the window boundary (3600 s) fire mid-script."""
    rng = seeded_rng(f"durability-script-{seed}")
    ops = []
    t = 0.0
    for step in range(steps):
        if rng.random() < 0.10:
            t += rng.choice((301.5, 660.25, 1501.75))
        else:
            t += rng.choice((0.75, 1.25, 2.5, 6.25, 13.75))
        home = homes[rng.randrange(len(homes))]
        roll = rng.random()
        if roll < 0.40:
            variable = rng.choice((temp(home), humid(home), lux(home)))
            ops.append((t, "w", variable, rng.choice(VALUE_GRID), None))
        elif roll < 0.70:
            person = rng.choice(PEOPLE)
            ops.append(
                (t, "w", place_var(home, person), rng.choice(ROOMS), None))
        elif roll < 0.78:
            members = frozenset(
                keyword for keyword in KEYWORDS if rng.random() < 0.4)
            ops.append((t, "w", epg_var(home), members, None))
        elif roll < 0.86:
            ops.append(
                (t, "w", door_var(home), rng.choice(("true", "false")), None))
        else:
            ops.append(
                (t, "e", rng.choice(EVENTS), rng.choice(PEOPLE), home))
        if (step + 1) % ckpt_every == 0:
            t += 0.5
            ops.append((t, "ckpt", None, None, None))
    return ops


def end_time_of(ops):
    """Late enough past the last op for every pending duration timer and
    window boundary to have fired on both sides."""
    return ops[-1][0] + 1300.0


def apply_op(server, op):
    _t, kind, a, b, c = op
    if kind == "w":
        server.ingest(a, b)
    else:
        server.post_event(a, b, home=c)


# -- drivers ---------------------------------------------------------------------


def new_cluster(simulator, homes=(HOME,), **kwargs):
    """A cluster with the scenario's rules and tv priorities registered.
    Coalescing defaults off so every intermediate edge survives into the
    trace (the strictest equivalence surface)."""
    kwargs.setdefault("shard_count", 1)
    kwargs.setdefault("coalesce", False)
    server = ClusterServer(simulator, **kwargs)
    for home in homes:
        for rule in build_rules(home):
            server.register_rule(rule)
    for order in tv_orders(homes):
        server.add_priority_order(order)
    return server


def drive_uninterrupted(server, ops, end_time):
    """The crash-free twin: same ops, checkpoint markers skipped."""
    simulator = server.simulator
    for op in ops:
        if op[1] == "ckpt":
            continue
        simulator.run_until(op[0])
        apply_op(server, op)
        server.flush()
    simulator.run_until(end_time)
    server.flush()


def drive_durable(server, ops, start=0):
    """Drive the durable side from ``ops[start:]``, settling after every
    op.  Returns the index of the op whose handling crashed, or ``None``
    when the script completed."""
    simulator = server.simulator
    for index in range(start, len(ops)):
        op = ops[index]
        try:
            if op[0] > simulator.now:
                simulator.run_until(op[0])
            if op[1] == "ckpt":
                server.checkpoint()
            else:
                apply_op(server, op)
                server.flush()
        except SimulatedCrash:
            return index
    return None


def abandon(server):
    """Leave a crashed cluster as a killed process would, but release
    its WAL handles: appends flush as they go, so closing changes
    nothing on disk."""
    if server.durability is not None:
        server.durability.close()


def resume_index(ops, applied):
    """Index of the first op not yet durably applied, given a restored
    cluster's applied-entry count (single shard, one entry per op).
    Checkpoint markers between the durable prefix and that op are
    skipped — re-checkpointing is harmless but pointless, since a
    restore's attach already checkpointed."""
    seen = 0
    for index, op in enumerate(ops):
        if op[1] == "ckpt":
            continue
        if seen == applied:
            return index
        seen += 1
    return len(ops)


def restore(directory, homes=(HOME,), **kwargs):
    """Restore the scenario's cluster from a durability directory onto a
    fresh simulator."""
    return restore_cluster(
        str(directory), Simulator(), fresh_rules(homes),
        priority_orders=tv_orders(homes), **kwargs,
    )


# -- observation -----------------------------------------------------------------


def observe(server, homes=(HOME,)):
    """Everything the equivalence contract covers: rule truth, rule
    states, device holders (rule + action), and per-home traces as full
    five-tuples."""
    snapshot = {"truth": {}, "state": {}, "holders": {}, "traces": {}}
    for home in homes:
        for rule in build_rules(home):
            snapshot["truth"][rule.name] = server.rule_truth(rule.name)
            snapshot["state"][rule.name] = server.rule_state(rule.name).value
        for udn in devices_of(home):
            holder = server.holder_of(udn)
            snapshot["holders"][udn] = (
                None if holder is None else (holder[0], holder[1].action_name)
            )
        snapshot["traces"][home] = [
            (entry.time, entry.kind, entry.rule, entry.device, entry.detail)
            for entry in server.trace(home=home)
        ]
    return snapshot


def assert_equivalent(actual, expected, context=""):
    note = f" [{context}]" if context else ""
    for name, truth in expected["truth"].items():
        assert actual["truth"][name] == truth, \
            f"truth of {name!r} diverged{note}"
    for name, state in expected["state"].items():
        assert actual["state"][name] == state, \
            f"state of {name!r} diverged{note}"
    for udn, holder in expected["holders"].items():
        assert actual["holders"][udn] == holder, \
            f"holder of {udn!r} diverged{note}"
    for home, trace in expected["traces"].items():
        assert actual["traces"][home] == trace, \
            f"trace of {home} diverged{note}"
