"""Consistent-hash routing of home-prefixed identifiers onto shards.

The canonical variable naming scheme
(:func:`repro.core.server.variable_id`, ``"<udn>:<service_id>:<variable>"``)
already carries a device prefix; multi-home deployments extend it with a
home segment — ``"home-0007/thermo:svc:temperature"`` — so one string
names both the home and the sensor.  The router hashes the *home key*
(by default everything before the first ``/`` of the first ``:``
segment) onto a ring of shard points, guaranteeing that every variable
and device of one home lands on the same shard no matter how many
shards exist.

Consistent hashing (each shard owns many virtual points on a ring)
keeps the home→shard map stable when the shard count changes: growing
from N to N+1 shards moves only ~1/(N+1) of the homes, which is what a
production resharding wants.  The hash is :mod:`hashlib`-based, so
routing is stable across processes and ``PYTHONHASHSEED`` values —
a replayed event log routes identically on every run.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import RuleError

AMBIENT_PREFIXES = frozenset({"clock", "event"})
"""Pseudo-variable prefixes with no home identity (the simulated clock
and instantaneous events); they never constrain rule placement."""


@dataclass(frozen=True)
class PlacementPlan:
    """Two-phase placement decision for one rule.

    Attributes:
        home: the home key the rule is homed under — the rule registers
            on the shard owning this key, which arbitrates its devices.
        mirrors: condition variables owned by *other* homes; the cluster
            mirrors each one into the home shard via an ingest-bus
            subscription so the rule evaluates against live values.
    """

    home: str
    mirrors: frozenset[str] = frozenset()

    @property
    def spans_homes(self) -> bool:
        """Whether the rule reads variables outside its home."""
        return bool(self.mirrors)

    def describe(self) -> str:
        if not self.mirrors:
            return f"home {self.home}"
        return (
            f"home {self.home} + {len(self.mirrors)} mirrored "
            f"variable{'s' if len(self.mirrors) != 1 else ''}"
        )


def home_key(identifier: str) -> str:
    """Extract the home/zone key from a variable id or device UDN.

    ``"home-0007/thermo:svc:temperature"`` → ``"home-0007"``;
    ``"home-0007/aircon"`` → ``"home-0007"``; ids without a home segment
    fall back to their leading UDN token (``"thermo:t:temp"`` →
    ``"thermo"``), which still routes deterministically.
    """
    return identifier.split(":", 1)[0].split("/", 1)[0]


def is_ambient(identifier: str) -> bool:
    """Whether an identifier is an ambient pseudo-variable (the clock,
    instantaneous events).  Always judged by the *canonical* prefix
    parser, never a custom ``key_of``: ambient names are generated by
    the framework itself, independent of the deployment's home-naming
    scheme."""
    return home_key(identifier) in AMBIENT_PREFIXES


def stable_hash(text: str) -> int:
    """64-bit process-independent hash (ring positions, key lookup)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRouter:
    """Maps home keys onto ``shard_count`` shards via a hash ring.

    Args:
        shard_count: number of shards (≥ 1).
        replicas: virtual points per shard; more points smooth the
            per-shard load at the cost of a larger (static) ring.
        key_of: identifier → home-key extractor, replaceable for naming
            schemes the default cannot parse.
    """

    def __init__(
        self,
        shard_count: int,
        *,
        replicas: int = 128,
        key_of: Callable[[str], str] = home_key,
    ) -> None:
        if shard_count < 1:
            raise RuleError(f"shard_count must be >= 1: {shard_count}")
        if replicas < 1:
            raise RuleError(f"replicas must be >= 1: {replicas}")
        self.shard_count = shard_count
        self.key_of = key_of
        points = sorted(
            (stable_hash(f"shard-{shard}#{replica}"), shard)
            for shard in range(shard_count)
            for replica in range(replicas)
        )
        self._ring_positions = [position for position, _ in points]
        self._ring_shards = [shard for _, shard in points]
        # identifier -> shard: placement is a pure function of the
        # identifier, and every publish asks for it.
        self._shard_of: dict[str, int] = {}

    # -- routing ---------------------------------------------------------------

    def shard_of_key(self, key: str) -> int:
        """Shard owning a home key (first ring point at or after its hash)."""
        index = bisect_right(self._ring_positions, stable_hash(key))
        if index == len(self._ring_positions):
            index = 0  # wrap around the ring
        return self._ring_shards[index]

    def shard_of(self, identifier: str) -> int:
        """Shard owning a variable id / device UDN (via its home key)."""
        shard = self._shard_of.get(identifier)
        if shard is None:
            shard = self._shard_of[identifier] = \
                self.shard_of_key(self.key_of(identifier))
        return shard

    # -- rule placement --------------------------------------------------------

    def placement_plan(
        self,
        variables: Iterable[str],
        devices: Iterable[str],
        *,
        until_variables: Iterable[str] = (),
        rule_name: str = "",
    ) -> "PlacementPlan":
        """Two-phase placement for a rule: a home plus a mirror set.

        The rule is **homed** on the shard owning its *anchor* — the
        home key of its action devices and ``until`` variables (the
        footprint arbitration and the until-postcondition must observe
        locally).  Every condition variable owned by another home is
        returned in the **mirror set**: the cluster subscribes the home
        shard to those variables on the ingest bus, so the rule reads
        them through the normal ingest path.  Ambient pseudo-variables
        (clock, events) carry no home identity and never constrain
        placement or mirroring.

        An anchor spanning several homes is still rejected: a device
        grant is arbitrated by the shard owning the device, so one
        rule's actions (primary, fallback, stop) and its ``until`` must
        live under a single home key.  Rules with no anchor fall back
        to their condition footprint when it names exactly one home.
        """
        label = f"rule {rule_name!r}" if rule_name else "rule"
        key_of = self.key_of
        anchors = {key_of(udn) for udn in devices}
        anchors.update(
            key_of(v) for v in until_variables if not is_ambient(v)
        )
        # Each condition variable's home key, ambient ones left out.
        keys = {
            variable: key_of(variable)
            for variable in variables
            if not is_ambient(variable)
        }
        condition_keys = set(keys.values())
        if len(anchors) > 1:
            raise RuleError(
                f"{label} anchors to multiple homes "
                f"({', '.join(sorted(anchors))}); action devices and "
                "until variables must live under one home key — only "
                "condition variables may span homes (they are mirrored)"
            )
        if anchors:
            home = anchors.pop()
        elif len(condition_keys) == 1:
            home = next(iter(condition_keys))
        elif condition_keys:
            raise RuleError(
                f"{label} has no action device or until variable to "
                f"anchor its home and its condition spans "
                f"({', '.join(sorted(condition_keys))}); cannot choose "
                "a home shard"
            )
        else:
            raise RuleError(
                f"{label} references no home-keyed variable or device; "
                "cannot derive a shard placement"
            )
        mirrors = frozenset(
            variable for variable, key in keys.items() if key != home
        )
        return PlacementPlan(home=home, mirrors=mirrors)

    def describe(self) -> str:
        return (
            f"ShardRouter({self.shard_count} shards, "
            f"{len(self._ring_positions)} ring points)"
        )
