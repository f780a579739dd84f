"""GENA-style eventing: subscriptions, notifications, expiry.

A device hosts one :class:`EventingEngine`.  Control points SUBSCRIBE to
a service and receive (1) an immediate initial NOTIFY carrying the full
variable snapshot — real UPnP behaviour, and what lets the rule engine
seed its variable table — then (2) incremental NOTIFYs on every evented
variable change.  Subscriptions expire unless renewed; expiry runs on
the virtual clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.errors import SubscriptionError
from repro.net.bus import NetworkBus
from repro.net.message import Message
from repro.sim.events import EventHandle, Simulator

METHOD_SUBSCRIBE = "SUBSCRIBE"
METHOD_UNSUBSCRIBE = "UNSUBSCRIBE"
METHOD_RENEW = "RENEW"
METHOD_EVENT_NOTIFY = "EVENT-NOTIFY"
METHOD_SUBSCRIBE_OK = "SUBSCRIBE-OK"

DEFAULT_TIMEOUT = 1800.0  # seconds, the common UPnP default of 30 minutes

_sid_counter = itertools.count(1)


@dataclass
class Subscription:
    """One control point's subscription to one service."""

    sid: str
    service_id: str
    subscriber: str
    expires_at: float
    expiry_handle: EventHandle | None = None
    event_seq: int = 0


class EventingEngine:
    """Per-device subscription table and notification dispatcher."""

    def __init__(self, device_address: str, bus: NetworkBus, simulator: Simulator):
        self._address = device_address
        self._bus = bus
        self._simulator = simulator
        self._subscriptions: dict[str, Subscription] = {}

    def subscriptions_for(self, service_id: str) -> list[Subscription]:
        return [s for s in self._subscriptions.values() if s.service_id == service_id]

    def subscribe(
        self,
        service_id: str,
        subscriber: str,
        snapshot: dict[str, Any] | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> Subscription:
        """Create a subscription; when ``snapshot`` is given, immediately
        send the initial full-state NOTIFY (otherwise the caller sends it
        later via :meth:`send_initial`, e.g. after acknowledging)."""
        if timeout <= 0:
            raise SubscriptionError(f"timeout must be positive: {timeout}")
        sid = f"uuid:sub-{next(_sid_counter)}"
        sub = Subscription(
            sid=sid,
            service_id=service_id,
            subscriber=subscriber,
            expires_at=self._simulator.now + timeout,
        )
        self._subscriptions[sid] = sub
        self._arm_expiry(sub, timeout)
        if snapshot is not None:
            self._notify(sub, dict(snapshot), initial=True)
        return sub

    def send_initial(self, sub: Subscription, snapshot: dict[str, Any]) -> None:
        """Send the full-state NOTIFY for a freshly created subscription."""
        self._notify(sub, dict(snapshot), initial=True)

    def renew(self, sid: str, timeout: float = DEFAULT_TIMEOUT) -> Subscription:
        sub = self._subscriptions.get(sid)
        if sub is None:
            raise SubscriptionError(f"unknown subscription id {sid!r}")
        if sub.expiry_handle is not None:
            sub.expiry_handle.cancel()
        sub.expires_at = self._simulator.now + timeout
        self._arm_expiry(sub, timeout)
        return sub

    def unsubscribe(self, sid: str) -> None:
        sub = self._subscriptions.pop(sid, None)
        if sub is None:
            raise SubscriptionError(f"unknown subscription id {sid!r}")
        if sub.expiry_handle is not None:
            sub.expiry_handle.cancel()

    def publish_change(self, service_id: str, variable: str, value: Any) -> None:
        """Push an incremental change to every live subscriber of a service."""
        for sub in self.subscriptions_for(service_id):
            self._notify(sub, {variable: value}, initial=False)

    def _arm_expiry(self, sub: Subscription, timeout: float) -> None:
        def expire() -> None:
            self._subscriptions.pop(sub.sid, None)

        sub.expiry_handle = self._simulator.call_after(timeout, expire)

    def _notify(self, sub: Subscription, changes: dict[str, Any], initial: bool) -> None:
        sub.event_seq += 1
        self._bus.send(
            Message(
                source=self._address,
                destination=sub.subscriber,
                headers={
                    "METHOD": METHOD_EVENT_NOTIFY,
                    "SID": sub.sid,
                    "SEQ": sub.event_seq,
                    "SERVICE-ID": sub.service_id,
                    "INITIAL": initial,
                },
                body=changes,
            )
        )
