"""The simulated network bus.

A :class:`NetworkBus` is a software switch: endpoints bind addresses,
optionally join multicast groups, and send :class:`~repro.net.message.Message`
datagrams.  Delivery is always asynchronous — the bus schedules the
receiver callback on the shared :class:`~repro.sim.events.Simulator`
after the latency model's delay — which preserves the ordering and
re-entrancy behaviour of a real protocol stack (a device answering an
SSDP search does so in a *later* event, exactly like real UPnP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NetworkError
from repro.net.latency import LatencyModel, ZeroLatency
from repro.net.message import Message
from repro.sim.events import Simulator

ReceiveCallback = Callable[[Message], None]


@dataclass
class Endpoint:
    """A bound network address with its receive callback."""

    address: str
    on_receive: ReceiveCallback
    groups: set[str] = field(default_factory=set)


class NetworkBus:
    """Unicast + multicast datagram delivery over the simulation queue.

    Args:
        simulator: shared event kernel used for deferred delivery.
        latency: one-way delay model (default: zero).
        drop_rate: fraction of datagrams silently dropped, for failure
            injection tests (default 0; deterministic via ``seed``).
    """

    def __init__(
        self,
        simulator: Simulator,
        latency: LatencyModel | None = None,
        drop_rate: float = 0.0,
        seed: int | str | None = None,
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise NetworkError(f"drop_rate must be in [0, 1]: {drop_rate}")
        self.simulator = simulator
        self.latency = latency if latency is not None else ZeroLatency()
        self.drop_rate = drop_rate
        self._endpoints: dict[str, Endpoint] = {}
        self._groups: dict[str, set[str]] = {}
        self._rng = None
        if drop_rate > 0.0:
            from repro.sim.rng import seeded_rng

            self._rng = seeded_rng(seed if seed is not None else "bus-drops")
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # -- endpoint management -------------------------------------------------

    def bind(self, address: str, on_receive: ReceiveCallback) -> Endpoint:
        """Register ``address``; raises if it is already bound."""
        if address in self._endpoints:
            raise NetworkError(f"address already bound: {address!r}")
        endpoint = Endpoint(address=address, on_receive=on_receive)
        self._endpoints[address] = endpoint
        return endpoint

    def unbind(self, address: str) -> None:
        """Remove an endpoint and its group memberships."""
        endpoint = self._endpoints.pop(address, None)
        if endpoint is None:
            raise NetworkError(f"address not bound: {address!r}")
        for group in endpoint.groups:
            members = self._groups.get(group)
            if members is not None:
                members.discard(address)

    def join_group(self, address: str, group: str) -> None:
        """Subscribe a bound endpoint to a multicast group."""
        endpoint = self._require_endpoint(address)
        endpoint.groups.add(group)
        self._groups.setdefault(group, set()).add(address)

    def leave_group(self, address: str, group: str) -> None:
        endpoint = self._require_endpoint(address)
        endpoint.groups.discard(group)
        members = self._groups.get(group)
        if members is not None:
            members.discard(address)

    def addresses(self) -> list[str]:
        return sorted(self._endpoints)

    def group_members(self, group: str) -> list[str]:
        return sorted(self._groups.get(group, ()))

    # -- datagram delivery ---------------------------------------------------

    def send(self, message: Message) -> None:
        """Deliver to a unicast address or fan out to a multicast group.

        Unknown unicast destinations are a silent drop (datagram
        semantics), counted in ``dropped_count`` for observability.
        """
        self.sent_count += 1
        if message.destination in self._groups:
            for member in sorted(self._groups[message.destination]):
                if member == message.source:
                    continue  # no multicast loopback, matching SSDP practice
                self._deliver_later(message, member)
            return
        if message.destination in self._endpoints:
            self._deliver_later(message, message.destination)
            return
        self.dropped_count += 1

    def _deliver_later(self, message: Message, receiver_address: str) -> None:
        if self._rng is not None and self._rng.random() < self.drop_rate:
            self.dropped_count += 1
            return
        delay = self.latency.delay(message.source, receiver_address)

        def deliver() -> None:
            endpoint = self._endpoints.get(receiver_address)
            if endpoint is None:
                self.dropped_count += 1  # receiver unbound in flight
                return
            self.delivered_count += 1
            endpoint.on_receive(message)

        self.simulator.call_after(delay, deliver)

    def _require_endpoint(self, address: str) -> Endpoint:
        endpoint = self._endpoints.get(address)
        if endpoint is None:
            raise NetworkError(f"address not bound: {address!r}")
        return endpoint
