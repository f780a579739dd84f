"""UPnP devices: description, discovery answers, control, eventing.

A :class:`UPnPDevice` owns a set of services, binds a unicast address on
the simulated bus, joins the SSDP multicast group, and speaks the wire
protocol: it answers matching ``M-SEARCH`` requests, serves its
description document, executes ``INVOKE`` requests against its services
and manages GENA subscriptions.

Appliance and sensor models in :mod:`repro.home` subclass this (or embed
it) and only deal in services/state variables — all protocol handling
lives here.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.errors import ActionError, UPnPError
from repro.net.bus import NetworkBus
from repro.net.message import Message
from repro.sim.events import Simulator
from repro.upnp import ssdp
from repro.upnp.eventing import (
    DEFAULT_TIMEOUT,
    METHOD_EVENT_NOTIFY,
    METHOD_RENEW,
    METHOD_SUBSCRIBE,
    METHOD_SUBSCRIBE_OK,
    METHOD_UNSUBSCRIBE,
    EventingEngine,
)
from repro.upnp.service import Service

METHOD_GET_DESCRIPTION = "GET-DESCRIPTION"
METHOD_DESCRIPTION = "DESCRIPTION"
METHOD_INVOKE = "INVOKE"
METHOD_INVOKE_OK = "INVOKE-OK"
METHOD_INVOKE_ERROR = "INVOKE-ERROR"
METHOD_ERROR = "ERROR"

_udn_counter = itertools.count(1)


def make_udn(prefix: str = "dev") -> str:
    """Generate a unique device name (deterministic counter, not uuid4,
    so traces and tests are stable)."""
    return f"{prefix}-{next(_udn_counter):05d}"


class UPnPDevice:
    """A network-visible device hosting one or more services.

    Args:
        friendly_name: human name shown in lookup UIs ("living room TV").
        device_type: URN such as ``"urn:repro:device:TV:1"``.
        location: place name used by location-scoped retrieval
            ("living room", "hall"...).
        keywords: free-text tags for keyword retrieval.
        category: coarse class for the lookup service: ``"appliance"``,
            ``"sensor"`` or ``"interface"``.
        udn: unique device name; autogenerated when omitted.
    """

    def __init__(
        self,
        friendly_name: str,
        device_type: str,
        *,
        location: str = "",
        keywords: tuple[str, ...] = (),
        category: str = "appliance",
        manufacturer: str = "repro",
        udn: str | None = None,
    ) -> None:
        if category not in ("appliance", "sensor", "interface"):
            raise UPnPError(f"bad device category: {category!r}")
        self.friendly_name = friendly_name
        self.device_type = device_type
        self.location = location
        self.keywords = tuple(keywords)
        self.category = category
        self.manufacturer = manufacturer
        self.udn = udn if udn is not None else make_udn()
        self.address = f"dev:{self.udn}"
        self._services: dict[str, Service] = {}
        self._bus: NetworkBus | None = None
        self._simulator: Simulator | None = None
        self._eventing: EventingEngine | None = None
        self._online = False

    # -- composition -----------------------------------------------------------

    def add_service(self, service: Service) -> Service:
        if service.service_id in self._services:
            raise UPnPError(f"duplicate service id {service.service_id!r}")
        service.owner_name = self.friendly_name
        self._services[service.service_id] = service
        service.on_change(self._on_variable_change)
        return service

    def service(self, service_id: str) -> Service:
        try:
            return self._services[service_id]
        except KeyError:
            raise UPnPError(
                f"device {self.friendly_name!r} has no service {service_id!r}"
            ) from None

    def services(self) -> list[Service]:
        return list(self._services.values())

    def service_types(self) -> list[str]:
        return [s.service_type for s in self._services.values()]

    # -- lifecycle ---------------------------------------------------------------

    def attach(self, bus: NetworkBus, simulator: Simulator) -> None:
        """Bind the device address, join SSDP, announce ssdp:alive."""
        if self._online:
            raise UPnPError(f"device {self.friendly_name!r} already attached")
        self._bus = bus
        self._simulator = simulator
        self._eventing = EventingEngine(self.address, bus, simulator)
        bus.bind(self.address, self._on_message)
        bus.join_group(self.address, ssdp.MULTICAST_GROUP)
        self._online = True
        bus.send(ssdp.notify(self.address, self.udn, ssdp.NTS_ALIVE, self.device_type))

    def detach(self) -> None:
        """Announce ssdp:byebye and leave the network."""
        if not self._online:
            raise UPnPError(f"device {self.friendly_name!r} not attached")
        assert self._bus is not None
        self._bus.send(
            ssdp.notify(self.address, self.udn, ssdp.NTS_BYEBYE, self.device_type)
        )
        self._bus.unbind(self.address)
        self._online = False
        self._bus = None
        self._simulator = None
        self._eventing = None

    # -- description ----------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Plain-data device description document (UPnP DDD analogue)."""
        return {
            "udn": self.udn,
            "friendly_name": self.friendly_name,
            "device_type": self.device_type,
            "location": self.location,
            "keywords": list(self.keywords),
            "category": self.category,
            "manufacturer": self.manufacturer,
            "address": self.address,
            "services": [s.describe() for s in self._services.values()],
        }

    # -- local convenience (used by home models, not the network path) ---------------

    def set_state(self, service_id: str, variable: str, value: Any) -> None:
        self.service(service_id).set_variable(variable, value)

    def get_state(self, service_id: str, variable: str) -> Any:
        return self.service(service_id).get_variable(variable)

    # -- protocol handling --------------------------------------------------------------

    def _on_variable_change(self, service_id: str, variable: str, value: Any) -> None:
        if self._eventing is not None:
            self._eventing.publish_change(service_id, variable, value)

    def _on_message(self, message: Message) -> None:
        method = message.header("METHOD")
        if method == ssdp.METHOD_MSEARCH:
            self._handle_msearch(message)
        elif method == METHOD_GET_DESCRIPTION:
            self._handle_get_description(message)
        elif method == METHOD_INVOKE:
            self._handle_invoke(message)
        elif method == METHOD_SUBSCRIBE:
            self._handle_subscribe(message)
        elif method == METHOD_RENEW:
            self._handle_renew(message)
        elif method == METHOD_UNSUBSCRIBE:
            self._handle_unsubscribe(message)
        # Unknown methods are ignored, as a robust datagram listener should.

    def _handle_msearch(self, message: Message) -> None:
        assert self._bus is not None
        matched = ssdp.target_matches(
            message.header("ST", ssdp.ST_ALL),
            self.udn,
            self.device_type,
            self.service_types(),
        )
        if matched is None:
            return
        self._bus.send(
            ssdp.msearch_response(message, self.address, self.udn, matched)
        )

    def _handle_get_description(self, message: Message) -> None:
        assert self._bus is not None
        self._bus.send(
            message.reply(
                {
                    "METHOD": METHOD_DESCRIPTION,
                    "UDN": self.udn,
                    "CALL-ID": message.header("CALL-ID"),
                },
                body=self.describe(),
            )
        )

    def _handle_invoke(self, message: Message) -> None:
        assert self._bus is not None
        service_id = message.header("SERVICE-ID")
        action = message.header("ACTION")
        call_id = message.header("CALL-ID")
        try:
            service = self.service(service_id)
            outputs = service.invoke(action, dict(message.body or {}))
        except (ActionError, UPnPError) as exc:
            self._bus.send(
                message.reply(
                    {"METHOD": METHOD_INVOKE_ERROR, "CALL-ID": call_id},
                    body={"reason": str(exc)},
                )
            )
            return
        self._bus.send(
            message.reply(
                {"METHOD": METHOD_INVOKE_OK, "CALL-ID": call_id},
                body=dict(outputs or {}),
            )
        )

    def _handle_subscribe(self, message: Message) -> None:
        assert self._bus is not None and self._eventing is not None
        service_id = message.header("SERVICE-ID")
        call_id = message.header("CALL-ID")
        timeout = float(message.header("TIMEOUT", DEFAULT_TIMEOUT))
        try:
            service = self.service(service_id)
        except UPnPError as exc:
            self._bus.send(
                message.reply(
                    {"METHOD": METHOD_ERROR, "CALL-ID": call_id},
                    body={"reason": str(exc)},
                )
            )
            return
        # Acknowledge with the SID first, then send the initial NOTIFY, so
        # the subscriber learns the SID before the first event arrives
        # (the bus preserves insertion order for equal latencies).
        subscription = self._eventing.subscribe(
            service_id, message.source, snapshot=None, timeout=timeout
        )
        self._bus.send(
            message.reply(
                {
                    "METHOD": METHOD_SUBSCRIBE_OK,
                    "CALL-ID": call_id,
                    "SID": subscription.sid,
                    "SERVICE-ID": service_id,
                }
            )
        )
        self._eventing.send_initial(subscription, service.snapshot())

    def _handle_renew(self, message: Message) -> None:
        assert self._bus is not None and self._eventing is not None
        call_id = message.header("CALL-ID")
        try:
            sub = self._eventing.renew(
                message.header("SID"), float(message.header("TIMEOUT", DEFAULT_TIMEOUT))
            )
        except Exception as exc:  # SubscriptionError
            self._bus.send(
                message.reply(
                    {"METHOD": METHOD_ERROR, "CALL-ID": call_id},
                    body={"reason": str(exc)},
                )
            )
            return
        self._bus.send(
            message.reply(
                {"METHOD": METHOD_SUBSCRIBE_OK, "CALL-ID": call_id, "SID": sub.sid}
            )
        )

    def _handle_unsubscribe(self, message: Message) -> None:
        assert self._bus is not None and self._eventing is not None
        try:
            self._eventing.unsubscribe(message.header("SID"))
        except Exception:
            pass  # idempotent unsubscribe
