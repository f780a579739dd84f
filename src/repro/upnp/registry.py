"""Control-point-side registry of discovered devices.

The registry indexes description documents by UDN, friendly name, device
type, service type, location and keyword so that the home server's
lookup service (and the paper's E1 retrieval experiment) resolve targets
in constant time after discovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import UPnPError


@dataclass
class DeviceRecord:
    """One discovered device: its address plus parsed description."""

    udn: str
    address: str
    friendly_name: str
    device_type: str
    location: str
    category: str
    keywords: tuple[str, ...]
    description: dict[str, Any] = field(default_factory=dict)
    last_seen: float = 0.0

    @classmethod
    def from_description(
        cls, description: dict[str, Any], last_seen: float = 0.0
    ) -> "DeviceRecord":
        required = ("udn", "address", "friendly_name", "device_type")
        missing = [key for key in required if key not in description]
        if missing:
            raise UPnPError(f"description missing fields: {missing}")
        return cls(
            udn=description["udn"],
            address=description["address"],
            friendly_name=description["friendly_name"],
            device_type=description["device_type"],
            location=description.get("location", ""),
            category=description.get("category", "appliance"),
            keywords=tuple(description.get("keywords", ())),
            description=description,
            last_seen=last_seen,
        )

    def service_types(self) -> list[str]:
        return [s["service_type"] for s in self.description.get("services", ())]

    def service_ids(self) -> list[str]:
        return [s["service_id"] for s in self.description.get("services", ())]

    def service_description(self, service_id: str) -> dict[str, Any]:
        for svc in self.description.get("services", ()):
            if svc["service_id"] == service_id:
                return svc
        raise UPnPError(f"device {self.friendly_name!r} has no service {service_id!r}")


class DeviceRegistry:
    """Indexed store of :class:`DeviceRecord` entries."""

    def __init__(self) -> None:
        self._by_udn: dict[str, DeviceRecord] = {}
        self._by_name: dict[str, set[str]] = {}
        self._by_type: dict[str, set[str]] = {}
        self._by_service_type: dict[str, set[str]] = {}
        self._by_location: dict[str, set[str]] = {}
        self._by_keyword: dict[str, set[str]] = {}

    def __len__(self) -> int:
        return len(self._by_udn)

    def __contains__(self, udn: str) -> bool:
        return udn in self._by_udn

    def add(self, record: DeviceRecord) -> None:
        """Insert or replace (re-discovery refreshes the description)."""
        if record.udn in self._by_udn:
            self.remove(record.udn)
        self._by_udn[record.udn] = record
        self._by_name.setdefault(record.friendly_name.lower(), set()).add(record.udn)
        self._by_type.setdefault(record.device_type, set()).add(record.udn)
        for service_type in record.service_types():
            self._by_service_type.setdefault(service_type, set()).add(record.udn)
        if record.location:
            self._by_location.setdefault(record.location.lower(), set()).add(record.udn)
        for keyword in record.keywords:
            self._by_keyword.setdefault(keyword.lower(), set()).add(record.udn)

    def remove(self, udn: str) -> None:
        record = self._by_udn.pop(udn, None)
        if record is None:
            return
        self._discard(self._by_name, record.friendly_name.lower(), udn)
        self._discard(self._by_type, record.device_type, udn)
        for service_type in record.service_types():
            self._discard(self._by_service_type, service_type, udn)
        if record.location:
            self._discard(self._by_location, record.location.lower(), udn)
        for keyword in record.keywords:
            self._discard(self._by_keyword, keyword.lower(), udn)

    @staticmethod
    def _discard(index: dict[str, set[str]], key: str, udn: str) -> None:
        bucket = index.get(key)
        if bucket is not None:
            bucket.discard(udn)
            if not bucket:
                del index[key]

    # -- lookups ---------------------------------------------------------------

    def get(self, udn: str) -> DeviceRecord:
        try:
            return self._by_udn[udn]
        except KeyError:
            raise UPnPError(f"unknown device udn {udn!r}") from None

    def all(self) -> list[DeviceRecord]:
        return list(self._by_udn.values())

    def by_name(self, friendly_name: str) -> list[DeviceRecord]:
        """Exact (case-insensitive) friendly-name lookup — E1's primary query."""
        return self._records(self._by_name.get(friendly_name.lower(), ()))

    def by_device_type(self, device_type: str) -> list[DeviceRecord]:
        return self._records(self._by_type.get(device_type, ()))

    def by_service_type(self, service_type: str) -> list[DeviceRecord]:
        """Service-type lookup — E1's secondary query."""
        return self._records(self._by_service_type.get(service_type, ()))

    def by_location(self, location: str) -> list[DeviceRecord]:
        return self._records(self._by_location.get(location.lower(), ()))

    def by_keyword(self, keyword: str) -> list[DeviceRecord]:
        return self._records(self._by_keyword.get(keyword.lower(), ()))

    def by_category(self, category: str) -> list[DeviceRecord]:
        return [r for r in self._by_udn.values() if r.category == category]

    def _records(self, udns: Iterable[str]) -> list[DeviceRecord]:
        return sorted(
            (self._by_udn[udn] for udn in udns if udn in self._by_udn),
            key=lambda r: r.udn,
        )
