"""Cluster layer: sharded multi-home serving over the single-home core.

The ROADMAP's path from "one household" to "millions of users" starts
here: a consistent-hash :class:`ShardRouter` maps home-prefixed
variable ids onto N independent :class:`EngineShard`\\ s (each a full
database + incremental engine), an :class:`IngestBus` decouples sensor
ingestion from arbitration with per-shard FIFO batch drains and safe
write coalescing, and the :class:`ClusterServer` facade keeps the
single-home `HomeServer` API shape so applications scale by swapping
the facade.

The durability plane (:mod:`repro.cluster.durability`) adds crash
recovery: per-shard snapshots plus a write-ahead log of drained ingest
batches, restored via :func:`restore_cluster`.

The process plane (:mod:`repro.cluster.wire` +
:mod:`repro.cluster.worker`) moves shards out of process: a framed wire
protocol carries batches, barriers, mirror routes, and telemetry pulls
to per-core worker processes, each hosting one `EngineShard` behind a
:class:`ShardClient` proxy, selected via
``ClusterServer(backend="process")``.
"""

from repro.cluster.bus import BusStats, IngestBus
from repro.cluster.durability import (
    ALL_CRASH_SITES,
    DurabilityPlane,
    RecoveryReport,
    restore_cluster,
)
from repro.cluster.router import (
    PlacementPlan,
    ShardRouter,
    home_key,
    stable_hash,
)
from repro.cluster.server import ClusterServer
from repro.cluster.shard import EngineShard
from repro.cluster.wire import FrameReader, WireDecoder, WireEncoder
from repro.cluster.worker import ShardClient

__all__ = [
    "ALL_CRASH_SITES",
    "BusStats",
    "ClusterServer",
    "DurabilityPlane",
    "EngineShard",
    "FrameReader",
    "IngestBus",
    "PlacementPlan",
    "RecoveryReport",
    "ShardClient",
    "ShardRouter",
    "WireDecoder",
    "WireEncoder",
    "home_key",
    "restore_cluster",
    "stable_hash",
]
