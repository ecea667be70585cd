"""Multi-GPU sharded execution: partitioner → device group → collectives → trainer.

This package is the façade of the distributed subsystem; the implementation
lives next to its single-device counterparts so each layer stays cohesive:

- :class:`~repro.graph.partition.GraphPartitioner` (``repro.graph``) shards
  the node set across devices with halo-node bookkeeping and per-shard
  overlap decompositions;
- :class:`~repro.gpu.interconnect.Interconnect` and
  :class:`~repro.gpu.device_group.DeviceGroup` (``repro.gpu``) model the
  NVLink/PCIe peer links and coordinate ``K`` simulated-GPU timelines with
  cross-device dependency edges and ring collectives;
- :class:`~repro.core.trainer.PiPADTrainer` (``repro.core``) runs PiPAD
  training on a multi-device :class:`~repro.core.placement.Placement`:
  ``group`` shards the node set (halo exchanges, state all-gathers,
  per-frame gradient all-reduce); ``pipeline`` has a
  :class:`~repro.graph.partition.FramePartitioner` shard the *snapshot
  groups* instead, and the recurrent state hops between stages over
  point-to-point ``DeviceGroup.send`` transfers;
- :class:`FleetServingEngine` (here) is the multi-replica entry point for
  the streaming serving scheduler: requests fan out across per-device
  serving replicas that share one snapshot store.  Its
  :class:`FleetConfig` presets cover round-robin replication of full
  replicas (``replicated=True``, serving kind ``sharded``) and the
  node-sharded fleet with ownership routing, queue-depth admission control
  and an elastic replica pool that scales on p99/SLO pressure (kind
  ``fleet``).
"""

from repro.distributed.fleet import (
    FleetConfig,
    FleetServingEngine,
    ScaleEvent,
    build_fleet_serving_engine,
)
from repro.gpu.device_group import COMM_STREAM, RESOURCE_PEER_LINK, DeviceGroup
from repro.gpu.interconnect import NVLINK, PCIE_PEER, Interconnect, LinkSpec
from repro.graph.partition import (
    PARTITION_MODES,
    SCHEDULE_MODES,
    FramePartitioner,
    FrameStage,
    GraphPartitioner,
    ShardGroup,
    SnapshotShard,
)

__all__ = [
    "COMM_STREAM",
    "DeviceGroup",
    "FleetConfig",
    "FleetServingEngine",
    "FramePartitioner",
    "FrameStage",
    "GraphPartitioner",
    "Interconnect",
    "LinkSpec",
    "NVLINK",
    "PARTITION_MODES",
    "PCIE_PEER",
    "RESOURCE_PEER_LINK",
    "SCHEDULE_MODES",
    "ScaleEvent",
    "ShardGroup",
    "SnapshotShard",
    "build_fleet_serving_engine",
]
