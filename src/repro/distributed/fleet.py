"""Multi-replica serving: one engine, two presets.

:class:`FleetServingEngine` fans request traffic across per-device
:class:`~repro.serving.scheduler.ServingScheduler` replicas sharing one
:class:`~repro.serving.store.IncrementalSnapshotStore`: a delta is applied
once and every replica absorbs it.  ``serving.kind = "sharded"`` is the
``replicated`` :class:`FleetConfig` preset — every replica owns all rows
(no halo gathers, full-window store accounting), requests rotate
round-robin over a fixed pool and nothing is shed.  ``"fleet"`` is the
default configuration described below.

**Node-sharded store.**  A
:class:`~repro.graph.partition.GraphPartitioner` plan assigns each replica a
contiguous node range it *owns*.  A deployed shard holds only its own rows
(features + adjacency row range + halo rows) instead of a full window copy,
so per-replica store memory drops ~K-fold; the report accounts that
shard-local footprint per replica.  Requests whose nodes spill outside the
owner's range pay an explicit *halo gather* — a host op sized by the remote
rows times the window depth at the host gather bandwidth — scheduled through
the :attr:`~repro.serving.scheduler.ServingScheduler.pre_batch_ops` seam so
the batch's transfers wait on it.  Because the numerics still read the shared
store, predictions stay bit-identical to the single-device scheduler.

**Load-aware routing with admission control.**  Each request routes to the
active replica owning the most of its nodes, tie-broken by micro-batcher
queue depth.  When the chosen replica's queue depth has reached
``admission_limit`` the request is *shed*: :meth:`FleetServingEngine.submit`
returns ``None`` and the report surfaces ``rejected_requests``.  Shedding
bounds the tail latency of admitted traffic under bursts, which unbounded
round-robin queueing cannot.

**Elastic replica pool.**  ``num_shards`` replicas are provisioned, but only
``min_replicas`` start active; a rolling p99 over recently completed
requests is compared against ``slo_p99_ms`` on every submission, scaling the
active pool up (p99 above SLO) or down (p99 under half the SLO) within
``[min_replicas, max_replicas]``, with a cooldown between decisions.  Scale
events emit through the engine's telemetry hooks (``on_phase_start`` /
``on_phase_end``) and are counted in the report.  Inactive replicas keep
absorbing deltas so their caches are consistent the moment they activate.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import time
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.datapipe import DataPipeConfig
from repro.graph.csr import INDEX_BYTES
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.partition import PARTITION_MODES, GraphPartitioner
from repro.gpu.spec import GPUSpec, HostSpec, PCIeSpec
from repro.memory import MemoryConfig, aggregate_cache_stats
from repro.nn.base_model import DGNNModel
from repro.serving.batcher import MicroBatch
from repro.serving.deltas import GraphDelta, ServingEvent
from repro.serving.metrics import ServingMetrics, ServingReport
from repro.serving.scheduler import BatchResult, ServingConfig, ServingScheduler
from repro.serving.store import DeltaReport, IncrementalSnapshotStore
from repro.telemetry.hooks import NULL_CALLBACK, TelemetryCallback
from repro.utils.validation import check_positive

#: offset separating one shard's batch ids from the next in merged output
_BATCH_ID_STRIDE = 1_000_000
#: per-replica breakdown keys that are ratios/horizons, not additive seconds
_NON_ADDITIVE_BREAKDOWN = ("makespan", "gpu_utilization", "sm_utilization")
#: per-replica reuse-stat keys that are gauges (cache sizes, buffer bytes),
#: not additive counters — summing them across K replicas reads as a
#: K-times-larger cache
_NON_ADDITIVE_REUSE = ("cpu_cached_snapshots", "gpu_resident_snapshots", "gpu_buffer_bytes")


def _merge_stat_maps(
    maps: List[Dict[str, float]], non_additive: Tuple[str, ...]
) -> Dict[str, float]:
    """Merge per-replica stat dicts: sum counters, average gauge/ratio keys.

    Shared by the ``breakdown`` and ``reuse_stats`` merges so both follow one
    additive/non-additive split (callers may still override individual keys,
    e.g. ``makespan`` → max).
    """
    merged: Dict[str, float] = {}
    for stats in maps:
        for key, value in stats.items():
            if key not in non_additive:
                merged[key] = merged.get(key, 0.0) + value
    for key in non_additive:
        values = [stats[key] for stats in maps if key in stats]
        if values:
            merged[key] = float(np.mean(values))
    return merged


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the fleet engine: sharding, admission and autoscaling."""

    #: provisioned replicas; also the number of node shards (pool ceiling)
    num_shards: int = 2
    #: replicas active at start (and the scale-down floor)
    min_replicas: int = 1
    #: scale-up ceiling; ``None`` means all provisioned shards
    max_replicas: Optional[int] = None
    #: per-replica queue depth at which new requests are shed
    admission_limit: int = 32
    #: p99 latency target (milliseconds, simulated time) driving autoscale
    slo_p99_ms: float = 50.0
    #: node-assignment strategy of the ownership plan (``"edges"``/``"nodes"``)
    partition_mode: str = "edges"
    #: completed requests in the rolling p99 window
    scale_window: int = 16
    #: admitted submissions between scale decisions
    scale_cooldown: int = 8
    #: every replica owns all rows (no halo gathers, full-range feature
    #: caches) and requests rotate round-robin over the active pool instead
    #: of routing to the owner-most replica
    replicated: bool = False

    def __post_init__(self) -> None:
        check_positive("num_shards", self.num_shards)
        check_positive("min_replicas", self.min_replicas)
        check_positive("admission_limit", self.admission_limit)
        check_positive("slo_p99_ms", self.slo_p99_ms)
        check_positive("scale_window", self.scale_window)
        check_positive("scale_cooldown", self.scale_cooldown)
        ceiling = self.num_shards if self.max_replicas is None else self.max_replicas
        if not self.min_replicas <= ceiling <= self.num_shards:
            raise ValueError(
                f"need min_replicas <= max_replicas <= num_shards, got "
                f"min={self.min_replicas} max={ceiling} shards={self.num_shards}"
            )
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition mode {self.partition_mode!r}; expected one "
                f"of {PARTITION_MODES}"
            )

    @property
    def replica_ceiling(self) -> int:
        return self.num_shards if self.max_replicas is None else self.max_replicas


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscale decision of the elastic pool."""

    direction: str  # "up" | "down"
    active_replicas: int  # pool size *after* the decision
    at: float  # simulated time of the triggering submission
    p99_ms: float  # rolling p99 that triggered it


class FleetServingEngine:
    """Multi-replica serving over one shared store.

    Node-sharded, admission-controlled and autoscaling by default; the
    ``replicated`` preset turns it into round-robin replication of full
    replicas.
    """

    def __init__(
        self,
        replicas: List[ServingScheduler],
        store: IncrementalSnapshotStore,
        config: Optional[FleetConfig] = None,
    ) -> None:
        self.fleet_config = config or FleetConfig()
        if self.fleet_config.num_shards != len(replicas):
            raise ValueError(
                f"FleetConfig.num_shards={self.fleet_config.num_shards} but "
                f"{len(replicas)} replicas were provided"
            )
        for replica in replicas:
            if replica.store is not store:
                raise ValueError(
                    "fleet replicas must share one IncrementalSnapshotStore; "
                    "build them through build_fleet_serving_engine"
                )
        self.replicas = replicas
        self.store = store
        #: engine-level telemetry sink (scale events); the runtime swaps in a
        #: live CallbackList alongside the per-replica hooks
        self.hooks: TelemetryCallback = NULL_CALLBACK
        partitioner = GraphPartitioner(
            self.fleet_config.num_shards, mode=self.fleet_config.partition_mode
        )
        #: persistent node-ownership boundaries (length ``num_shards + 1``)
        self.boundaries = partitioner.plan(store.window_snapshots())
        self._partitioner = partitioner
        self._active = self.fleet_config.min_replicas
        self._since_scale = self.fleet_config.scale_cooldown
        #: next replica of the round-robin rotation (replicated routing)
        self._next_shard = 0
        #: global request id -> (shard index, shard-local request id)
        self._routes: List[Tuple[int, int]] = []
        #: (shard index, shard-local request id) -> global request id
        self._global_ids: Dict[Tuple[int, int], int] = {}
        #: wall clock starts at first traffic, matching the single-device
        #: scheduler — building K replicas is provisioning, not serving time
        self._wall_start: Optional[float] = None
        self.rejected_requests = 0
        self.scale_events: List[ScaleEvent] = []
        self.halo_gather_bytes = 0.0
        self.halo_gather_seconds = 0.0
        self.halo_gather_batches = 0
        #: per-shard outstanding requests (queued + in flight), maintained
        #: incrementally by submit/pump instead of re-scanned from the
        #: ever-growing request records on every admission decision
        self._outstanding = [0] * self.num_shards
        #: per-shard min-heaps of (completion_time, finished requests);
        #: ``pump`` pushes as batches execute, ``queue_depth`` drains <= now
        self._completions: List[List[Tuple[float, int]]] = [
            [] for _ in range(self.num_shards)
        ]
        for shard, replica in enumerate(replicas):
            lo, hi = self.owned_range(shard)
            replica.pre_batch_ops = self._make_halo_gather(shard, lo, hi)
            # Scope each replica's feature cache to the node rows it owns:
            # blocks keyed outside the owner range would alias rows another
            # replica serves, and the halo seam already charges remote rows.
            replica.scope_feature_cache(lo, hi)

    def _touch_wall_clock(self) -> None:
        if self._wall_start is None:
            self._wall_start = time.perf_counter()

    # ------------------------------------------------------------------ pool state
    @property
    def num_shards(self) -> int:
        return len(self.replicas)

    def elapsed_seconds(self) -> float:
        """The pool's simulated clock: the furthest replica timeline."""
        return max(replica.device.elapsed_seconds() for replica in self.replicas)

    @property
    def active_replicas(self) -> int:
        """Replicas currently receiving traffic (a prefix of the pool)."""
        return self._active

    def owner_of(self, node_id: int) -> int:
        """Shard owning a node id under the persistent partition plan."""
        return int(np.searchsorted(self.boundaries, node_id, side="right") - 1)

    def owned_range(self, shard: int) -> Tuple[int, int]:
        """Node rows ``[lo, hi)`` a replica owns (all of them when replicated)."""
        if self.fleet_config.replicated:
            return 0, self.store.num_nodes
        return int(self.boundaries[shard]), int(self.boundaries[shard + 1])

    # ------------------------------------------------------------------ halo gather
    def _make_halo_gather(self, shard: int, lo: int, hi: int):
        """Per-replica ``pre_batch_ops`` hook charging boundary-row gathers.

        The hook is stored on the replica, so it reaches the replica and the
        engine through weak proxies: strong references would close cycles
        (replica → hook → replica, engine → replica → hook → engine) that
        keep a released fleet alive until a full garbage collection.
        """
        engine = weakref.proxy(self)
        replica = weakref.proxy(self.replicas[shard])

        def gather(batch: MicroBatch) -> List[object]:
            remote = int(np.count_nonzero((batch.node_ids < lo) | (batch.node_ids >= hi)))
            if remote == 0:
                return []
            store = replica.store
            gather_bytes = (
                remote * store.feature_dim * 4.0 * store.window_size * replica.scale
            )
            seconds = gather_bytes / (replica.device.host.gather_bandwidth_gbs * 1e9)
            op = replica.device.host_op(
                seconds,
                label=f"halo_gather_b{batch.batch_id}",
                stream="cpu_prep" if replica.config.enable_pipeline else "default",
                not_before=batch.formed_time,
            )
            engine.halo_gather_bytes += gather_bytes
            engine.halo_gather_seconds += seconds
            engine.halo_gather_batches += 1
            return [op]

        return gather

    # ------------------------------------------------------------------ ingestion
    def ingest(self, delta: GraphDelta, *, at: Optional[float] = None) -> DeltaReport:
        """Apply a delta once to the shared store; every replica absorbs it.

        Inactive replicas absorb too — their caches must be consistent the
        moment a scale-up routes traffic at them.
        """
        self._touch_wall_clock()
        report = self.store.apply(delta)
        for replica in self.replicas:
            replica.absorb_delta(report, at=at)
        return report

    # ------------------------------------------------------------------ routing
    def queue_depth(self, shard: int, now: float) -> int:
        """Outstanding requests on a replica: queued plus in flight.

        A request stays "in flight" until its simulated completion time
        passes — admission must see the device backlog, not just the
        micro-batcher's queue, or small forced batches pile up on a hot
        replica far beyond the admission limit.  The depth is maintained
        incrementally: :meth:`submit` counts admissions, :meth:`pump`
        records batch completion times, and this query drains completions
        up to ``now`` — O(log batches) amortised instead of re-scanning
        every request record ever completed on each admission decision.
        """
        heap = self._completions[shard]
        while heap and heap[0][0] <= now:
            _, finished = heapq.heappop(heap)
            self._outstanding[shard] -= finished
        return self._outstanding[shard]

    def _route(self, ids: np.ndarray, now: float) -> Optional[int]:
        """Pick a replica from the active pool, or ``None`` to shed.

        Replicated pools rotate round-robin; node-sharded pools route to the
        replica owning the most of the request's nodes, tie-broken by queue
        depth.  Either way the chosen replica must be under the admission
        limit.
        """
        if self.fleet_config.replicated:
            shard = self._next_shard % self._active
            self._next_shard = (shard + 1) % self._active
            depth = self.queue_depth(shard, now)
        else:
            active = range(self._active)
            owned = [
                int(
                    np.count_nonzero(
                        (ids >= self.boundaries[s]) & (ids < self.boundaries[s + 1])
                    )
                )
                for s in active
            ]
            best = max(owned)
            candidates = [s for s in active if owned[s] == best]
            depths = {s: self.queue_depth(s, now) for s in candidates}
            shard = min(candidates, key=lambda s: depths[s])
            depth = depths[shard]
        if depth >= self.fleet_config.admission_limit:
            return None
        return shard

    def submit(
        self, node_ids: Iterable[int], *, at: Optional[float] = None
    ) -> Optional[int]:
        """Route one request through admission control.

        Returns the global request id, or ``None`` when every eligible
        replica is at its admission limit and the request is shed.
        """
        self._touch_wall_clock()
        ids = np.asarray(list(node_ids), dtype=np.int64)
        now = at if at is not None else self.elapsed_seconds()
        self._maybe_scale(now)
        shard = self._route(ids, now)
        if shard is None:
            self.rejected_requests += 1
            return None
        local_id = self.replicas[shard].submit(ids, at=at)
        # Count only after the replica accepted the request — submit raises
        # on out-of-range node ids and a failed submission is not backlog.
        self._outstanding[shard] += 1
        global_id = len(self._routes)
        self._routes.append((shard, local_id))
        self._global_ids[(shard, local_id)] = global_id
        return global_id

    def route_of(self, request_id: int) -> Tuple[int, int]:
        """(shard index, shard-local id) a global request id resolved to."""
        return self._routes[request_id]

    def _to_global(self, shard: int, local_id: int) -> int:
        """Global id of a shard-local request.

        Strict by design: falling back to the local id would collide with
        already-issued global ids and silently mis-attribute predictions, so
        requests must enter through :meth:`submit`, never through a replica
        directly.
        """
        try:
            return self._global_ids[(shard, local_id)]
        except KeyError:
            raise KeyError(
                f"request {local_id} on shard {shard} was not submitted through "
                "FleetServingEngine.submit(); submit requests via the engine "
                "so they receive a collision-free global id"
            ) from None

    def pump(self, now: Optional[float] = None, *, force: bool = False) -> List[BatchResult]:
        """Cut and execute due micro-batches on every shard, then re-check scale.

        Results are re-keyed to engine-level ids (the global request ids
        :meth:`submit` handed out; batch ids offset per shard as in the
        merged report).  Completion times feed the per-shard admission
        heaps, and every pump tick — :meth:`run_trace` issues one per trace
        event — drives the autoscaler, so an idle fleet with p99 headroom
        drains back to ``min_replicas`` even when no submissions arrive.
        """
        results: List[BatchResult] = []
        for shard, replica in enumerate(self.replicas):
            for result in replica.pump(now, force=force):
                heapq.heappush(
                    self._completions[shard],
                    (result.completion_time, len(result.predictions)),
                )
                results.append(
                    BatchResult(
                        batch_id=result.batch_id + shard * _BATCH_ID_STRIDE,
                        decision=result.decision,
                        completion_time=result.completion_time,
                        predictions={
                            self._to_global(shard, local_id): rows
                            for local_id, rows in result.predictions.items()
                        },
                    )
                )
        self._maybe_scale(now if now is not None else self.elapsed_seconds())
        return results

    def run_trace(self, events: Iterable[ServingEvent]) -> ServingReport:
        """Replay a timestamped trace across the pool."""
        self._touch_wall_clock()
        last_time = 0.0
        for event in sorted(events, key=lambda e: e.time):
            self.pump(event.time)
            if event.kind == "delta":
                assert event.delta is not None
                self.ingest(event.delta, at=event.time)
            else:
                assert event.node_ids is not None
                self.submit(event.node_ids, at=event.time)
                self.pump(event.time)
            last_time = event.time
        self.pump(max(last_time, self.elapsed_seconds()), force=True)
        return self.report()

    # ------------------------------------------------------------------ autoscale
    def _recent_p99_seconds(self) -> float:
        """Rolling p99 over the most recently completed requests, fleet-wide."""
        records = [
            record
            for replica in self.replicas
            for record in replica.metrics.requests
        ]
        if not records:
            return float("nan")
        records.sort(key=lambda r: (r.completion_time, r.arrival_time))
        recent = records[-self.fleet_config.scale_window :]
        return float(np.percentile([r.latency for r in recent], 99.0))

    def _maybe_scale(self, now: float) -> None:
        cfg = self.fleet_config
        if cfg.min_replicas == cfg.replica_ceiling:
            return  # fixed pool: no decision can fire, skip the p99 sort
        if self._since_scale < cfg.scale_cooldown:
            self._since_scale += 1
            return
        p99 = self._recent_p99_seconds()
        if math.isnan(p99):
            return
        p99_ms = p99 * 1e3
        if p99_ms > cfg.slo_p99_ms and self._active < cfg.replica_ceiling:
            self._active += 1
            self._emit_scale("up", now, p99_ms)
        elif p99_ms < 0.5 * cfg.slo_p99_ms and self._active > cfg.min_replicas:
            self._active -= 1
            self._emit_scale("down", now, p99_ms)

    def _emit_scale(self, direction: str, now: float, p99_ms: float) -> None:
        self._since_scale = 0
        event = ScaleEvent(
            direction=direction, active_replicas=self._active, at=now, p99_ms=p99_ms
        )
        self.scale_events.append(event)
        phase = f"fleet_scale_{direction}_to_{self._active}"
        self.hooks.on_phase_start(phase, now)
        self.hooks.on_phase_end(phase, now)

    # ------------------------------------------------------------------ reporting
    def shard_store_bytes(self) -> List[float]:
        """Store bytes a deployed replica of each shard would hold today.

        A replicated replica holds the full window (``window_bytes()``).  A
        node-sharded one holds, per window snapshot: the shard's feature-row
        slice, a compacted CSR of its adjacency row range, and the halo
        feature rows it caches to aggregate across the boundary.  The shared
        in-process store keeps the full window once; this is the per-node
        accounting the node-sharded deployment is built to achieve.
        """
        if self.fleet_config.replicated:
            return [float(self.store.window_bytes())] * self.num_shards
        snapshots = self.store.window_snapshots()
        num_nodes = self.store.num_nodes
        feature_row_bytes = [
            snap.feature_bytes() / max(1, num_nodes) for snap in snapshots
        ]
        totals = [0.0] * self.num_shards
        for snap, row_bytes in zip(snapshots, feature_row_bytes):
            for shard in self._partitioner.shard_snapshot(snap, self.boundaries):
                local_adjacency = (
                    2 * shard.num_edges + shard.num_local_nodes + 1
                ) * INDEX_BYTES
                totals[shard.device] += (
                    shard.num_local_nodes * row_bytes
                    + local_adjacency
                    + shard.halo_feature_bytes(self.store.feature_dim)
                )
        return totals

    def report(self) -> ServingReport:
        """One merged report over all shards, plus fleet accounting.

        Latency records concatenate across shards (request ids map back to
        the global ids ``submit`` returned; batch ids are offset so they
        stay unique).  ``deltas_ingested`` is a logical per-engine count — a
        delta every replica absorbs is one update, not ``K`` — so it merges
        as the max across replicas; ``rows_touched`` is fleet-wide patch
        *work* — every replica invalidates and re-patches its own cache — so
        it merges as the sum.
        """
        reports = [replica.report() for replica in self.replicas]
        merged = ServingMetrics()
        for shard, replica in enumerate(self.replicas):
            offset = shard * _BATCH_ID_STRIDE
            for record in replica.metrics.requests:
                merged.record_request(
                    dataclasses.replace(
                        record,
                        request_id=self._to_global(shard, record.request_id),
                        batch_id=record.batch_id + offset,
                    )
                )
            for batch in replica.metrics.batches:
                merged.record_batch(
                    dataclasses.replace(batch, batch_id=batch.batch_id + offset)
                )
        merged.deltas_ingested = max(
            replica.metrics.deltas_ingested for replica in self.replicas
        )
        merged.rows_touched = sum(
            replica.metrics.rows_touched for replica in self.replicas
        )

        # Kind-seconds and hit/miss counters add up across shards; horizons,
        # utilization ratios and cache-size gauges do not (summing K makespans
        # ~Kx-inflates the clock, summing K buffer gauges ~Kx-inflates the
        # cache) — those merge as the mean, and makespan as the max below.
        breakdown = _merge_stat_maps(
            [report.breakdown for report in reports], _NON_ADDITIVE_BREAKDOWN
        )
        breakdown["makespan"] = max(
            report.breakdown.get("makespan", 0.0) for report in reports
        )
        reuse_stats = _merge_stat_maps(
            [report.reuse_stats for report in reports], _NON_ADDITIVE_REUSE
        )
        cfg = self.fleet_config
        shard_bytes = self.shard_store_bytes()
        extras: Dict[str, float] = {"num_shards": float(self.num_shards)}
        for shard, report in enumerate(reports):
            extras[f"shard{shard}_requests"] = float(report.metrics.num_requests)
        extras["per_replica_store_bytes"] = float(np.mean(shard_bytes))
        # Feature-cache tier counters add up across replicas; the aggregate
        # recomputes the blended hit rate rather than summing ratios.
        cache_stats = [
            replica.feature_cache.stats()
            for replica in self.replicas
            if replica.feature_cache is not None
        ]
        if cache_stats:
            extras.update(aggregate_cache_stats(cache_stats))
        extras.update(
            {
                "admitted_requests": float(len(self._routes)),
                "rejected_requests": float(self.rejected_requests),
                "active_replicas": float(self._active),
                "min_replicas": float(cfg.min_replicas),
                "max_replicas": float(cfg.replica_ceiling),
                "scale_up_events": float(
                    sum(1 for e in self.scale_events if e.direction == "up")
                ),
                "scale_down_events": float(
                    sum(1 for e in self.scale_events if e.direction == "down")
                ),
                "halo_gather_bytes": float(self.halo_gather_bytes),
                "halo_gather_seconds": float(self.halo_gather_seconds),
                "halo_gather_batches": float(self.halo_gather_batches),
                "fleet_store_bytes": float(self.store.window_bytes()),
                "prefetch_depth": float(self.replicas[0].data.prefetch_depth),
                "prefetch_host_seconds": float(
                    sum(
                        replica.prefetcher.stats().get("prefetch_host_seconds", 0.0)
                        for replica in self.replicas
                    )
                ),
            }
        )
        for shard, value in enumerate(shard_bytes):
            extras[f"shard{shard}_store_bytes"] = float(value)
        label = reports[0].engine if cfg.replicated else "PiPAD-Fleet"
        return ServingReport(
            engine=f"{label}-x{self.num_shards}",
            model=reports[0].model,
            dataset=reports[0].dataset,
            simulated_seconds=max(r.simulated_seconds for r in reports),
            wall_seconds=(
                0.0 if self._wall_start is None else time.perf_counter() - self._wall_start
            ),
            metrics=merged,
            breakdown=breakdown,
            reuse_stats=reuse_stats,
            gpu_utilization=float(np.mean([r.gpu_utilization for r in reports])),
            peak_memory_bytes=max(r.peak_memory_bytes for r in reports),
            extras=extras,
        )


def build_fleet_serving_engine(
    graph: Union[DynamicGraph, IncrementalSnapshotStore],
    model: DGNNModel,
    fleet: Optional[FleetConfig] = None,
    config: Optional[ServingConfig] = None,
    *,
    gpu: Optional[GPUSpec] = None,
    pcie: Optional[PCIeSpec] = None,
    host: Optional[HostSpec] = None,
    scale: float = 1.0,
    data: Optional[DataPipeConfig] = None,
    memory: Optional[MemoryConfig] = None,
) -> FleetServingEngine:
    """Wire a fleet: one shared store, ``num_shards`` replicas."""
    fleet = fleet or FleetConfig()
    config = config or ServingConfig()
    if isinstance(graph, IncrementalSnapshotStore):
        store = graph
        dataset = "serving"
    else:
        store = IncrementalSnapshotStore(graph, window=config.window, host=host)
        dataset = graph.name
    replicas: List[ServingScheduler] = []
    for _ in range(fleet.num_shards):
        replicas.append(
            ServingScheduler(
                model,
                store,
                config,
                gpu=gpu,
                pcie=pcie,
                host=host,
                scale=scale,
                dataset=dataset,
                data=data,
                memory=memory,
                # every replica reuses the first one's tuner
                tuner=replicas[0].policy.tuner if replicas else None,
            )
        )
    return FleetServingEngine(replicas, store, fleet)
