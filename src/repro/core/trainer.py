"""The PiPAD trainer: pipelined, partition-parallel DGNN training (§4).

The trainer extends the shared training loop with PiPAD's four mechanisms:

1. *Overlap-aware data organization* — snapshots are shipped per partition as
   one sliced-CSR overlap adjacency plus per-snapshot exclusives
   (:class:`~repro.core.data_prep.DataPreparer`,
   :class:`~repro.core.slicer.GraphSlicer`).
2. *Intra-frame parallelism* — the GNN part of a partition executes through
   the :class:`~repro.core.parallel_gnn.ParallelAggregationProvider`, with
   locality-optimized weight reuse in the update GEMM and CUDA-Graph
   launches.
3. *Pipeline execution* — CPU preparation, PCIe transfers and kernels run on
   separate streams of the simulated device so partition ``k+1``'s transfer
   hides behind partition ``k``'s compute.
4. *Inter-frame reuse and dynamic tuning* — first-layer aggregation results
   are cached on the host and (capacity permitting) on the device
   (:class:`~repro.core.reuse.ReuseManager`), and the per-frame parallelism
   level is chosen by the :class:`~repro.core.tuner.DynamicTuner` from the
   offline kernel analysis plus statistics gathered in the preparing epochs.

Epoch 0..``preparing_epochs-1`` run in the canonical one-snapshot manner on
the lead device (while populating caches and statistics); subsequent epochs
run the partition-parallel schedule on the devices of the run's
:class:`~repro.core.placement.Placement`:

- ``single`` — every partition on one device;
- ``group`` — node sharding: every device prefetches and computes its own
  row range of each partition (kernel costs scaled by its edge/node share),
  a ``halo_exchange`` ships neighbor features before the aggregation, an
  ``all_gather`` synchronizes the recurrent state after each partition and a
  ring ``all_reduce`` combines the partial gradients after each frame;
- ``pipeline`` — frame pipelining: a
  :class:`~repro.graph.partition.FramePartitioner` assigns each partition to
  one stage.  Aggregation kernels run as soon as the stage's data lands; the
  dense kernels wait for the previous partition's state, handed over as a
  point-to-point ``send`` (the stall beyond local readiness is the
  *bubble*); backward runs the chain in reverse, then ``all_reduce``.

Numerics never depend on the placement: the model trains on the full graph
(losses are bit-identical across placements); the devices only account for
*when* the same work would finish.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import DGNNTrainerBase, TrainerConfig
from repro.baselines.results import EpochMetrics, TrainingResult
from repro.core.config import PiPADConfig
from repro.core.datapipe import DataPipe, DataPipeConfig, PipeItem, Prefetcher, owner_hooks
from repro.core.parallel_gnn import ParallelAggregationProvider
from repro.core.placement import Placement
from repro.core.reuse import ReuseManager
from repro.core.slicer import GraphSlicer
from repro.core.tuner import DynamicTuner, FrameProfile, OfflineAnalysis, TuningDecision
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.frame import Frame
from repro.graph.partition import FramePartitioner, GraphPartitioner
from repro.graph.snapshot import GraphSnapshot
from repro.gpu.device import OutOfMemoryError, SimulatedGPU
from repro.gpu.kernel_cost import CATEGORY_AGGREGATION, KernelCost
from repro.gpu.memory_model import feature_cache_budget_bytes
from repro.gpu.timeline import RESOURCE_COMPUTE, TimelineOp
from repro.memory import (
    AccessPlan,
    FeatureCache,
    MemoryConfig,
    aggregate_cache_stats,
    blocks_covering,
)
from repro.nn.context import ExecutionContext

#: per-snapshot activation-memory amplification used by the tuner's OOM check
_ACTIVATION_FACTOR = 4.0

#: smallest per-device cost fraction (guards ``KernelCost.scaled`` against
#: degenerate shards that own nodes but no edges in some snapshot)
_MIN_FRACTION = 1e-9


class PiPADTrainer(DGNNTrainerBase):
    """End-to-end PiPAD training on the simulated devices of a placement."""

    method_name = "PiPAD"
    kernel_name = "coo"  # only used for the canonical preparing epochs
    adjacency_format = "coo"
    async_transfer = True
    use_reuse = True
    use_cuda_graph = True

    def __init__(
        self,
        graph: DynamicGraph,
        config: Optional[TrainerConfig] = None,
        pipad_config: Optional[PiPADConfig] = None,
        data_config: Optional[DataPipeConfig] = None,
        memory_config: Optional[MemoryConfig] = None,
        placement: Optional[Placement] = None,
    ) -> None:
        self.pipad = pipad_config or PiPADConfig()
        self.memory = memory_config or MemoryConfig()
        self.placement = placement or Placement()
        self.method_name = self.placement.method_name
        # Mirror the ablation switches and the placement's devices onto the
        # knobs the base class reads.
        self.use_reuse = self.pipad.enable_inter_frame_reuse
        self.async_transfer = self.pipad.enable_pipeline
        self.use_cuda_graph = self.pipad.use_cuda_graph
        self.num_devices = self.placement.num_devices
        self.interconnect = self.placement.interconnect
        super().__init__(graph, config)

        self.reuse = ReuseManager(
            self.device,
            enabled=self.pipad.enable_inter_frame_reuse,
            gpu_buffer_fraction=self.pipad.gpu_reuse_buffer_fraction,
        )
        self.cache = self.reuse if self.pipad.enable_inter_frame_reuse else None
        self.slicer = GraphSlicer(self.pipad.slice_capacity, self.config.host)
        data = data_config or DataPipeConfig()
        if not self.pipad.enable_pipeline:
            # The ablation switch keeps its meaning: no pipeline means fully
            # serialized, unpinned prep — regardless of the declared depth.
            data = dataclasses.replace(data, prefetch_depth=0, pin_memory=False)
        self.data = data
        self.datapipe = DataPipe(
            data,
            self.config.host,
            slice_capacity=self.pipad.slice_capacity,
            use_sliced_csr=self.pipad.use_sliced_csr,
        )
        self.preparer = self.datapipe.preparer
        #: one prefetcher per device: each preps and ships its own items on
        #: its own host stream and PCIe link
        self.prefetchers: List[Prefetcher] = [
            Prefetcher(self.datapipe, device, device_index=index, hooks=owner_hooks(self))
            for index, device in enumerate(self.group)
        ]
        candidates = self._candidate_s_per()
        self.tuner = DynamicTuner(
            self.config.gpu,
            candidates,
            memory_safety_fraction=self.pipad.memory_safety_fraction,
            analysis=OfflineAnalysis(spec=self.config.gpu),
            feature_dim=self.graph.feature_dim,
        )
        self._frame_s_per: Dict[int, int] = {}
        self._tuning_decisions: List[TuningDecision] = []
        self._preparing = self.pipad.preparing_epochs > 0
        self._preprocessed = False
        self._epochs_run = 0
        self._hidden_dim = self.model.hidden_features
        self._check_feature_capacity()
        #: one cache per device, sized against that device's own HBM; empty
        #: when the cache is disabled.  The pin stage's staging buffers are
        #: pinned memory too: each prefetcher charges them against its
        #: device's pinned tier instead of budgeting them separately.
        self.feature_caches: List[FeatureCache] = (
            [self._build_feature_cache(device) for device in self.group]
            if self.memory.feature_cache
            else []
        )
        for prefetcher, cache in zip(self.prefetchers, self.feature_caches):
            prefetcher.cache = cache

        self._gradient_bytes = float(sum(p.data.nbytes for p in self.model.parameters()))
        #: bytes per state element (the hidden state carries the parameter dtype)
        self._state_itemsize = float(self.model.parameters()[0].data.dtype.itemsize)
        #: per-device ops the next kernels must wait for: the last collective
        #: of a multi-device schedule
        self._device_ready: List[List[TimelineOp]] = [[] for _ in self.group]
        self._halo_bytes_total = 0.0
        self._bubble_seconds = 0.0
        if self.placement.kind == "group":
            self.partitioner = GraphPartitioner(
                self.num_devices, mode=self.placement.partition_mode
            )
            # Cheap provisional plan; _run_preprocessing replans (and computes
            # the halo/edge statistics, an O(devices x snapshots x edges)
            # sharding pass) right before the first steady-state frame.
            self.boundaries = self.partitioner.plan(graph.snapshots)
            self._node_fractions = self.partitioner.node_fractions(self.boundaries)
            self._edge_fractions = np.full(self.num_devices, 1.0 / self.num_devices)
            self._halo_nodes = np.zeros(self.num_devices)
            #: bytes per feature element (halo rows ship in the dataset's dtype)
            self._feature_itemsize = float(graph.snapshots[0].features.dtype.itemsize)
        elif self.placement.kind == "pipeline":
            self.frame_partitioner = FramePartitioner(
                self.num_devices, schedule=self.placement.schedule
            )
            #: stage of each partition in the current frame (set per frame)
            self._assignment = np.zeros(0, dtype=np.int64)
            self._group_index = 0
            #: op producing the latest recurrent state, and the stage holding it
            self._state_op: Optional[TimelineOp] = None
            self._state_device = 0

    # ------------------------------------------------------------------ memory tiers
    def _frame_feature_bytes(self) -> float:
        """Extrapolated feature bytes one frame keeps in flight."""
        features = float(np.mean([s.feature_bytes() for s in self.graph.snapshots]))
        return features * self.config.frame_size * self.scale

    def _check_feature_capacity(self) -> None:
        """Refuse runs whose features cannot exist on the devices uncached."""
        if self.memory.feature_cache:
            return
        per_device = self._frame_feature_bytes() / float(self.num_devices)
        if per_device > self.config.gpu.memory_bytes:
            raise OutOfMemoryError(
                f"frame feature working set ({per_device / 1024**3:.1f} GiB per "
                f"device) exceeds {self.config.gpu.name} HBM "
                f"({self.config.gpu.memory_gb:.0f} GiB); enable the multi-tier "
                "feature cache (memory.feature_cache=true) to stage features "
                "through the pinned-host and spill tiers"
            )

    def _build_feature_cache(self, device: SimulatedGPU) -> FeatureCache:
        """One per-device cache; the GPU tier is carved out of real HBM."""
        mem = self.memory
        if mem.gpu_budget_mb is not None:
            gpu_budget = int(mem.gpu_budget_mb * 1024 * 1024)
        else:
            model_bytes = float(sum(p.data.nbytes for p in self.model.parameters()))
            gpu_budget = feature_cache_budget_bytes(
                self.config.gpu,
                model_bytes=model_bytes,
                activation_bytes=self._frame_activation_bytes()
                / float(self.num_devices),
                fraction=mem.gpu_budget_fraction,
            )
        cache = FeatureCache(
            gpu_budget_bytes=gpu_budget,
            pinned_budget_bytes=int(mem.pinned_budget_mb * 1024 * 1024),
            spill_budget_bytes=(
                None
                if mem.spill_budget_mb is None
                else int(mem.spill_budget_mb * 1024 * 1024)
            ),
            policy=mem.policy,
        )
        if gpu_budget > 0:
            # Peak-memory honesty: the GPU tier occupies real HBM alongside
            # the reuse buffer (raises OutOfMemoryError on absurd budgets).
            device.malloc("feature_cache", gpu_budget)
        return cache

    def _feature_block_requests(
        self, snapshots: Sequence[GraphSnapshot], lo: int, hi: int
    ) -> List[Tuple[Tuple[int, int], float]]:
        """Cache keys + bytes for the feature rows a partition will read.

        One key per (timestep, node block): training features are distinct
        per snapshot.  The inter-frame reuse cache discounts the *bytes* a
        partition ships independently (``_partition_transfer_bytes``); the
        tier plan is applied on top and clamps at zero, so the two
        discounts never drive a stage's bytes negative.
        """
        row_bytes = self.graph.feature_dim * 4.0 * self.scale
        requests: List[Tuple[Tuple[int, int], float]] = []
        for snapshot in snapshots:
            for block, b_lo, b_hi in blocks_covering(lo, hi, self.memory.block_rows):
                requests.append(((snapshot.timestep, block), (b_hi - b_lo) * row_bytes))
        return requests

    def _cache_plan(
        self,
        snapshots: Sequence[GraphSnapshot],
        *,
        index: int,
        lo: int,
        hi: int,
        label: str,
    ) -> AccessPlan:
        plan = self.feature_caches[index].access(
            self._feature_block_requests(snapshots, lo, hi)
        )
        self.hooks.on_cache_access(
            label,
            index,
            plan.gpu_bytes,
            plan.pinned_bytes,
            plan.miss_bytes,
            plan.gpu_hits + plan.pinned_hits + plan.spill_hits,
            plan.misses,
            self.group.makespan(),
            "train",
        )
        return plan

    @staticmethod
    def _apply_cache_plan(item: PipeItem, plan: AccessPlan) -> PipeItem:
        """Shrink an item's stage bytes by what the cache tiers absorb."""
        total = item.transfer_bytes
        gather = max(0.0, total - plan.gpu_bytes - plan.pinned_bytes)
        return dataclasses.replace(
            item,
            transfer_bytes=max(0.0, total - plan.gpu_bytes),
            gather_bytes=gather,
            pin_bytes=gather,
            block_keys=plan.block_keys,
        )

    # ------------------------------------------------------------------ setup
    def _candidate_s_per(self) -> Tuple[int, ...]:
        if self.pipad.fixed_s_per is not None:
            return (self.pipad.fixed_s_per,)
        candidates = tuple(self.pipad.s_per_candidates)
        max_s_per = self.graph.metadata.get("max_s_per")
        if max_s_per:
            capped = tuple(c for c in candidates if c <= int(max_s_per))
            candidates = capped or (int(max_s_per),)
        return candidates

    # ------------------------------------------------------------------ preprocessing & tuning
    def _per_snapshot_bytes(self) -> Tuple[float, float]:
        """(transfer bytes, memory footprint bytes) per snapshot, extrapolated."""
        snapshots = self.graph.snapshots
        features = float(np.mean([s.feature_bytes() for s in snapshots]))
        adjacency = float(np.mean([s.adjacency.nbytes for s in snapshots]))
        activations = (
            self.graph.num_nodes
            * (self.graph.feature_dim + self._hidden_dim)
            * 4.0
            * _ACTIVATION_FACTOR
        )
        transfer = (features + adjacency) * self.scale
        footprint = (features + adjacency + activations * self.config.frame_size / 2.0) * self.scale
        return transfer, footprint

    def _frame_activation_bytes(self) -> float:
        return (
            self.config.frame_size
            * self.graph.num_nodes
            * self._hidden_dim
            * 4.0
            * _ACTIVATION_FACTOR
            * self.scale
        )

    def _measured_per_snapshot_compute(self) -> float:
        """Average per-snapshot kernel seconds observed so far (preparing epochs)."""
        total = sum(stats.seconds for stats in self.device.kernel_stats.values())
        executed = max(1, self._epochs_run) * self.frames.num_frames * self.config.frame_size
        if total <= 0:
            # No preparing epoch ran: fall back to a coarse analytic estimate.
            return 5e-4 * self.scale / max(1.0, self.scale)
        return total / executed

    def _run_preprocessing(self) -> None:
        """Graph slicing, overlap extraction and per-frame tuning (one-off)."""
        # Slicing every snapshot once (host work, overlapped with training).
        slicing_seconds = sum(
            self.slicer.conversion_seconds(s.adjacency) for s in self.graph.snapshots
        )
        self.slicer.total_host_seconds += slicing_seconds
        self.device.host_op(slicing_seconds, label="graph_slicing", stream="cpu_prep")

        transfer_bytes, footprint_bytes = self._per_snapshot_bytes()
        compute_seconds = self._measured_per_snapshot_compute()
        frame_activation = self._frame_activation_bytes()

        for frame in self.frames:
            overlap_rates: Dict[int, float] = {}
            for candidate in self.tuner.candidates:
                before = self.preparer.total_extraction_seconds
                partitions = self.preparer.prepare_frame(list(frame.snapshots), candidate)
                extraction_delta = self.preparer.total_extraction_seconds - before
                if extraction_delta > 0:
                    self.device.host_op(
                        extraction_delta,
                        label=f"overlap_extraction_f{frame.index}_s{candidate}",
                        stream="cpu_prep",
                    )
                overlap_rates[candidate] = float(
                    np.mean([p.overlap_rate for p in partitions])
                )
            profile = FrameProfile(
                frame_index=frame.index,
                overlap_rate_per_candidate=overlap_rates,
                per_snapshot_compute_seconds=compute_seconds,
                per_snapshot_transfer_bytes=transfer_bytes,
                per_snapshot_footprint_bytes=footprint_bytes,
                frame_activation_bytes=frame_activation,
            )
            decision = self.tuner.decide(
                profile, pcie_bandwidth_gbs=self.config.pcie.bandwidth_gbs
            )
            if self.pipad.fixed_s_per is not None:
                decision = TuningDecision(
                    frame_index=frame.index,
                    s_per=self.pipad.fixed_s_per,
                    estimated_speedup=decision.estimated_speedup,
                    overlap_rate=decision.overlap_rate,
                    reason="fixed by configuration",
                )
            self._frame_s_per[frame.index] = decision.s_per
            self._tuning_decisions.append(decision)
        self._preprocessed = True
        if self.placement.kind == "group":
            self._replan()

    # ------------------------------------------------------------------ node sharding
    def _measured_node_weight(self) -> float:
        """Dense per-node work in units of per-edge aggregation work.

        Calibrated from the preparing-epoch kernel statistics, the same
        source the dynamic tuner feeds on; without them (``preparing_epochs
        == 0``) the node and edge masses are weighted equally.
        """
        mean_edges = float(np.mean([s.num_edges for s in self.graph.snapshots]))
        fallback = mean_edges / max(1.0, float(self.graph.num_nodes))
        stats = self.device.kernel_stats
        aggregation = stats[CATEGORY_AGGREGATION].seconds
        dense = sum(s.seconds for cat, s in stats.items() if cat != CATEGORY_AGGREGATION)
        if aggregation <= 0 or dense <= 0 or mean_edges == 0:
            return fallback
        per_edge = aggregation / mean_edges
        per_node = dense / float(self.graph.num_nodes)
        return per_node / per_edge

    def _replan(self) -> None:
        """Re-balance the shard boundaries once kernel statistics exist."""
        snapshots = self.graph.snapshots
        self.boundaries = self.partitioner.plan(
            snapshots, node_weight=self._measured_node_weight()
        )
        self._node_fractions = self.partitioner.node_fractions(self.boundaries)
        self._edge_fractions = self.partitioner.edge_fractions(snapshots, self.boundaries)
        self._halo_nodes = self.partitioner.mean_halo_nodes(snapshots, self.boundaries)
        # Re-sharding remaps which device owns which node blocks; any cached
        # residency keyed against the old ranges is stale.
        for cache in self.feature_caches:
            cache.clear()

    def _cost_fraction(self, device: int, cost: KernelCost) -> float:
        """Share of one kernel's work that lands on ``device``'s shard.

        Aggregation work follows the shard's edges; dense update/RNN/
        elementwise work follows its node count.
        """
        if cost.category == CATEGORY_AGGREGATION:
            return max(float(self._edge_fractions[device]), _MIN_FRACTION)
        return max(float(self._node_fractions[device]), _MIN_FRACTION)

    def _state_bytes(self, nodes: int) -> float:
        """Bytes of ``nodes`` rows of the recurrent hidden state."""
        return float(nodes) * self._hidden_dim * self._state_itemsize * self.scale

    # ------------------------------------------------------------------ frame pipelining
    def _stage_state_bytes(self) -> float:
        """Bytes handed between adjacent pipeline stages.

        Recurrent models carry the per-node hidden state; weight-evolving
        models (EvolveGCN) instead ship the evolved weight matrices, which
        are node-count independent.  The backward chain moves the matching
        gradients, so the same size applies in both directions.
        """
        if self.model.evolves_weights:
            return self._gradient_bytes
        return self._state_bytes(self.graph.num_nodes)

    @staticmethod
    def _split_costs(
        costs: Sequence[KernelCost],
    ) -> Tuple[List[KernelCost], List[KernelCost]]:
        """(state-independent aggregation costs, state-dependent dense costs)."""
        aggregation = [c for c in costs if c.category == CATEGORY_AGGREGATION]
        dense = [c for c in costs if c.category != CATEGORY_AGGREGATION]
        return aggregation, dense

    # ------------------------------------------------------------------ frame execution overrides
    def _make_partitions(self, frame: Frame) -> List[Tuple[GraphSnapshot, ...]]:
        if self._preparing:
            return super()._make_partitions(frame)
        s_per = self._frame_s_per.get(frame.index, self.tuner.candidates[0])
        return [
            tuple(frame.snapshots[start : start + s_per])
            for start in range(0, frame.size, s_per)
        ]

    def _make_provider(self, snapshots: Sequence[GraphSnapshot]):
        if self._preparing:
            return super()._make_provider(snapshots)
        partition = self.datapipe.partition(snapshots)
        return ParallelAggregationProvider(
            partition,
            spec=self.config.gpu,
            scale=self.scale,
            cache=self.cache,
            reusable_layers=self.model.reusable_aggregation_layers if self.use_reuse else (),
            slice_capacity=self.pipad.slice_capacity,
            use_sliced_csr=self.pipad.use_sliced_csr,
        )

    def _partition_context(self, snapshots: Sequence[GraphSnapshot]) -> ExecutionContext:
        if self._preparing:
            return self.context
        reuse_group = 1
        if self.pipad.enable_weight_reuse and not self.model.evolves_weights:
            reuse_group = len(snapshots)
        return self.context.with_reuse_group(reuse_group)

    def _fans_out(self) -> bool:
        """Whether the current work spreads beyond the lead device."""
        return not self._preparing and self.group.num_devices > 1

    def _before_frame(self, frame: Frame, epoch: int) -> None:
        if self._preparing:
            return
        if self.cache is not None:
            # Keep the aggregation results this frame will consume resident
            # on the GPU-side buffer (capacity permitting), in use order.
            agg_bytes = int(self.graph.num_nodes * self.graph.feature_dim * 4 * self.scale)
            timesteps = [s.timestep for s in frame.snapshots]
            self.reuse.plan_gpu_residency(timesteps, {t: agg_bytes for t in timesteps})
        if self.placement.kind == "pipeline" and self._fans_out():
            num_groups = len(self._make_partitions(frame))
            self._assignment = self.frame_partitioner.assign(num_groups)
            self._group_index = 0
            # Each frame re-initializes the recurrent state; the chain restarts.
            self._state_op = None
            self._state_device = 0

    def _partition_transfer_bytes(self, snapshots: Sequence[GraphSnapshot]) -> float:
        partition = self.datapipe.partition(snapshots)
        nbytes = 0.0
        topology_needed = False
        for snapshot in snapshots:
            cached = self.reuse.has_cached(snapshot.timestep) if self.cache is not None else False
            if cached:
                if not self.reuse.is_gpu_resident(snapshot.timestep):
                    # Ship the cached aggregation result instead of raw features.
                    nbytes += snapshot.num_nodes * snapshot.feature_dim * 4
                if self.model.needs_topology_with_reuse:
                    topology_needed = True
            else:
                nbytes += snapshot.feature_bytes()
                topology_needed = True
            nbytes += snapshot.num_nodes * 4  # targets
        if topology_needed:
            nbytes += partition.adjacency_bytes
        return nbytes * self.scale

    def _shares(self) -> List[Tuple[int, int, int, float]]:
        """Where the current partition runs: ``(device, row lo, row hi, cost
        fraction)`` per participating device.

        ``group`` runs it on every device over that device's rows at its node
        fraction; a multi-stage ``pipeline`` runs it whole on its assigned
        stage; otherwise it runs whole on the lead device.
        """
        if self.placement.kind == "group":
            return [
                (
                    index,
                    int(self.boundaries[index]),
                    int(self.boundaries[index + 1]),
                    max(float(self._node_fractions[index]), _MIN_FRACTION),
                )
                for index in range(self.num_devices)
            ]
        stage = 0
        if self.placement.kind == "pipeline" and self._fans_out():
            stage = int(self._assignment[self._group_index])
        return [(stage, 0, self.graph.num_nodes, 1.0)]

    def _cache_label(self, label: str, device: int) -> str:
        """Span label of a cache lookup: per shard ``_d{i}``, per stage ``_s{i}``."""
        if self.placement.kind == "group":
            return f"{label}_d{device}"
        if self.placement.kind == "pipeline" and self._fans_out():
            return f"{label}_s{device}"
        return label

    def _transfer_partition(
        self,
        snapshots: Sequence[GraphSnapshot],
        depends_on: Optional[Sequence[TimelineOp]],
    ) -> List[TimelineOp]:
        if self._preparing:
            return super()._transfer_partition(snapshots, depends_on)
        label = f"p{snapshots[0].timestep}"
        total_bytes = self._partition_transfer_bytes(snapshots)
        transfer_ops: List[List[TimelineOp]] = []
        for device, lo, hi, fraction in self._shares():
            item = PipeItem(
                label=label,
                num_snapshots=len(snapshots),
                transfer_bytes=total_bytes * fraction,
                slice_scale=fraction,
            )
            if self.feature_caches:
                plan = self._cache_plan(
                    snapshots,
                    index=device,
                    lo=lo,
                    hi=hi,
                    label=self._cache_label(label, device),
                )
                item = self._apply_cache_plan(item, plan)
            transfer_ops.append(
                self.prefetchers[device].schedule(item, depends_on=depends_on)
            )
        if self.placement.kind != "group" or not self._fans_out():
            return transfer_ops[0]
        halo_bytes = [
            float(
                self._halo_nodes[index]
                * self.graph.feature_dim
                * self._feature_itemsize
                * self.scale
            )
            for index in range(self.num_devices)
        ]
        self._halo_bytes_total += sum(halo_bytes)
        return self.group.halo_exchange(
            halo_bytes, label=f"halo_{label}", depends_on=transfer_ops
        )

    def _launch_partition_kernels(
        self,
        costs: Sequence[KernelCost],
        snapshots: Sequence[GraphSnapshot],
        transfer_ops: Sequence[TimelineOp],
        last_compute: Sequence[TimelineOp],
    ) -> List[TimelineOp]:
        if not self._fans_out():
            ops = super()._launch_partition_kernels(
                costs, snapshots, transfer_ops, last_compute
            )
            if not self._preparing:
                # The last kernel of the partition is what frees the
                # prefetcher's depth slot: item k+depth+1's host prep may not
                # start before it.
                self.prefetchers[0].mark_consumed(ops)
            return ops
        if self.placement.kind == "pipeline":
            return self._launch_stage(costs, snapshots, transfer_ops)
        timestep = snapshots[0].timestep
        per_device_last = self._launch_shards(
            costs, f"fwd_t{timestep}", "dispatch", list(transfer_ops) + list(last_compute)
        )
        for prefetcher, last in zip(self.prefetchers, per_device_last):
            prefetcher.mark_consumed(last)
        # The recurrent state of remote nodes feeds the next partition's
        # aggregation, so shard results (each device's rows of the hidden
        # state) are all-gathered before moving on.
        sync_ops = self.group.all_gather(
            max(self._state_bytes(rows) for rows in np.diff(self.boundaries)),
            label=f"state_sync_t{timestep}",
            depends_on=per_device_last,
        )
        self._device_ready = [[op] for op in sync_ops]
        # The lead device's sync op carries the synchronized end time, so the
        # base class's ``last_compute`` chaining stays correct.
        return [sync_ops[0]]

    def _launch_backward(
        self, costs: Sequence[KernelCost], last_compute: Sequence[TimelineOp]
    ) -> List[TimelineOp]:
        if not self._fans_out():
            return super()._launch_backward(costs, last_compute)
        if self.placement.kind == "pipeline":
            per_device_last = self._launch_stage_backward(costs, last_compute)
        else:
            per_device_last = self._launch_shards(
                costs, "backward", "dispatch_bwd", list(last_compute)
            )
        # Every device holds partial weight gradients (of its shard, or of
        # its stage's partitions); combine them before the optimizer step so
        # every replica applies the same update.
        reduce_ops = self.group.all_reduce(
            self._gradient_bytes, label="grad_all_reduce", depends_on=per_device_last
        )
        self._device_ready = [[op] for op in reduce_ops]
        return [reduce_ops[0]]

    def _launch_shards(
        self,
        costs: Sequence[KernelCost],
        label: str,
        dispatch_label: str,
        deps: List[TimelineOp],
    ) -> List[List[TimelineOp]]:
        """Launch every device's cost-scaled share of ``costs`` (node
        sharding); returns each device's last op."""
        per_device_last: List[List[TimelineOp]] = []
        for index, device in enumerate(self.group.devices):
            shard_costs = [c.scaled(self._cost_fraction(index, c)) for c in costs]
            device.host_op(
                self._dispatch_seconds(sum(c.launches for c in shard_costs)),
                label=dispatch_label,
                stream=self._dispatch_stream(),
            )
            ops = device.launch_kernels(
                shard_costs,
                label=label,
                stream=self._compute_stream(),
                depends_on=deps + self._device_ready[index],
            )
            per_device_last.append(ops[-1:])
        return per_device_last

    def _launch_stage(
        self,
        costs: Sequence[KernelCost],
        snapshots: Sequence[GraphSnapshot],
        transfer_ops: Sequence[TimelineOp],
    ) -> List[TimelineOp]:
        """Launch one partition's kernels on its pipeline stage."""
        stage = int(self._assignment[self._group_index])
        device = self.group.devices[stage]
        stream = self._compute_stream()
        timestep = snapshots[0].timestep
        aggregation, dense = self._split_costs(costs)
        device.host_op(
            self._dispatch_seconds(sum(c.launches for c in costs)),
            label="dispatch",
            stream=self._dispatch_stream(),
        )
        frame_ready = self._device_ready[stage]
        # A first-layer aggregation depends only on topology and raw features,
        # so it runs as soon as the stage's data lands.
        agg_ops = (
            device.launch_kernels(
                aggregation,
                label=f"fwd_agg_t{timestep}",
                stream=stream,
                depends_on=list(transfer_ops) + frame_ready,
            )
            if aggregation
            else []
        )
        # The state chain: the previous group's dense output feeds this
        # group's dense kernels — across stages it travels as a p2p transfer.
        state_deps: List[TimelineOp] = []
        if self._state_op is not None:
            if self._state_device != stage:
                _, recv_op = self.group.send(
                    self._state_device,
                    stage,
                    self._stage_state_bytes(),
                    label=f"state_t{timestep}",
                    depends_on=[self._state_op],
                )
                state_deps = [recv_op]
            else:
                state_deps = [self._state_op]
        local_deps = (agg_ops[-1:] if agg_ops else list(transfer_ops)) + frame_ready
        ops = self._launch_chained(
            stage, dense, f"fwd_t{timestep}", stream, local_deps, state_deps
        )
        last = ops or agg_ops
        if last:
            self._state_op = last[-1]
            self._state_device = stage
        self.prefetchers[stage].mark_consumed(last[-1:])
        self._group_index += 1
        return last[-1:]

    def _launch_chained(
        self,
        stage: int,
        costs: List[KernelCost],
        label: str,
        stream: str,
        local_deps: List[TimelineOp],
        chain_deps: List[TimelineOp],
    ) -> List[TimelineOp]:
        """Launch state-chained kernels and account their pipeline bubble.

        The bubble is the stall attributable to the cross-stage dependency
        alone: how much later the first kernel starts than it would have from
        purely local readiness (own transfers/aggregation, compute engine and
        stream order).
        """
        if not costs:
            return []
        device = self.group.devices[stage]
        timeline = device.timeline
        local_ready = max(
            [
                timeline.resource_free_at(RESOURCE_COMPUTE),
                timeline.stream_free_at(stream),
                *(op.end for op in local_deps),
            ]
        )
        ops = device.launch_kernels(
            costs, label=label, stream=stream, depends_on=local_deps + chain_deps
        )
        bubble = ops[0].start - local_ready
        if bubble > 0.0:
            self._bubble_seconds += bubble
            self.hooks.on_bubble(stage, local_ready, ops[0].start)
        return ops

    def _launch_stage_backward(
        self, costs: Sequence[KernelCost], last_compute: Sequence[TimelineOp]
    ) -> List[List[TimelineOp]]:
        """Run the stage chain in reverse; returns each device's last op."""
        num_groups = len(self._assignment)
        share = 1.0 / num_groups
        # ``scaled`` divides the extensive work; the launches are genuinely
        # split across groups too (unlike node sharding, where every device
        # issues the full kernel sequence on its shard).
        shares = [
            dataclasses.replace(
                c.scaled(share), launches=max(1, round(c.launches * share))
            )
            for c in costs
        ]
        aggregation, dense = self._split_costs(shares)
        stream = self._compute_stream()
        per_device_last = [list(ready) for ready in self._device_ready]
        chain_op: Optional[TimelineOp] = None
        chain_device = 0
        # The state gradient hops from the stage of group g to that of g-1.
        for index in range(num_groups - 1, -1, -1):
            stage = int(self._assignment[index])
            device = self.group.devices[stage]
            device.host_op(
                self._dispatch_seconds(sum(c.launches for c in aggregation + dense)),
                label="dispatch_bwd",
                stream=self._dispatch_stream(),
            )
            if chain_op is None:
                chain_deps = list(last_compute)
            elif chain_device != stage:
                _, recv_op = self.group.send(
                    chain_device,
                    stage,
                    self._stage_state_bytes(),
                    label=f"grad_p{index}",
                    depends_on=[chain_op],
                )
                chain_deps = [recv_op]
            else:
                chain_deps = [chain_op]
            dense_ops = self._launch_chained(
                stage, dense, "backward", stream, per_device_last[stage], chain_deps
            )
            # Aggregation backward needs only this group's upstream gradient;
            # it drains off-chain while the chain continues on other stages.
            agg_ops = (
                device.launch_kernels(
                    aggregation,
                    label="backward_agg",
                    stream=stream,
                    depends_on=dense_ops[-1:] or chain_deps,
                )
                if aggregation
                else []
            )
            if dense_ops:
                chain_op, chain_device = dense_ops[-1], stage
            tail = agg_ops or dense_ops
            if tail:
                per_device_last[stage] = tail[-1:]
        return per_device_last

    def _compute_stream(self) -> str:
        if self._preparing:
            return super()._compute_stream()
        return "compute" if self.pipad.enable_pipeline else "default"

    # ------------------------------------------------------------------ epochs
    def run_epoch(self, epoch: int) -> EpochMetrics:
        was_preparing = self._preparing
        self._preparing = self._epochs_run < self.pipad.preparing_epochs
        if self._preparing and self._epochs_run == 0:
            self.hooks.on_phase_start("prepare", self.group.makespan())
        if not self._preparing and not self._preprocessed:
            self._run_preprocessing()
            if was_preparing and self.pipad.preparing_epochs > 0:
                self.hooks.on_phase_end("prepare", self.group.makespan())
        metrics = super().run_epoch(epoch)
        self._epochs_run += 1
        return metrics

    def train(self, epochs: Optional[int] = None) -> TrainingResult:
        result = super().train(epochs)
        if self.placement.kind != "single":
            # The group view: kinds summed over devices, collectives itemized.
            result.breakdown = self.group.breakdown()
        return result

    def _extra_metrics(self) -> Dict[str, float]:
        extras: Dict[str, float] = dict(self.reuse.stats()) if self.cache is not None else {}
        extras["slicing_host_seconds"] = self.slicer.total_host_seconds
        extras["extraction_host_seconds"] = self.preparer.total_extraction_seconds
        extras["prefetch_depth"] = float(self.prefetchers[0].depth)
        extras["prefetch_items"] = float(sum(p.items_scheduled for p in self.prefetchers))
        extras["prefetch_host_seconds"] = sum(p.host_seconds_total for p in self.prefetchers)
        if self.feature_caches:
            extras.update(
                aggregate_cache_stats([c.stats() for c in self.feature_caches])
            )
        if self._tuning_decisions:
            extras["mean_s_per"] = float(np.mean([d.s_per for d in self._tuning_decisions]))
            extras["mean_estimated_speedup"] = float(
                np.mean([d.estimated_speedup for d in self._tuning_decisions])
            )
        if self.placement.kind == "single":
            return extras
        extras["num_devices"] = float(self.group.num_devices)
        if self.placement.kind == "group":
            extras["halo_feature_bytes"] = self._halo_bytes_total
        else:
            extras["pipeline_bubble_seconds"] = self._bubble_seconds
        for kind, seconds in self.group.collective_seconds.items():
            extras[f"{kind}_seconds"] = seconds
        device_seconds = self.group.device_seconds()
        extras["device_seconds_max"] = float(max(device_seconds))
        extras["device_seconds_min"] = float(min(device_seconds))
        if self.placement.kind == "group":
            balance = np.array(self._edge_fractions, dtype=np.float64)
            extras["edge_fraction_spread"] = float(balance.max() - balance.min())
        return extras

    # ------------------------------------------------------------------ introspection
    @property
    def tuning_decisions(self) -> List[TuningDecision]:
        return list(self._tuning_decisions)

    def chosen_s_per(self) -> Dict[int, int]:
        return dict(self._frame_s_per)
