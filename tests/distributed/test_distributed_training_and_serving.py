"""Tests for node-sharded training (``Placement(kind="group")``) and the
replicated serving preset."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.baselines import TrainerConfig
from repro.core import PiPADConfig, PiPADTrainer, Placement
from repro.distributed import FleetConfig, build_fleet_serving_engine
from repro.nn import build_model
from repro.serving import synthesize_serving_trace


def build_replicated(graph, model, num_shards, config=None, **kwargs):
    """Round-robin replication of full replicas: the ``sharded`` preset."""
    fleet = FleetConfig(
        num_shards=num_shards,
        min_replicas=num_shards,
        admission_limit=sys.maxsize,
        replicated=True,
    )
    return build_fleet_serving_engine(graph, model, fleet, config, **kwargs)


@pytest.fixture()
def dist_trainer_config():
    return TrainerConfig(model="tgcn", frame_size=4, epochs=3, cost_scale=2000.0, seed=0)


class TestDistributedTrainer:
    def test_numerics_identical_to_single_device(self, small_graph, trainer_config):
        """Sharding only changes the timing model, never the math."""
        single = PiPADTrainer(
            small_graph, trainer_config, PiPADConfig(preparing_epochs=1)
        ).train()
        sharded = PiPADTrainer(
            small_graph,
            trainer_config,
            PiPADConfig(preparing_epochs=1),
            placement=Placement(kind="group", num_devices=4),
        ).train()
        assert sharded.final_loss == single.final_loss
        assert sharded.method == "PiPAD-DP"

    def test_four_devices_beat_one(self, small_graph, dist_trainer_config):
        results = {}
        for devices in (1, 4):
            results[devices] = PiPADTrainer(
                small_graph,
                dist_trainer_config,
                PiPADConfig(preparing_epochs=1),
                placement=Placement(kind="group", num_devices=devices),
            ).train()
        assert (
            results[4].steady_epoch_seconds < results[1].steady_epoch_seconds
        )

    def test_collectives_reported(self, small_graph, dist_trainer_config):
        result = PiPADTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            placement=Placement(kind="group", num_devices=2),
        ).train()
        assert result.extras["num_devices"] == 2.0
        assert result.extras["all_reduce_seconds"] > 0
        assert result.extras["halo_exchange_seconds"] > 0
        assert result.extras["all_gather_seconds"] > 0
        assert result.breakdown["collective_all_reduce"] > 0

    def test_single_device_has_no_collectives(self, small_graph, trainer_config):
        result = PiPADTrainer(
            small_graph,
            trainer_config,
            PiPADConfig(preparing_epochs=1),
            placement=Placement(kind="group", num_devices=1),
        ).train()
        assert "all_reduce_seconds" not in result.extras
        assert result.extras["halo_feature_bytes"] == 0.0

    def test_result_aggregates_cover_the_whole_group(self, small_graph, dist_trainer_config):
        """Regression: category/launch/memory counters reported only the lead
        device's ~1/K shard while breakdown summed all devices."""
        trainer = PiPADTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            placement=Placement(kind="group", num_devices=4),
        )
        result = trainer.train()
        expected_category = {}
        for device in trainer.group:
            for cat, seconds in device.category_seconds().items():
                expected_category[cat] = expected_category.get(cat, 0.0) + seconds
        assert result.category_seconds == pytest.approx(expected_category)
        assert result.kernel_launches == sum(
            s.launches for d in trainer.group for s in d.kernel_stats.values()
        )
        assert result.peak_memory_bytes == max(d.peak_bytes for d in trainer.group)
        # Group totals strictly exceed the lead-only view in steady state.
        assert sum(result.category_seconds.values()) > sum(
            trainer.device.category_seconds().values()
        )

    def test_makespan_covers_every_device(self, small_graph, dist_trainer_config):
        trainer = PiPADTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            placement=Placement(kind="group", num_devices=3),
        )
        result = trainer.train()
        assert result.simulated_seconds == pytest.approx(trainer.group.makespan())
        # Collectives keep the devices synchronized through the end of training.
        for device in trainer.group:
            assert device.elapsed_seconds() <= result.simulated_seconds

    def test_replanning_balances_dense_work(self, small_graph, dist_trainer_config):
        trainer = PiPADTrainer(
            small_graph,
            dist_trainer_config,
            PiPADConfig(preparing_epochs=1),
            placement=Placement(kind="group", num_devices=4),
        )
        trainer.train()
        # TGCN is RNN/update dominated, so the calibrated plan must not give
        # any shard a wildly disproportionate share of the node set.
        assert trainer._node_fractions.max() < 0.5

    def test_pcie_interconnect_slower_than_nvlink(self, small_graph, dist_trainer_config):
        times = {}
        for kind in ("nvlink", "pcie"):
            times[kind] = PiPADTrainer(
                small_graph,
                dist_trainer_config,
                PiPADConfig(preparing_epochs=1),
                placement=Placement(kind="group", num_devices=4, interconnect=kind),
            ).train().steady_epoch_seconds
        assert times["nvlink"] <= times["pcie"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Placement(kind="group", num_devices=0)

    def test_scaling_experiment_requires_single_device_reference(self):
        from repro.experiments import run_experiment

        with pytest.raises(ValueError, match="must include 1"):
            run_experiment("scaling", device_counts=(2, 4))


class TestShardedServing:
    def make_engine(self, graph, num_shards):
        model = build_model("tgcn", graph.feature_dim, 8, seed=0)
        return build_replicated(graph, model, num_shards)

    def test_requests_conserved_across_shards(self, small_graph):
        engine = self.make_engine(small_graph, 3)
        trace = synthesize_serving_trace(small_graph[-1], 60, seed=4)
        report = engine.run_trace(trace)
        num_requests = sum(1 for e in trace if e.kind == "request")
        assert report.metrics.num_requests == num_requests
        shard_counts = [
            report.extras[f"shard{i}_requests"] for i in range(engine.num_shards)
        ]
        assert sum(shard_counts) == num_requests
        # Round-robin routing spreads the load.
        assert max(shard_counts) - min(shard_counts) <= 1

    def test_deltas_broadcast_to_every_shard(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=7)
        report = engine.run_trace(trace)
        num_deltas = sum(1 for e in trace if e.kind == "delta")
        assert report.metrics.deltas_ingested == num_deltas
        versions = {tuple(r.store.window_versions()) for r in engine.replicas}
        assert len(versions) == 1  # all shards serve the same head state

    def test_replicas_share_one_store(self, small_graph):
        engine = self.make_engine(small_graph, 3)
        assert len({id(replica.store) for replica in engine.replicas}) == 1
        assert engine.store is engine.replicas[0].store

    def test_each_delta_applied_once(self, small_graph):
        """The shared store applies a delta once, not once per replica."""
        engine = self.make_engine(small_graph, 3)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=7)
        engine.run_trace(trace)
        num_deltas = sum(1 for e in trace if e.kind == "delta")
        assert num_deltas > 0
        assert engine.store.deltas_applied == num_deltas

    def test_replicated_pool_charges_no_halo_and_caches_all_rows(self, small_graph):
        from repro.memory import MemoryConfig

        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        engine = build_replicated(
            small_graph, model, 2, memory=MemoryConfig(feature_cache=True)
        )
        engine.run_trace(synthesize_serving_trace(small_graph[-1], 40, seed=3))
        assert engine.halo_gather_batches == 0
        for replica in engine.replicas:
            assert (replica._cache_lo, replica._cache_hi) == (0, small_graph.num_nodes)

    def test_routing_is_recorded(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        first = engine.submit([0, 1], at=0.0)
        second = engine.submit([2], at=0.0)
        assert engine.route_of(first)[0] == 0
        assert engine.route_of(second)[0] == 1

    def test_pump_results_keyed_by_global_request_ids(self, small_graph):
        """Regression: shard-local ids collide across shards; the ids submit
        hands out must be the ones pump results and the report use."""
        engine = self.make_engine(small_graph, 2)
        ids = [engine.submit([i], at=0.0) for i in range(4)]
        assert ids == [0, 1, 2, 3]  # shard-locally these are (0,0),(1,0),(0,1),(1,1)
        results = engine.pump(0.0, force=True)
        predicted = set()
        for result in results:
            predicted.update(result.predictions)
        assert predicted == set(ids)
        # Batch ids are unique across shards too (same offset as the report).
        assert len({r.batch_id for r in results}) == len(results)
        report = engine.report()
        assert sorted(r.request_id for r in report.metrics.requests) == ids
        assert {r.batch_id for r in report.metrics.requests} <= {
            r.batch_id for r in results
        }

    def test_direct_replica_submit_rejected_at_pump(self, small_graph):
        """Regression: unmapped shard-local ids used to fall back to the raw
        local id, colliding with issued global ids."""
        engine = self.make_engine(small_graph, 2)
        engine.submit([0], at=0.0)
        engine.replicas[0].submit([1], at=0.0)  # bypasses the engine
        with pytest.raises(KeyError, match="submitted through"):
            engine.pump(0.0, force=True)

    def test_merged_breakdown_does_not_sum_makespans(self, small_graph):
        """Regression: summing K shard makespans ~Kx-inflated the clock."""
        engine = self.make_engine(small_graph, 3)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=3)
        report = engine.run_trace(trace)
        shard_makespans = [r.device.elapsed_seconds() for r in engine.replicas]
        assert report.breakdown["makespan"] == pytest.approx(max(shard_makespans))
        assert report.simulated_seconds == pytest.approx(max(shard_makespans))
        # Utilization is a ratio: merged as the mean across shards, never summed.
        shard_utils = [r.report().breakdown["gpu_utilization"] for r in engine.replicas]
        assert report.breakdown["gpu_utilization"] == pytest.approx(np.mean(shard_utils))
        assert report.breakdown["gpu_utilization"] <= 1.0
        # Kind-seconds remain additive across the shards.
        assert report.breakdown["h2d"] == pytest.approx(
            sum(r.device.breakdown().get("h2d", 0.0) for r in engine.replicas)
        )

    def test_sharding_reduces_latency_under_load(self, small_graph):
        """With batches expensive enough to saturate one device, spreading
        the traffic over shards must cut the queueing latency."""
        from repro.serving import ServingConfig

        trace = synthesize_serving_trace(
            small_graph[-1], 80, seed=11, mean_interarrival_ms=0.05
        )
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        config = ServingConfig(window=4, max_batch_requests=2, max_delay_ms=0.05)
        one = build_replicated(
            small_graph, model, 1, config, scale=500.0
        ).run_trace(trace)
        four = build_replicated(
            small_graph, model, 4, config, scale=500.0
        ).run_trace(trace)
        assert four.metrics.mean_latency < one.metrics.mean_latency

    def test_merged_report_shape(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        trace = synthesize_serving_trace(small_graph[-1], 30, seed=5)
        report = engine.run_trace(trace)
        assert report.engine.endswith("-x2")
        assert report.extras["num_shards"] == 2.0
        assert report.simulated_seconds == max(
            r.device.elapsed_seconds() for r in engine.replicas
        )
        result = report.to_training_result()
        assert np.isfinite(result.extras["p50_latency_ms"])

    def test_zero_shards_rejected(self, small_graph):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        with pytest.raises(ValueError):
            build_replicated(small_graph, model, 0)


class TestReportMergeBugfixes:
    """Regressions for the sharded report-merge semantics.

    ``rows_touched`` must aggregate as a fleet-wide *sum* (it counts patch
    work actually done), ``deltas_ingested`` as the *logical* delta count,
    reuse-stat gauges as means, and the wall clock must start at first
    traffic, not at engine construction.
    """

    def make_engine(self, graph, num_shards):
        model = build_model("tgcn", graph.feature_dim, 8, seed=0)
        return build_replicated(graph, model, num_shards)

    def deltas_from_trace(self, graph, seed=7):
        trace = synthesize_serving_trace(graph[-1], 40, seed=seed)
        return [e.delta for e in trace if e.kind == "delta"]

    def test_rows_touched_sums_divergent_shard_traffic(self, small_graph):
        """Pinned: report() used to copy replica 0's rows_touched verbatim."""
        engine = self.make_engine(small_graph, 2)
        first, second = self.deltas_from_trace(small_graph)[:2]
        engine.ingest(first, at=0.0)  # broadcast: both replicas touch rows
        # Replica 1 alone absorbs a second delta — the shards now disagree.
        engine.replicas[1].ingest(second, at=0.0)
        per_replica = [r.metrics.rows_touched for r in engine.replicas]
        assert per_replica[1] > per_replica[0]
        merged = engine.report().metrics
        assert merged.rows_touched == sum(per_replica)
        assert merged.rows_touched != per_replica[0]

    def test_deltas_ingested_counts_logical_deltas(self, small_graph):
        engine = self.make_engine(small_graph, 3)
        for delta in self.deltas_from_trace(small_graph)[:3]:
            engine.ingest(delta, at=0.0)
        # Each broadcast lands on all 3 replicas but is ONE logical delta.
        assert engine.report().metrics.deltas_ingested == 3

    def test_reuse_gauges_average_while_counters_sum(self, small_graph):
        engine = self.make_engine(small_graph, 2)
        trace = synthesize_serving_trace(small_graph[-1], 40, seed=9)
        report = engine.run_trace(trace)
        stats = [r.session.stats() for r in engine.replicas]
        # Gauges (point-in-time sizes) merge as the mean across replicas...
        for key in ("cpu_cached_snapshots", "gpu_resident_snapshots", "gpu_buffer_bytes"):
            assert report.reuse_stats[key] == pytest.approx(
                np.mean([s[key] for s in stats])
            )
        # ...while event counters keep summing fleet-wide.
        for key in ("cpu_hits", "gpu_hits", "misses", "rows_patched"):
            assert report.reuse_stats[key] == pytest.approx(
                sum(s[key] for s in stats)
            )

    def test_wall_clock_starts_at_first_traffic(self, small_graph):
        import time as _time

        from repro.serving import ServingConfig
        from repro.serving.scheduler import _build_serving_scheduler

        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        single = _build_serving_scheduler(
            small_graph, model, ServingConfig(window=4)
        )
        sharded = self.make_engine(small_graph, 2)
        # Idle engines report zero host wall time, however old they are.
        assert single.report().wall_seconds == 0.0
        assert sharded.report().wall_seconds == 0.0
        # Time spent between construction and first traffic is excluded.
        pause = 0.2
        _time.sleep(pause)
        for engine in (single, sharded):
            engine.submit([0], at=0.0)
            engine.pump(0.0, force=True)
            assert 0.0 < engine.report().wall_seconds < pause
