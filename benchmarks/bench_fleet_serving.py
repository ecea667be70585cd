"""Benchmark: fleet serving vs replicated round-robin sharding.

Replays one skewed, bursty trace (70 % of requests hammer shard 0's node
range, near-zero interarrival) against two 4-replica topologies built from
the same trained model:

- ``sharded`` — the replicated :class:`FleetServingEngine` preset that
  ``serving.kind = "sharded"`` builds: every replica holds the **full**
  serving window, requests rotate round-robin and queues grow without bound;
- ``fleet`` — the node-sharded :class:`FleetServingEngine`: one store
  (each replica accounts only its node range + halo rows), ownership
  routing with queue-depth admission control, and an elastic replica pool
  driven by the p99 SLO.

The assertions mirror the fleet acceptance criteria: per-replica store
memory drops by ~K, overload is shed (``rejected_requests > 0``) instead of
queued so the p99 of *admitted* requests beats round-robin under the same
burst, the autoscaler reacts to SLO pressure, and — with the reuse cache
off so incremental delta patches cannot diverge float32 rounding — admitted
predictions are bit-identical to the single-device scheduler.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from conftest import run_once, write_bench_json

from repro.api import ServingSpec
from repro.distributed import FleetConfig, build_fleet_serving_engine
from repro.graph import load_dataset
from repro.nn import build_model
from repro.serving import ServingConfig, synthesize_serving_trace
from repro.serving.scheduler import _build_serving_scheduler

NUM_SHARDS = 4
SKEW_FRACTION = 0.7  # fraction of requests remapped into shard 0's range


COST_SCALE = 100.0  # slow the simulated compute so the burst saturates it


def _fleet_config() -> FleetConfig:
    return FleetConfig(
        num_shards=NUM_SHARDS,
        min_replicas=1,
        admission_limit=8,
        slo_p99_ms=1.0,
        scale_window=8,
        scale_cooldown=4,
    )


def _skewed_trace(graph, boundaries, num_events, seed=7):
    """Bursty trace with most requests concentrated on shard 0's nodes."""
    lo, hi = int(boundaries[0]), int(boundaries[1])
    rng = np.random.default_rng(seed)
    events = []
    for event in synthesize_serving_trace(
        graph[-1], num_events, seed=seed, mean_interarrival_ms=0.05, nodes_per_request=4
    ):
        if event.kind == "request" and rng.random() < SKEW_FRACTION:
            ids = lo + (np.asarray(event.node_ids, dtype=np.int64) % (hi - lo))
            event = dataclasses.replace(event, node_ids=ids)
        events.append(event)
    return events


def _compare(quick: bool):
    graph = load_dataset("youtube", num_snapshots=8 if quick else 12)
    model = build_model("tgcn", graph.feature_dim, 8, seed=0)
    config = ServingConfig(
        window=4 if quick else 8, max_batch_requests=8, max_delay_ms=0.5
    )
    num_events = 120 if quick else 300

    fleet = build_fleet_serving_engine(
        graph, model, _fleet_config(), config, scale=COST_SCALE
    )
    trace = _skewed_trace(graph, fleet.boundaries, num_events)
    fleet_report = fleet.run_trace(list(trace))

    replicated = ServingSpec(kind="sharded", num_shards=NUM_SHARDS).to_fleet_config()
    sharded = build_fleet_serving_engine(
        graph, model, replicated, config, scale=COST_SCALE
    )
    sharded_report = sharded.run_trace(list(trace))
    return fleet, fleet_report, sharded_report, graph, model


def _parity_mismatches(graph, model) -> int:
    """Replay a short trace on fleet + single device; count prediction diffs.

    The reuse cache is disabled so the incremental delta patch (whose float32
    rounding depends on which session was warm) is out of the picture: any
    remaining mismatch would be a real routing/sharding numerics bug.
    """
    config = ServingConfig(
        window=4, max_batch_requests=4, max_delay_ms=0.5, enable_reuse=False
    )
    fleet = build_fleet_serving_engine(
        graph,
        model,
        FleetConfig(num_shards=NUM_SHARDS, min_replicas=NUM_SHARDS, admission_limit=1024),
        config,
    )
    single = _build_serving_scheduler(graph, model, config)
    fleet_preds, single_preds, pairs = {}, {}, []
    for event in synthesize_serving_trace(graph[-1], 40, seed=13):
        for result in fleet.pump(event.time):
            fleet_preds.update(result.predictions)
        for result in single.pump(event.time):
            single_preds.update(result.predictions)
        if event.kind == "delta":
            fleet.ingest(event.delta, at=event.time)
            single.ingest(event.delta, at=event.time)
        else:
            pairs.append(
                (
                    fleet.submit(event.node_ids, at=event.time),
                    single.submit(event.node_ids, at=event.time),
                )
            )
    for result in fleet.pump(None, force=True):
        fleet_preds.update(result.predictions)
    for result in single.pump(None, force=True):
        single_preds.update(result.predictions)
    assert pairs and all(fid is not None for fid, _ in pairs)
    return sum(
        not np.array_equal(fleet_preds[fid], single_preds[sid]) for fid, sid in pairs
    )


def test_fleet_vs_sharded(benchmark, request):
    quick = request.config.getoption("--quick")
    fleet, fleet_report, sharded_report, graph, model = run_once(
        benchmark, _compare, quick
    )

    fleet_bytes = fleet_report.extras["per_replica_store_bytes"]
    sharded_bytes = sharded_report.extras["per_replica_store_bytes"]
    memory_ratio = sharded_bytes / fleet_bytes
    mismatches = _parity_mismatches(graph, model)

    payload = {
        "workload": "youtube skewed burst",
        "num_shards": NUM_SHARDS,
        "skew_fraction": SKEW_FRACTION,
        "fleet": {
            "p99_latency_ms": fleet_report.metrics.p99_latency * 1e3,
            "admitted_requests": fleet_report.extras["admitted_requests"],
            "rejected_requests": fleet_report.extras["rejected_requests"],
            "scale_up_events": fleet_report.extras["scale_up_events"],
            "active_replicas": fleet_report.extras["active_replicas"],
            "per_replica_store_bytes": fleet_bytes,
            "halo_gather_bytes": fleet_report.extras["halo_gather_bytes"],
        },
        "sharded": {
            "p99_latency_ms": sharded_report.metrics.p99_latency * 1e3,
            "requests": float(sharded_report.metrics.num_requests),
            "per_replica_store_bytes": sharded_bytes,
        },
        "per_replica_memory_ratio": memory_ratio,
        "parity_mismatches": mismatches,
    }

    print("\nfleet vs round-robin sharded (youtube, skewed burst, K=4)")
    print(
        f"{'engine':>8} {'p99 (ms)':>10} {'store/replica (MB)':>19} "
        f"{'rejected':>9} {'scale-ups':>10}"
    )
    print(
        f"{'sharded':>8} {payload['sharded']['p99_latency_ms']:>10.3f} "
        f"{sharded_bytes / 1e6:>19.3f} {'-':>9} {'-':>10}"
    )
    print(
        f"{'fleet':>8} {payload['fleet']['p99_latency_ms']:>10.3f} "
        f"{fleet_bytes / 1e6:>19.3f} {payload['fleet']['rejected_requests']:>9.0f} "
        f"{payload['fleet']['scale_up_events']:>10.0f}"
    )
    print(f"per-replica memory ratio: {memory_ratio:.2f}x (K={NUM_SHARDS})")
    write_bench_json("fleet", payload)

    # Node-sharding cuts per-replica store memory by ~K (halo rows keep it
    # under exactly K).
    assert memory_ratio > 0.7 * NUM_SHARDS
    # Overload is shed, not queued...
    assert fleet_report.extras["rejected_requests"] > 0
    # ...so admitted requests see bounded queues and beat round-robin's p99.
    assert fleet_report.metrics.p99_latency < sharded_report.metrics.p99_latency
    # The burst pushes p99 over the SLO and the pool reacts.
    assert fleet_report.extras["scale_up_events"] >= 1
    # Scheduling-only invariant: admitted predictions match single device.
    assert mismatches == 0
