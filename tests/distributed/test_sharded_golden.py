"""Golden parity for ``serving.kind = "sharded"``.

The replicated preset of the fleet engine must reproduce, value for value,
what the original round-robin sharded engine reported for
``specs/serve_sharded.json``: request and batch records, simulated time,
breakdown, reuse stats, per-shard traffic, store accounting and the exported
Chrome trace.  The pinned values below were recorded from that engine on a
reduced (48-event) trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.api import Engine
from repro.api.cli import load_spec

SPEC = Path(__file__).resolve().parents[2] / "specs" / "serve_sharded.json"

GOLDEN_REQUESTS_SHA = (
    "1d0da4a250839ce4446e30c5abef919987f9803ca0d9ea0d007915690780993b"
)
GOLDEN_BATCHES_SHA = (
    "0573eafd77cff974d72bd0c7846e737f40dcba285a3610368c5aafe3a1814733"
)
GOLDEN_TRACE_SHA = (
    "f8d9fe6fe9dc3dc01887a43984141c424125eaff3f89216a599f20ba105f0e29"
)
GOLDEN_SIMULATED_SECONDS = 0.031019500631307546
GOLDEN_BREAKDOWN = {
    "cpu": 0.006452423624999964,
    "h2d": 3.214866666666639e-05,
    "kernel": 0.00487695523150305,
    "d2h": 0.00020007633333332664,
    "makespan": 0.031019500631307546,
    "gpu_utilization": 0.08235433077813878,
    "sm_utilization": 0.07861112079243426,
}
GOLDEN_REUSE_STATS = {
    "cpu_hits": 0.0,
    "gpu_hits": 184.0,
    "misses": 16.0,
    "rows_patched": 1744.0,
    "full_recomputes": 3.0,
    "cpu_cached_snapshots": 8.0,
    "gpu_resident_snapshots": 8.0,
    "gpu_buffer_bytes": 66560.0,
}
GOLDEN_SHARD_REQUESTS = [15.0, 14.0]
GOLDEN_PER_REPLICA_STORE_BYTES = 132512.0
GOLDEN_ENGINE = "PiPAD-Serve-x2"


def _sha(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def sharded_run(tmp_path_factory):
    trace_path = tmp_path_factory.mktemp("golden") / "trace.json"
    spec = load_spec(str(SPEC), ["serving.trace.num_events=48"])
    spec = spec.replace(telemetry=spec.telemetry.replace(trace_path=str(trace_path)))
    engine = Engine.from_spec(spec)
    engine.serve()
    report = engine.report()
    engine.export_artifacts(report)
    return report.serving, trace_path.read_bytes()


class TestShardedGolden:
    def test_request_and_batch_records(self, sharded_run):
        serving, _ = sharded_run
        requests = [
            (r.request_id, r.batch_id, r.arrival_time, r.completion_time, r.latency)
            for r in serving.metrics.requests
        ]
        batches = [dataclasses.astuple(b) for b in serving.metrics.batches]
        assert _sha(requests) == GOLDEN_REQUESTS_SHA
        assert _sha(batches) == GOLDEN_BATCHES_SHA

    def test_clock_breakdown_and_reuse(self, sharded_run):
        serving, _ = sharded_run
        assert serving.simulated_seconds == GOLDEN_SIMULATED_SECONDS
        assert serving.breakdown == GOLDEN_BREAKDOWN
        assert serving.reuse_stats == GOLDEN_REUSE_STATS

    def test_per_shard_extras_and_label(self, sharded_run):
        serving, _ = sharded_run
        shard_requests = [
            serving.extras[f"shard{i}_requests"]
            for i in range(len(GOLDEN_SHARD_REQUESTS))
        ]
        assert shard_requests == GOLDEN_SHARD_REQUESTS
        assert serving.extras["per_replica_store_bytes"] == GOLDEN_PER_REPLICA_STORE_BYTES
        assert serving.engine == GOLDEN_ENGINE

    def test_chrome_trace_bytes(self, sharded_run):
        _, trace = sharded_run
        assert hashlib.sha256(trace).hexdigest() == GOLDEN_TRACE_SHA
