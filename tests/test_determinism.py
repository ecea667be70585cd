"""Golden determinism: identical configs produce byte-identical timelines.

The cross-device scheduling of :mod:`repro.distributed` introduced a new
class of ordering decisions (collective synchronization points, per-device
fan-out).  These tests serialize the full timeline event sequence of a run
to bytes and require two runs of the same config to match exactly — any
hidden source of nondeterminism (dict/set iteration over devices, float
drift from a reordered reduction, id-based tie-breaking) shows up as a
one-byte diff.
"""

from __future__ import annotations

from repro.baselines import TrainerConfig
from repro.core import (
    DistributedConfig,
    DistributedTrainer,
    PiPADConfig,
    PiPADTrainer,
)
from repro.gpu import SimulatedGPU
from repro.nn import build_model
from repro.serving import (
    IncrementalSnapshotStore,
    ServingConfig,
    ServingScheduler,
    synthesize_serving_trace,
)


def timeline_bytes(device: SimulatedGPU) -> bytes:
    """Canonical byte serialization of a device's full event sequence."""
    lines = []
    for op in device.timeline.ops:
        attrs = ",".join(f"{k}={op.attrs[k]!r}" for k in sorted(op.attrs))
        lines.append(
            f"{op.op_id}|{op.label}|{op.kind}|{op.resource}|{op.stream}"
            f"|{op.start!r}|{op.end!r}|{attrs}"
        )
    return "\n".join(lines).encode()


def train_pipad(small_graph):
    config = TrainerConfig(model="tgcn", frame_size=4, epochs=2, seed=0)
    trainer = PiPADTrainer(small_graph, config, PiPADConfig(preparing_epochs=1))
    trainer.train()
    return trainer


def train_distributed(small_graph):
    config = TrainerConfig(model="tgcn", frame_size=4, epochs=2, seed=0, cost_scale=100.0)
    trainer = DistributedTrainer(
        small_graph,
        config,
        PiPADConfig(preparing_epochs=1),
        DistributedConfig(num_devices=3),
    )
    trainer.train()
    return trainer


def serve_trace(small_graph):
    model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
    config = ServingConfig(window=4, max_batch_requests=4, max_delay_ms=0.5)
    engine = ServingScheduler(
        model, IncrementalSnapshotStore(small_graph, window=config.window), config
    )
    engine.run_trace(synthesize_serving_trace(small_graph[-1], 50, seed=9))
    return engine


class TestGoldenDeterminism:
    def test_trainer_timeline_is_byte_identical(self, small_graph):
        first = train_pipad(small_graph)
        second = train_pipad(small_graph)
        assert timeline_bytes(first.device) == timeline_bytes(second.device)
        assert len(first.device.timeline.ops) > 0

    def test_distributed_timelines_are_byte_identical_per_device(self, small_graph):
        first = train_distributed(small_graph)
        second = train_distributed(small_graph)
        for a, b in zip(first.group, second.group):
            blob_a, blob_b = timeline_bytes(a), timeline_bytes(b)
            assert blob_a == blob_b
            assert blob_a  # every device actually scheduled work
        # The devices agree on the collective schedule, not just internally.
        assert first.group.collective_seconds == second.group.collective_seconds

    def test_serving_timeline_is_byte_identical(self, small_graph):
        first = serve_trace(small_graph)
        second = serve_trace(small_graph)
        assert timeline_bytes(first.device) == timeline_bytes(second.device)
        assert first.metrics.num_requests == second.metrics.num_requests

    def test_different_config_changes_the_timeline(self, small_graph):
        """The signature is sensitive: a real scheduling change must show."""
        base = train_pipad(small_graph)
        config = TrainerConfig(model="tgcn", frame_size=4, epochs=2, seed=0)
        serial = PiPADTrainer(
            small_graph, config, PiPADConfig(preparing_epochs=1, enable_pipeline=False)
        )
        serial.train()
        assert timeline_bytes(base.device) != timeline_bytes(serial.device)
