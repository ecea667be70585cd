"""The telemetry runtime: one object binding tracer, registry and hooks.

:class:`Telemetry` is what the :class:`~repro.api.engine.Engine` owns per
run.  It builds the callback fan-out a ``TelemetrySpec`` asks for, attaches
it to whatever machinery the spec resolved to (any trainer, the serving
scheduler or every replica of a multi-replica engine, the device group's
collective path), assembles the per-device :class:`~repro.telemetry.
chrome_trace.TraceTrack` list for export, and folds the end-of-run result
records into the metrics registry so ``snapshot()`` is the single flat
quantitative view of the run.

Everything here is duck-typed against the execution layer (``trainer.hooks``,
``trainer.group``, ``engine.replicas`` …) so the runtime works for any
registered device/serving topology without importing their classes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.chrome_trace import TraceTrack, export_chrome_trace
from repro.telemetry.hooks import (
    CALLBACK_REGISTRY,
    CallbackList,
    LoggingCallback,
    MetricsCallback,
    TracingCallback,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer


class Telemetry:
    """Tracer + registry + callback fan-out for one engine run."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        callbacks: Sequence[str] = (),
    ) -> None:
        unknown = set(callbacks) - set(CALLBACK_REGISTRY)
        if unknown:
            raise ValueError(
                f"unknown telemetry callback(s) {sorted(unknown)}; "
                f"valid: {', '.join(sorted(CALLBACK_REGISTRY))}"
            )
        self.enabled = enabled
        self.tracer = SpanTracer()
        self.registry = MetricsRegistry()
        self.hooks = CallbackList()
        if enabled:
            # The tracing and metrics sinks are what the trace export and the
            # report's metrics snapshot are made of, so they are always on.
            self.hooks.add(TracingCallback(self.tracer))
            self.hooks.add(MetricsCallback(self.registry))
            if "logging" in callbacks:
                self.hooks.add(LoggingCallback())

    @classmethod
    def from_spec(cls, spec: Optional[Any]) -> "Telemetry":
        """Build from a ``TelemetrySpec`` (or None -> disabled)."""
        if spec is None:
            return cls(enabled=False)
        return cls(enabled=spec.enabled, callbacks=spec.callbacks)

    # ------------------------------------------------------------------ attachment
    def attach_trainer(self, trainer: Any) -> None:
        """Point a trainer's hook emissions (and its device group's
        collective notifications) at this runtime."""
        trainer.hooks = self.hooks
        trainer.group.add_observer(self.hooks.on_collective)

    def attach_serving(self, engine: Any) -> None:
        """Point a serving engine (single scheduler, or a multi-replica
        engine's autoscale events and every replica) at this runtime."""
        engine.hooks = self.hooks
        for replica in getattr(engine, "replicas", ()):
            replica.hooks = self.hooks

    # ------------------------------------------------------------------ tracks
    def training_tracks(self, trainer: Any) -> List[TraceTrack]:
        """One track per training device (``gpu0`` .. ``gpuK-1``)."""
        return [
            TraceTrack(f"gpu{i}", device.timeline, domain="train")
            for i, device in enumerate(trainer.group.devices)
        ]

    def serving_tracks(self, engine: Any) -> List[TraceTrack]:
        """One track per serving device (``serve_gpu0`` .. )."""
        replicas = getattr(engine, "replicas", None)
        if replicas is not None:
            return [
                TraceTrack(f"serve_gpu{i}", replica.device.timeline, domain="serve")
                for i, replica in enumerate(replicas)
            ]
        return [TraceTrack("serve_gpu0", engine.device.timeline, domain="serve")]

    # ------------------------------------------------------------------ export
    def export_trace(
        self,
        path: str,
        *,
        trainer: Any = None,
        serving_engine: Any = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Write the Chrome-trace JSON covering whatever machinery ran."""
        tracks: List[TraceTrack] = []
        if trainer is not None:
            tracks.extend(self.training_tracks(trainer))
        if serving_engine is not None:
            tracks.extend(self.serving_tracks(serving_engine))
        self.tracer.close_all()
        return export_chrome_trace(path, tracks, self.tracer.spans, metadata=metadata)

    # ------------------------------------------------------------------ unification
    def collect(self, report: Any) -> Dict[str, float]:
        """Fold a run report's scalar surfaces into the registry and snapshot.

        This is the unification point: the training breakdown and extras
        (collective seconds, bubble accounting, reuse stats), the per-kernel
        category totals and the serving summary all land as gauges next to
        the live counters/histograms the callbacks accumulated.
        """
        if not self.enabled:
            return {}
        registry = self.registry
        training = getattr(report, "training", None)
        if training is not None:
            registry.set_gauges(training.breakdown, prefix="train.breakdown.")
            registry.set_gauges(
                training.category_seconds, prefix="train.category_seconds."
            )
            registry.set_gauges(training.extras, prefix="train.extras.")
            registry.set_gauges(
                {
                    "train.simulated_seconds": training.simulated_seconds,
                    "train.steady_epoch_seconds": training.steady_epoch_seconds,
                    "train.final_loss": training.final_loss,
                    "train.gpu_utilization": training.gpu_utilization,
                    "train.sm_utilization": training.sm_utilization,
                    "train.kernel_launches": float(training.kernel_launches),
                    "train.peak_memory_bytes": float(training.peak_memory_bytes),
                }
            )
        serving = getattr(report, "serving", None)
        if serving is not None:
            registry.set_gauges(serving.metrics.summary(), prefix="serving.summary.")
            registry.set_gauges(serving.breakdown, prefix="serving.breakdown.")
            registry.set_gauges(serving.reuse_stats, prefix="serving.reuse.")
            registry.set_gauges(serving.extras, prefix="serving.extras.")
            registry.set_gauges(
                {
                    "serving.simulated_seconds": serving.simulated_seconds,
                    "serving.gpu_utilization": serving.gpu_utilization,
                    "serving.peak_memory_bytes": float(serving.peak_memory_bytes),
                }
            )
        analysis = getattr(report, "extras", {}).get("analysis")
        if analysis is not None:
            registry.set_gauges(
                {
                    "analysis.num_checks": float(len(analysis.get("checks", []))),
                    "analysis.num_violations": float(
                        analysis.get("num_violations", 0)
                    ),
                    "analysis.num_errors": float(analysis.get("num_errors", 0)),
                    "analysis.num_warnings": float(analysis.get("num_warnings", 0)),
                }
            )
        return registry.snapshot()


__all__ = ["Telemetry"]
