"""Static spec lint: cross-section contradictions caught before any build.

Each rule inspects one :class:`~repro.api.spec.RunSpec` (already
field-validated by the spec layer itself — these rules only add the
*cross-section* reasoning no single ``__post_init__`` can do) and returns
violations.  Rules are registered individually in ``CHECK_REGISTRY`` so
``python -m repro list`` shows the full catalog and ``analysis.checks``
can select them one by one.
"""

from __future__ import annotations

from typing import List

from .base import SEVERITY_WARNING, Violation


def lint_pinned_staging(spec: object) -> List[Violation]:
    """``pinned_budget_mb`` must fit the prefetch depth's staging buffers."""
    memory, data = spec.memory, spec.data
    if not (memory.feature_cache and data.pin_memory):
        return []
    budget_bytes = memory.pinned_budget_mb * 1024 * 1024
    # Floor estimate: depth+1 buffers in flight, each at least one block of
    # single-column float32 rows.  Real feature dims only make this larger.
    needed = (data.prefetch_depth + 1) * memory.block_rows * 4
    if budget_bytes >= needed:
        return []
    return [
        Violation(
            check="spec-pinned-staging",
            message=(
                f"memory.pinned_budget_mb ({memory.pinned_budget_mb}) cannot "
                f"hold even {data.prefetch_depth + 1} in-flight staging "
                f"block(s) of {memory.block_rows} rows "
                f"(data.prefetch_depth={data.prefetch_depth}); raise the "
                "pinned budget or lower the prefetch depth"
            ),
            source="spec.memory",
        )
    ]


def lint_fleet_admission(spec: object) -> List[Violation]:
    """A fleet replica must be able to accumulate one full micro-batch."""
    serving = spec.serving
    if serving is None or serving.kind != "fleet":
        return []
    if serving.max_batch_requests <= serving.admission_limit:
        return []
    return [
        Violation(
            check="spec-fleet-admission",
            message=(
                f"serving.max_batch_requests ({serving.max_batch_requests}) "
                f"exceeds serving.admission_limit ({serving.admission_limit}): "
                "a replica sheds requests before a full batch can ever form; "
                "raise the admission limit or shrink the batch"
            ),
            source="spec.serving",
        )
    ]


def lint_dead_memory_knobs(spec: object) -> List[Violation]:
    """Tier budgets declared while the feature cache is off do nothing."""
    memory = spec.memory
    if memory.feature_cache:
        return []
    dead = [
        f"memory.{field_name}"
        for field_name, value in (
            ("gpu_budget_mb", memory.gpu_budget_mb),
            ("spill_budget_mb", memory.spill_budget_mb),
        )
        if value is not None
    ]
    if not dead:
        return []
    return [
        Violation(
            check="spec-dead-memory",
            message=(
                f"{', '.join(dead)} set while memory.feature_cache is false — "
                "the tier budgets are ignored; enable the cache or drop them"
            ),
            severity=SEVERITY_WARNING,
            source="spec.memory",
        )
    ]


def lint_telemetry_paths(spec: object) -> List[Violation]:
    """Trace/report outputs require telemetry to be enabled."""
    telemetry = spec.telemetry
    if telemetry.enabled:
        return []
    dead = [
        f"telemetry.{field_name}"
        for field_name, value in (
            ("trace_path", telemetry.trace_path),
            ("report_path", telemetry.report_path),
        )
        if value
    ]
    if not dead:
        return []
    return [
        Violation(
            check="spec-telemetry-paths",
            message=(
                f"{', '.join(dead)} set while telemetry.enabled is false — "
                "nothing will be written; enable telemetry or drop the paths"
            ),
            source="spec.telemetry",
        )
    ]


def lint_partitioning(spec: object) -> List[Violation]:
    """Fixed partition sizes must fit their frame/window."""
    violations: List[Violation] = []
    fixed = spec.pipad.get("fixed_s_per")
    if fixed is not None and int(fixed) > spec.frame_size:
        violations.append(
            Violation(
                check="spec-partitioning",
                message=(
                    f"pipad.fixed_s_per ({fixed}) exceeds frame_size "
                    f"({spec.frame_size}): a partition cannot span more "
                    "snapshots than its frame holds"
                ),
                source="spec.pipad",
            )
        )
    serving = spec.serving
    if (
        serving is not None
        and serving.fixed_s_per is not None
        and serving.fixed_s_per > serving.window
    ):
        violations.append(
            Violation(
                check="spec-partitioning",
                message=(
                    f"serving.fixed_s_per ({serving.fixed_s_per}) exceeds "
                    f"serving.window ({serving.window})"
                ),
                source="spec.serving",
            )
        )
    return violations


def lint_serving_window(spec: object) -> List[Violation]:
    """The serving window cannot outgrow the snapshot stream feeding it."""
    serving = spec.serving
    if serving is None or serving.window <= spec.num_snapshots:
        return []
    return [
        Violation(
            check="spec-serving-window",
            message=(
                f"serving.window ({serving.window}) exceeds num_snapshots "
                f"({spec.num_snapshots}): the store can never fill its "
                "window; shrink the window or extend the stream"
            ),
            source="spec.serving",
        )
    ]


def lint_prefetch_pipeline(spec: object) -> List[Violation]:
    """Prefetch depth is silently forced to 0 when a pipeline is disabled.

    Both ablation switches force it: ``pipad.enable_pipeline`` for the PiPAD
    trainer and ``serving.enable_pipeline`` for every serving replica,
    whatever the training method.
    """
    if spec.data.prefetch_depth == 0:
        return []
    switches = []
    if spec.method == "pipad" and not spec.pipad.get("enable_pipeline", True):
        switches.append("pipad.enable_pipeline")
    if spec.serving is not None and not spec.serving.enable_pipeline:
        switches.append("serving.enable_pipeline")
    return [
        Violation(
            check="spec-prefetch-pipeline",
            message=(
                f"data.prefetch_depth ({spec.data.prefetch_depth}) has no "
                f"effect while {switch} is false (the ablation forces fully "
                "serialized, unpinned prep); set the depth to 0 or re-enable "
                "the pipeline"
            ),
            severity=SEVERITY_WARNING,
            source="spec.data",
        )
        for switch in switches
    ]
