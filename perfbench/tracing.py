"""Host-clock spans around the public functions of each ``repro`` layer.

The benchmark records spans from its own files: :func:`install` wraps the
functions listed in :data:`SPAN_TARGETS` (and counts the calls of
:data:`COUNT_TARGETS`), nothing under ``src/`` changes, and
:meth:`SpanTracer.uninstall` puts the originals back.  Each span has a
name, start, end and parent span; spans stay in memory until
:meth:`SpanTracer.write` dumps them at the end of the run.

A span's self time is its duration minus the time its direct child spans
cover.  The host runs one thread, so self times of all spans add up to at
most the traced wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: span name -> [(module path[:class], attribute), ...]
SPAN_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "graph.load_dataset": [("repro.graph.datasets", "load_dataset")],
    "graph.extract_overlap": [("repro.graph.overlap", "extract_overlap")],
    "graph.refine_overlap": [("repro.graph.overlap", "refine_overlap")],
    "graph.csr_build": [("repro.graph.csr:CSRMatrix", "from_edge_keys")],
    "core.speedup_table": [("repro.core.tuner:OfflineAnalysis", "speedup_table")],
    "core.datapipe": [
        ("repro.core.datapipe:DataPipe", "partition"),
        ("repro.core.datapipe:DataPipe", "partition_frame"),
        ("repro.core.datapipe:DataPipe", "partition_from_decomposition"),
    ],
    "core.prefetcher": [
        ("repro.core.datapipe:Prefetcher", "schedule"),
        ("repro.core.datapipe:Prefetcher", "mark_consumed"),
    ],
    "core.tuner": [
        ("repro.core.tuner:DynamicTuner", "decide"),
        ("repro.core.tuner:DynamicTuner", "decide_forward"),
    ],
    "nn.forward_partition": [
        ("repro.nn.tgcn:TGCN", "forward_partition"),
        ("repro.nn.evolvegcn:EvolveGCN", "forward_partition"),
        ("repro.nn.mpnn_lstm:MPNNLSTM", "forward_partition"),
    ],
    "tensor.backward": [("repro.tensor.tensor:Tensor", "backward")],
    "gpu.estimate_event_cost": [("repro.gpu.profiler", "estimate_event_cost")],
    "gpu.timeline_submit": [("repro.gpu.timeline:Timeline", "submit")],
    "gpu.timeline_makespan": [("repro.gpu.timeline:Timeline", "makespan")],
    "gpu.device_group": [
        ("repro.gpu.device_group:DeviceGroup", name)
        for name in ("all_reduce", "all_gather", "halo_exchange", "send", "barrier")
    ],
    "serving.store_apply": [("repro.serving.store:IncrementalSnapshotStore", "apply")],
    "serving.absorb_delta": [("repro.serving.scheduler:ServingScheduler", "absorb_delta")],
    "serving.session_refresh": [("repro.serving.session:InferenceSession", "refresh")],
    "serving.partition_decomposition": [
        ("repro.serving.store:IncrementalSnapshotStore", "partition_decomposition")
    ],
    "serving.policy_choose": [("repro.serving.scheduler:ServingPolicy", "choose")],
    "serving.session_predict": [("repro.serving.session:InferenceSession", "predict")],
    "serving.scheduler_pump": [("repro.serving.scheduler:ServingScheduler", "pump")],
    "distributed.fleet_submit": [("repro.distributed.fleet:FleetServingEngine", "submit")],
    "distributed.fleet_pump": [("repro.distributed.fleet:FleetServingEngine", "pump")],
    "distributed.fleet_ingest": [("repro.distributed.fleet:FleetServingEngine", "ingest")],
    "telemetry.collect": [("repro.telemetry.runtime:Telemetry", "collect")],
}

#: counter name -> [(module path[:class], attribute)]; calls only, no span
COUNT_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "tensor.function_apply": [("repro.tensor.function:Function", "apply")],
}

#: sanitizer checks timed one span each; every other registered check is
#: static spec lint and lands in ``analysis.static``
EXECUTION_CHECKS = ("hb-race", "collective-match", "p2p-pairing", "pipeline-order", "memory-watermark")


class SpanTracer:
    """Nested host-clock spans with running self-time aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: (span id, name, start, end, parent id or -1) in completion order
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ spans
    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, spans, clock = self._stack, self.spans, self.clock
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                spans.append((span_id, name, start, end, -1 if parent is None else parent[0]))

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------ patching
    def install(self) -> "SpanTracer":
        """Wrap every target; functions are replaced in every ``repro``
        module that imported them by name."""
        for name, targets in SPAN_TARGETS.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda fn, name=name: self.wrap(name, fn))
        for name, targets in COUNT_TARGETS.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda fn, name=name: self.count(name, fn))
        from repro.telemetry.hooks import HOOK_NAMES

        for hook in HOOK_NAMES:
            self._patch(
                "repro.telemetry.hooks:CallbackList",
                hook,
                lambda fn: self.wrap("telemetry.hooks", fn),
            )
        self._patch_checks()
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, class_name = owner.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__)))
            else:
                setattr(cls, attr, make(raw))
            self._restore.append(lambda: setattr(cls, attr, raw))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, attr, None) is original
            ):
                setattr(other, attr, wrapped)
                self._restore.append(
                    lambda other=other: setattr(other, attr, original)
                )

    def _patch_checks(self) -> None:
        from repro.analysis import CHECK_REGISTRY

        for check, info in list(CHECK_REGISTRY.items()):
            name = check if check in EXECUTION_CHECKS else "static"
            CHECK_REGISTRY[check] = dataclasses.replace(
                info, runner=self.wrap(f"analysis.{name}", info.runner)
            )
            self._restore.append(
                lambda check=check, info=info: CHECK_REGISTRY.__setitem__(check, info)
            )

    # ------------------------------------------------------------------ output
    def write(self, path: Path) -> Path:
        """Dump the spans as gzip'd JSON (times relative to the first span)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        rows = [
            [span_id, name, start - origin, end - origin, parent]
            for span_id, name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump({"columns": ["id", "name", "start_s", "end_s", "parent"], "spans": rows}, handle)
        return path
