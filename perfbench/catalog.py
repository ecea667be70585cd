"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of ``BENCHMARK.json`` at the repo root
(``python3 perfbench/catalog.py --write`` regenerates it).  It also keeps,
for each per-layer metric, what ``BENCHMARK.json`` has no field for: how
the metric aggregates, which end-to-end metric it should move and on which
workload.

Clocks: *host* metrics are what the Python simulator costs its user (unit
``s``, stated at the reference machine speed of ``speed.py``); *sim*
metrics are what the modelled system does on the simulated clock (units
``sim_s`` / ``sim_ms``) and repeat exactly for a seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple

WORKLOADS: Dict[str, str] = {
    "train-single": (
        "Paper Fig. 10 pair on one GPU (covid19_england TGCN, 24 snapshots, frame 8): "
        "per-op cost estimation, Timeline submit/makespan and TGCN numerics, no collectives."
    ),
    "train-pipeline4": (
        "flickr EvolveGCN over 4 NVLink pipeline stages with depth-2 prefetch: the only "
        "p2p handoffs, all-reduce, bubbles and per-stage prefetchers; aggregation-bound."
    ),
    "serve-fleet-read": (
        "youtube TGCN 4-shard fleet at 70% requests near the 2 ms p99 SLO knee: per-batch "
        "policy/CSR rebuild, prediction, routing, admission and autoscale."
    ),
    "serve-fleet-write": (
        "Same fleet at 30% requests: store.apply, absorb_delta on every replica and session "
        "refresh dominate, and the hb-race sanitizer is superlinear in events."
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: bounded metrics; every workload emits every one of them.  Phase times
#: (training, sanitizer) spread too much on the serve-* workloads, where the
#: phases last well under a second, so they are per-layer figures and
#: ``wall_s`` bounds them.  ``setup_s`` keeps the largest bound.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "dataset generation plus construction of the trainer(s) and serving engine; "
             "median over at least five set-ups in a run"),
    EndToEnd("wall_s", "s", "lower", 0.24,
             "one execution from set-up to report, PyGT reference and sanitizer included"),
    EndToEnd("host_peak_rss_mb", "MiB", "lower", 0.1, "peak RSS of the benchmark process"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    aggregation: str
    moves: str
    on: str


def _span(layer_fn: str, moves: str, on: str, calls: bool = True) -> List[PerLayer]:
    out = [PerLayer(f"{layer_fn}.self_s", "s", "lower",
                    "host span time minus child spans, summed over calls", moves, on)]
    if calls:
        out.append(PerLayer(f"{layer_fn}.calls", "count", "lower", "calls in one execution", moves, on))
    return out


_SERVE = "serve-fleet-read, serve-fleet-write"
_ALL = "all"

PER_LAYER: List[PerLayer] = [
    # -- end-to-end figures without a bound (see END_TO_END)
    PerLayer("serve_host_events_per_s", "events/s", "higher",
             "trace events / host seconds in Engine.serve() (untraced execution)",
             "itself", _SERVE),
    PerLayer("serve_p50_ms", "sim_ms", "lower",
             "median latency from scheduled arrival to completion", "itself", _SERVE),
    PerLayer("serve_p95_ms", "sim_ms", "lower",
             "p95 latency from scheduled arrival to completion", "itself", _SERVE),
    PerLayer("serve_completions", "count", "higher", "completed requests (p95 sample count)",
             "serve_p95_ms", _SERVE),
    PerLayer("serve_slo_met_frac", "fraction", "higher",
             "requests completing within 2.0 ms / requests sent (rejected = miss)", "itself", _SERVE),
    PerLayer("serve_failed_frac", "fraction", "lower",
             "admission-shed requests / requests sent", "itself", _SERVE),
    PerLayer("train_host_s_per_epoch", "s", "lower",
             "host seconds in Engine.train() of the PiPAD engine / epochs (untraced "
             "execution; the offline training on serve-*)", "wall_s", _ALL),
    PerLayer("sanitize_s", "s", "lower", "host seconds in Engine.sanitize() (untraced execution)",
             "wall_s", "serve-fleet-write"),
    PerLayer("sim_steady_epoch_ms", "sim_ms", "lower",
             "TrainingResult.steady_epoch_seconds of the PiPAD engine", "itself", _ALL),
    PerLayer("sim_speedup_band_gap", "ln_ratio", "lower",
             "max(0, ln(S/9.57), ln(1.22/S)), S = PyGT / PiPAD steady epoch", "itself",
             "train-single"),
    PerLayer("bench.trace_overhead", "ratio", "lower",
             "traced wall_s / untraced wall_s of the same seed", "per-layer host figures", _ALL),
    # -- graph
    *_span("graph.load_dataset", "setup_s", _ALL, calls=False),
    *_span("graph.extract_overlap", "setup_s; serve_host_events_per_s",
           "serve-fleet-read (no change predicted on serve-fleet-write)"),
    *_span("graph.refine_overlap", "serve_host_events_per_s",
           "serve-fleet-read (no change predicted on serve-fleet-write)"),
    *_span("graph.csr_build", "setup_s; serve_host_events_per_s",
           "serve-fleet-read (no change predicted on serve-fleet-write)"),
    # -- core
    *_span("core.speedup_table", "setup_s", "serve-* (5 calls), train-single (1 call)"),
    *_span("core.datapipe", "train_host_s_per_epoch", "train-pipeline4"),
    *_span("core.prefetcher", "train_host_s_per_epoch", "train-pipeline4"),
    *_span("core.tuner", "train_host_s_per_epoch", "train-single"),
    *[
        PerLayer(f"core.prefetch_{stage}_busy_s", "sim_s", "lower",
                 "simulated busy seconds of the stage, sum over devices, train + serve",
                 "sim_steady_epoch_ms", "train-pipeline4")
        for stage in ("slice", "gather", "pin", "h2d")
    ],
    PerLayer("core.reuse_hit_ratio", "ratio", "higher",
             "(cpu + gpu reuse hits) / lookups, training", "sim_steady_epoch_ms", "train-single"),
    PerLayer("core.mean_s_per", "snapshots", "higher",
             "mean snapshots per parallel partition chosen by the tuner", "sim_steady_epoch_ms",
             "train-single"),
    PerLayer("core.pipeline_bubble_s", "sim_s", "lower",
             "pipeline bubble seconds, sum over stages (exceeds the makespan)",
             "sim_steady_epoch_ms", "train-pipeline4"),
    PerLayer("core.stage_imbalance", "ratio", "lower",
             "max / min busy seconds over training devices", "sim_steady_epoch_ms",
             "train-pipeline4"),
    # -- nn, tensor
    *_span("nn.forward_partition", "train_host_s_per_epoch; serve_host_events_per_s",
           "train-single, train-pipeline4, serve-fleet-read"),
    *_span("tensor.backward", "train_host_s_per_epoch", "train-single, train-pipeline4",
           calls=False),
    PerLayer("tensor.function_apply.calls", "count", "lower",
             "autograd Function.apply calls in one execution", "train_host_s_per_epoch",
             "train-single, train-pipeline4"),
    # -- gpu
    *_span("gpu.estimate_event_cost", "train_host_s_per_epoch", "train-single"),
    *_span("gpu.timeline_submit", "train_host_s_per_epoch", "train-single, train-pipeline4"),
    *_span("gpu.timeline_makespan", "train_host_s_per_epoch", "train-pipeline4"),
    *_span("gpu.device_group", "train_host_s_per_epoch", "train-pipeline4"),
    PerLayer("gpu.ops", "count", "lower", "timeline ops over every device of the PiPAD engine",
             "wall_s", _ALL),
    PerLayer("gpu.host_us_per_op", "us", "lower",
             "host seconds in train + serve / gpu.ops (untraced execution)",
             "train_host_s_per_epoch; serve_host_events_per_s", _ALL),
    *[
        PerLayer(f"gpu.{kind}_busy_s", "sim_s", "lower",
                 f"simulated {kind} busy seconds of training, sum over devices",
                 "sim_steady_epoch_ms", "train-single, train-pipeline4")
        for kind in ("kernel", "h2d", "cpu", "d2h")
    ],
    PerLayer("gpu.utilization", "ratio", "higher", "training GPU utilization (TrainingResult)",
             "sim_steady_epoch_ms", "train-single, train-pipeline4"),
    PerLayer("gpu.kernel_launches", "count", "lower", "training kernel launches, sum over devices",
             "sim_steady_epoch_ms", "train-single"),
    PerLayer("gpu.peak_hbm_mb", "MiB", "lower", "training peak HBM, max over devices",
             "sim_steady_epoch_ms", "train-pipeline4"),
    *[
        PerLayer(f"gpu.collective_{kind}_{what}", unit, "lower",
                 f"{kind} {what} of training, sum over the device group",
                 "sim_steady_epoch_ms", "train-pipeline4")
        for kind in ("all_reduce", "peer_transfer")
        for what, unit in (("bytes", "bytes"), ("calls", "count"))
    ],
    # -- kernels
    *[
        PerLayer(f"kernels.{category}_busy_s", "sim_s", "lower",
                 f"simulated {category} kernel seconds of training, sum over devices",
                 "sim_steady_epoch_ms", on)
        for category, on in (
            ("aggregation", "train-pipeline4"),
            ("update", "train-single"),
            ("rnn", "serve-* (youtube offline training)"),
        )
    ],
    # -- serving
    *_span("serving.store_apply", "serve_host_events_per_s", "serve-fleet-write"),
    *_span("serving.absorb_delta", "serve_host_events_per_s", "serve-fleet-write"),
    *_span("serving.session_refresh", "serve_host_events_per_s", "serve-fleet-write"),
    *_span("serving.partition_decomposition", "serve_host_events_per_s", "serve-fleet-read"),
    *_span("serving.policy_choose", "serve_host_events_per_s", "serve-fleet-read"),
    *_span("serving.session_predict", "serve_host_events_per_s", "serve-fleet-read"),
    *_span("serving.scheduler_pump", "serve_host_events_per_s", "serve-fleet-read"),
    PerLayer("serving.requests_sent", "count", "higher", "request events in the trace",
             "serve_slo_met_frac", _SERVE),
    PerLayer("serving.requests_completed", "count", "higher", "completed requests, all replicas",
             "serve_slo_met_frac", _SERVE),
    PerLayer("serving.batches", "count", "lower", "micro-batches, all replicas", "serve_p95_ms",
             _SERVE),
    PerLayer("serving.batch_fill_ratio", "ratio", "higher",
             "mean batch size / max_batch_requests", "serve_p95_ms", "serve-fleet-read"),
    PerLayer("serving.batch_wait_p50_ms", "sim_ms", "lower",
             "median of batch formation time - scheduled arrival, per request", "serve_p95_ms",
             "serve-fleet-read"),
    PerLayer("serving.service_p50_ms", "sim_ms", "lower",
             "median of completion - batch formation time, per request", "serve_p95_ms",
             "serve-fleet-read"),
    PerLayer("serving.reuse_hit_ratio", "ratio", "higher",
             "(cpu + gpu reuse hits) / lookups, merged over replicas", "serve_p95_ms",
             "serve-fleet-read"),
    PerLayer("serving.rows_per_delta", "rows", "lower", "invalidated rows / ingested delta",
             "serve_host_events_per_s", "serve-fleet-write"),
    *[
        PerLayer(f"serving.{kind}_busy_s", "sim_s", "lower",
                 f"simulated {kind} busy seconds of serving, sum over replicas",
                 "serve_p95_ms", _SERVE)
        for kind in ("kernel", "h2d", "cpu", "d2h")
    ],
    # -- distributed
    *_span("distributed.fleet_submit", "serve_host_events_per_s", "serve-fleet-read"),
    *_span("distributed.fleet_pump", "serve_host_events_per_s",
           "serve-fleet-read (rolling p99 grows with trace length)"),
    *_span("distributed.fleet_ingest", "serve_host_events_per_s", "serve-fleet-write"),
    PerLayer("distributed.admitted", "count", "higher", "admitted requests, fleet-wide",
             "serve_failed_frac", "serve-fleet-read"),
    PerLayer("distributed.rejected", "count", "lower", "admission-shed requests, fleet-wide",
             "serve_failed_frac", "serve-fleet-read"),
    PerLayer("distributed.scale_up_events", "count", "lower", "autoscaler scale-ups",
             "serve_p95_ms", "serve-fleet-read"),
    PerLayer("distributed.scale_down_events", "count", "lower", "autoscaler scale-downs",
             "serve_p95_ms", "serve-fleet-read"),
    PerLayer("distributed.halo_gather_bytes", "bytes", "lower", "halo gather bytes, all replicas",
             "serve_p95_ms", "serve-fleet-read"),
    PerLayer("distributed.shard_request_skew", "ratio", "lower",
             "max / mean requests per shard", "serve_p95_ms", "serve-fleet-read"),
    # -- analysis
    *[
        metric
        for check, on in (
            ("hb-race", "serve-fleet-write"),
            ("collective-match", "train-pipeline4"),
            ("p2p-pairing", "train-pipeline4"),
            ("pipeline-order", "train-pipeline4"),
            ("memory-watermark", _ALL),
            ("static", _ALL),
        )
        for metric in _span(f"analysis.{check}", "sanitize_s; wall_s", on, calls=False)
    ],
    PerLayer("analysis.ops_replayed", "count", "lower", "timeline ops the sanitizer replays",
             "sanitize_s", _ALL),
    PerLayer("analysis.violations", "count", "lower", "sanitizer violations (gate: 0)",
             "sanitize_s", _ALL),
    # -- telemetry
    *_span("telemetry.hooks", "wall_s; train_host_s_per_epoch", _ALL),
    *_span("telemetry.collect", "wall_s", _ALL, calls=False),
    # -- baselines
    PerLayer("baselines.pygt_sim_steady_epoch_ms", "sim_ms", "lower",
             "PyGT steady epoch on the same graph", "sim_speedup_band_gap", "train-single"),
    PerLayer("baselines.sim_speedup_vs_pygt", "ratio", "higher",
             "S = PyGT steady epoch / PiPAD steady epoch (paper band 1.22-9.57)",
             "sim_speedup_band_gap", "train-single"),
]

#: per-layer metrics measured on the host clock by spans of the traced execution
SPAN_METRICS = [m.name for m in PER_LAYER if m.name.endswith((".self_s", ".calls"))]


def benchmark_json() -> dict:
    """The contract file, derived from the catalog above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def main(argv: List[str]) -> int:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if argv == ["--write"]:
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
