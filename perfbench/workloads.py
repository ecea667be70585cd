"""The four benchmark workloads, driven through the public ``repro.api``.

One call of :func:`run_once` executes a workload end to end from a fresh
set-up (dataset generation, trainer and serving-engine construction) to the
sanitizer and the report, and returns an :class:`Outcome` holding:

- host-clock timings of each phase (what the simulator costs its user);
- simulated-clock metrics (what the modelled system does), which are
  deterministic for a given seed;
- the correctness evidence the gate compares (losses, a prediction
  checksum, request accounting, sanitizer violations).

The workload seed feeds ``RunSpec.seed`` (graph generation), so it changes
the graph and with it every delta's payload.  The serving trace seed is
fixed (:data:`TRACE_SEED`), and traces are built here with an exact
request/delta mix, so every seed sends the same number of requests and
deltas in the same order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import collect_artifacts
from repro.api import Engine, RunSpec
from repro.serving.deltas import ServingEvent, synthesize_serving_trace

#: paper Fig. 10 band of PiPAD's speedup over PyGT
PAPER_SPEEDUP_BAND = (1.22, 9.57)
#: serving latency SLO (simulated milliseconds) of the fleet workloads
SLO_MS = 2.0
#: requests per serving trace: p95 over >= 200 completions keeps at least
#: ten samples beyond it, with room for a few admission-shed requests
TRACE_REQUESTS = 210
#: trace schedule seed, as in the shipped fleet-serving spec: per-seed
#: schedules moved the serving and sanitizer host costs by about 20 %
TRACE_SEED = 7

WORKLOAD_NAMES = ("train-single", "train-pipeline4", "serve-fleet-read", "serve-fleet-write")


def _single_specs(seed: int, tiny: bool) -> Tuple[dict, dict]:
    base = {
        "dataset": "covid19_england",
        "model": "tgcn",
        "num_snapshots": 10 if tiny else 24,
        "frame_size": 8,
        "epochs": 2 if tiny else 4,
        "seed": seed,
    }
    pipad = dict(base, method="pipad", analysis={"enabled": True})
    pygt = dict(base, method="pygt")
    return pipad, pygt


def _pipeline_spec(seed: int, tiny: bool) -> dict:
    return {
        "dataset": "flickr",
        "model": "evolvegcn",
        "method": "pipad",
        "num_snapshots": 8 if tiny else 12,
        "frame_size": 8,
        "epochs": 2 if tiny else 3,
        "cost_scale": 5000.0,
        "seed": seed,
        "pipad": {"fixed_s_per": 2},
        "device": {
            "kind": "pipeline",
            "num_devices": 4,
            "interconnect": "nvlink",
            "schedule": "round_robin",
        },
        "data": {"pipeline": "staged", "prefetch_depth": 2, "pin_memory": True},
        "analysis": {"enabled": True},
    }


def _fleet_spec(seed: int, tiny: bool, request_fraction: float) -> dict:
    requests = trace_requests(tiny)
    return {
        "dataset": "youtube",
        "model": "tgcn",
        "method": "pipad",
        "num_snapshots": 10 if tiny else 12,
        "frame_size": 8,
        "epochs": 1 if tiny else 2,
        "lr": 5e-3,
        "seed": seed,
        "serving": {
            "kind": "fleet",
            "num_shards": 4,
            "min_replicas": 2,
            "admission_limit": 16,
            "slo_p99_ms": SLO_MS,
            "window": 8,
            "max_batch_requests": 8,
            "max_delay_ms": 1.0,
            "trace": {
                "num_events": requests + num_deltas(requests, request_fraction),
                "request_fraction": request_fraction,
                "mean_interarrival_ms": 0.2,
                "seed": TRACE_SEED,
            },
        },
        "analysis": {"enabled": True},
    }


def trace_requests(tiny: bool) -> int:
    return 14 if tiny else TRACE_REQUESTS


def num_deltas(requests: int, request_fraction: float) -> int:
    return round(requests * (1.0 - request_fraction) / request_fraction)


def workload_specs(workload: str, seed: int, *, tiny: bool = False) -> Dict[str, RunSpec]:
    """Engine label -> spec; the first label is the measured (PiPAD) engine."""
    if workload == "train-single":
        pipad, pygt = _single_specs(seed, tiny)
        return {"pipad": RunSpec.from_dict(pipad), "pygt": RunSpec.from_dict(pygt)}
    if workload == "train-pipeline4":
        return {"pipad": RunSpec.from_dict(_pipeline_spec(seed, tiny))}
    if workload == "serve-fleet-read":
        return {"pipad": RunSpec.from_dict(_fleet_spec(seed, tiny, 0.7))}
    if workload == "serve-fleet-write":
        return {"pipad": RunSpec.from_dict(_fleet_spec(seed, tiny, 0.3))}
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOAD_NAMES)}")


def spec_hashes(workload: str, seed: int, *, tiny: bool = False) -> Dict[str, str]:
    """sha256 of each engine's canonical ``RunSpec.to_dict()`` JSON."""
    return {
        label: hashlib.sha256(
            json.dumps(spec.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        for label, spec in workload_specs(workload, seed, tiny=tiny).items()
    }


def build_trace(engine: Engine) -> List[ServingEvent]:
    """Open-loop trace with an exact request/delta mix.

    Deltas and requests are synthesized as two streams (deltas chain on the
    head topology in order), interleaved by a seeded permutation and given
    exponential inter-arrival times on the simulated clock.  Each event is
    due at its timestamp whatever the backlog, and latency counts from that
    due time, so the generator is never late.
    """
    trace = engine.spec.serving.trace
    requests = round(trace.num_events * trace.request_fraction)
    deltas = trace.num_events - requests
    head = engine.graph.snapshots[-1]
    rngs = [np.random.default_rng([trace.seed, stream]) for stream in range(3)]
    delta_events = (
        synthesize_serving_trace(head, deltas, request_fraction=0.0, seed=rngs[0])
        if deltas
        else []
    )
    request_events = synthesize_serving_trace(
        head,
        requests,
        request_fraction=1.0,
        nodes_per_request=trace.nodes_per_request,
        seed=rngs[1],
    )
    kinds = rngs[2].permutation(np.array([True] * requests + [False] * deltas))
    gaps = rngs[2].exponential(trace.mean_interarrival_ms * 1e-3, size=len(kinds))
    streams = {True: iter(request_events), False: iter(delta_events)}
    events: List[ServingEvent] = []
    for is_request, at in zip(kinds, np.cumsum(gaps)):
        source = next(streams[bool(is_request)])
        events.append(
            ServingEvent(
                time=float(at),
                kind=source.kind,
                delta=source.delta,
                node_ids=source.node_ids,
            )
        )
    return events


@dataclass
class Outcome:
    """Everything one execution of a workload produced."""

    #: host-clock seconds per phase (and derived host rates)
    host: Dict[str, float] = field(default_factory=dict)
    #: simulated-clock metrics; identical for identical seeds
    sim: Dict[str, float] = field(default_factory=dict)
    #: engine label -> per-epoch losses
    losses: Dict[str, List[float]] = field(default_factory=dict)
    #: sha256 over every served prediction (None without a serving phase)
    checksum: Optional[str] = None
    #: failed correctness checks of this execution (empty = correct)
    failures: List[str] = field(default_factory=list)


Clock = Callable[[], float]


def _timed(fn, clock: Clock):
    start = clock()
    value = fn()
    return value, clock() - start


class _PredictionDigest:
    """Wraps a serving engine's ``pump`` to collect every prediction row."""

    def __init__(self, serving_engine) -> None:
        self.rows: Dict[int, np.ndarray] = {}
        inner = serving_engine.pump

        def pump(*args, **kwargs):
            results = inner(*args, **kwargs)
            for result in results:
                self.rows.update(result.predictions)
            return results

        serving_engine.pump = pump

    def hexdigest(self) -> str:
        digest = hashlib.sha256()
        for request_id in sorted(self.rows):
            rows = np.ascontiguousarray(self.rows[request_id])
            digest.update(f"{request_id}:{rows.dtype.str}:{rows.shape}".encode())
            digest.update(rows.tobytes())
        return digest.hexdigest()


def set_up(workload: str, seed: int, *, tiny: bool = False, clock: Clock = time.perf_counter):
    """Generate the dataset and construct every trainer and serving engine.

    Returns ``(engine, reference, seconds)``: the measured PiPAD engine, the
    PyGT engine training on the same generated graph (``None`` outside
    train-single) and the host seconds the construction took.
    """
    specs = workload_specs(workload, seed, tiny=tiny)
    start = clock()
    engine = Engine.from_spec(specs["pipad"])
    engine.trainer
    reference = None
    if "pygt" in specs:
        reference = Engine.from_spec(specs["pygt"], graph=engine.graph)
        reference.trainer
    if engine.spec.serving is not None:
        engine.serving_engine
    return engine, reference, clock() - start


def set_up_and_train(
    workload: str, seed: int, *, tiny: bool = False, clock: Clock = time.perf_counter
) -> Tuple[float, float]:
    """Timing-only round: ``(setup_s, train_host_s_per_epoch)`` of a fresh set-up."""
    engine, _, setup_s = set_up(workload, seed, tiny=tiny, clock=clock)
    training, train_s = _timed(engine.train, clock)
    return setup_s, train_s / training.epochs


def run_once(
    workload: str, seed: int, *, tiny: bool = False, clock: Clock = time.perf_counter
) -> Outcome:
    """Execute one workload from set-up to report; host times come from ``clock``."""
    out = Outcome()
    wall_start = clock()
    engine, reference, out.host["setup_s"] = set_up(workload, seed, tiny=tiny, clock=clock)

    training, train_s = _timed(engine.train, clock)
    out.losses["pipad"] = [m.loss for m in training.epoch_metrics]
    out.host["train_host_s_per_epoch"] = train_s / training.epochs
    baseline = None
    if reference is not None:
        baseline = reference.train()
        out.losses["pygt"] = [m.loss for m in baseline.epoch_metrics]

    serving = trace = None
    if engine.spec.serving is not None:
        digest = _PredictionDigest(engine.serving_engine)
        trace = build_trace(engine)
        serving, serve_s = _timed(lambda: engine.serve(trace), clock)
        out.host["serve_host_s"] = serve_s
        out.host["serve_host_events_per_s"] = len(trace) / serve_s
        out.checksum = digest.hexdigest()

    analysis, out.host["sanitize_s"] = _timed(engine.sanitize, clock)
    report = engine.report()
    out.host["wall_s"] = clock() - wall_start

    out.sim = sim_metrics(engine, report, baseline, trace, analysis)
    host_work = train_s + out.host.get("serve_host_s", 0.0)
    out.host["gpu.host_us_per_op"] = host_work / out.sim["gpu.ops"] * 1e6
    out.failures = _self_checks(out, serving, analysis, min_completions=trace_requests(tiny) - 10)
    return out


def _self_checks(out: Outcome, serving, analysis, *, min_completions: int) -> List[str]:
    """Checks that need no recorded reference."""
    failures = []
    if "pygt" in out.losses and out.losses["pygt"] != out.losses["pipad"]:
        failures.append(
            f"PiPAD and PyGT losses differ: {out.losses['pipad']} vs {out.losses['pygt']}"
        )
    if serving is not None:
        sent = out.sim["serving.requests_sent"]
        done = out.sim["serving.requests_completed"]
        rejected = out.sim["distributed.rejected"]
        if done + rejected != sent:
            failures.append(
                f"request accounting: completed {done:g} + rejected {rejected:g} != sent {sent:g}"
            )
        if done < min_completions:
            failures.append(f"only {done:g} completions; p95 needs >= {min_completions}")
    if analysis.violations:
        failures.append(
            f"sanitizer reported {len(analysis.violations)} violation(s): "
            + "; ".join(v.message for v in analysis.violations[:3])
        )
    return failures


# ---------------------------------------------------------------------- simulated metrics
def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _busy_seconds(timeline) -> float:
    resources = {op.resource for op in timeline.ops}
    return timeline.busy_time(resources)


def sim_metrics(engine: Engine, report, baseline, trace, analysis) -> Dict[str, float]:
    """Simulated-clock metrics of one execution, each with a stated aggregation."""
    m: Dict[str, float] = {}
    training = report.training
    steady = training.steady_epoch_seconds
    m["sim_steady_epoch_ms"] = steady * 1e3
    tel = report.metrics
    for stage in ("slice", "gather", "pin", "h2d"):
        m[f"core.prefetch_{stage}_busy_s"] = tel.get(f"prefetch.{stage}.seconds", 0.0)
    ex = training.extras
    hits = ex.get("cpu_hits", 0.0) + ex.get("gpu_hits", 0.0)
    m["core.reuse_hit_ratio"] = _ratio(hits, hits + ex.get("misses", 0.0))
    m["core.mean_s_per"] = ex.get("mean_s_per", 0.0)
    m["core.pipeline_bubble_s"] = ex.get("pipeline_bubble_seconds", 0.0)

    artifacts = collect_artifacts(
        trainer=engine.trainer,
        serving_engine=engine.serving_engine if report.serving is not None else None,
    )
    train_busy = [
        _busy_seconds(timeline)
        for _, domain, timeline in artifacts.timelines
        if domain == "train"
    ]
    m["core.stage_imbalance"] = max(train_busy) / min(train_busy) if min(train_busy) else 0.0
    ops = sum(len(timeline.ops) for _, _, timeline in artifacts.timelines)
    m["gpu.ops"] = float(ops)
    for kind in ("kernel", "h2d", "cpu", "d2h"):
        m[f"gpu.{kind}_busy_s"] = training.breakdown.get(kind, 0.0)
    m["gpu.utilization"] = training.gpu_utilization
    m["gpu.kernel_launches"] = float(training.kernel_launches)
    m["gpu.peak_hbm_mb"] = training.peak_memory_bytes / 2**20
    for kind in ("all_reduce", "peer_transfer"):
        m[f"gpu.collective_{kind}_bytes"] = tel.get(f"collective.{kind}.bytes", 0.0)
        m[f"gpu.collective_{kind}_calls"] = tel.get(f"collective.{kind}.count", 0.0)
    for category in ("aggregation", "update", "rnn"):
        m[f"kernels.{category}_busy_s"] = training.category_seconds.get(category, 0.0)

    m["analysis.ops_replayed"] = float(ops)
    m["analysis.violations"] = float(len(analysis.violations))

    if baseline is not None:
        speedup = baseline.steady_epoch_seconds / steady
        low, high = PAPER_SPEEDUP_BAND
        m["baselines.pygt_sim_steady_epoch_ms"] = baseline.steady_epoch_seconds * 1e3
        m["baselines.sim_speedup_vs_pygt"] = speedup
        m["sim_speedup_band_gap"] = max(0.0, math.log(speedup / high), math.log(low / speedup))
    else:
        m["baselines.pygt_sim_steady_epoch_ms"] = 0.0
        m["baselines.sim_speedup_vs_pygt"] = 0.0
        m["sim_speedup_band_gap"] = 0.0

    m.update(_serving_metrics(report.serving, trace, engine.spec))
    return m


SERVING_SIM_KEYS = (
    "serve_p50_ms",
    "serve_p95_ms",
    "serve_completions",
    "serve_slo_met_frac",
    "serve_failed_frac",
    "serving.requests_sent",
    "serving.requests_completed",
    "serving.batches",
    "serving.batch_fill_ratio",
    "serving.batch_wait_p50_ms",
    "serving.service_p50_ms",
    "serving.reuse_hit_ratio",
    "serving.rows_per_delta",
    "serving.kernel_busy_s",
    "serving.h2d_busy_s",
    "serving.cpu_busy_s",
    "serving.d2h_busy_s",
    "distributed.admitted",
    "distributed.rejected",
    "distributed.scale_up_events",
    "distributed.scale_down_events",
    "distributed.halo_gather_bytes",
    "distributed.shard_request_skew",
)


def _serving_metrics(serving, trace, spec) -> Dict[str, float]:
    """Serving-phase metrics; all 0 for workloads without a serving phase."""
    if serving is None:
        return {key: 0.0 for key in SERVING_SIM_KEYS}
    m: Dict[str, float] = {}
    records = serving.metrics.requests
    batches = {b.batch_id: b for b in serving.metrics.batches}
    latencies_ms = np.array([r.latency for r in records]) * 1e3
    sent = sum(1 for event in trace if event.kind == "request")
    ex = serving.extras
    rejected = ex.get("rejected_requests", 0.0)
    m["serve_p50_ms"] = float(np.percentile(latencies_ms, 50))
    m["serve_p95_ms"] = float(np.percentile(latencies_ms, 95))
    m["serve_completions"] = float(len(records))
    m["serve_slo_met_frac"] = float(np.sum(latencies_ms <= SLO_MS)) / sent
    m["serve_failed_frac"] = rejected / sent
    m["serving.requests_sent"] = float(sent)
    m["serving.requests_completed"] = float(len(records))
    m["serving.batches"] = float(len(batches))
    m["serving.batch_fill_ratio"] = (
        serving.metrics.mean_batch_size() / spec.serving.max_batch_requests
    )
    m["serving.batch_wait_p50_ms"] = float(
        np.median([batches[r.batch_id].formed_time - r.arrival_time for r in records]) * 1e3
    )
    m["serving.service_p50_ms"] = float(
        np.median([r.completion_time - batches[r.batch_id].formed_time for r in records]) * 1e3
    )
    reuse = serving.reuse_stats
    hits = reuse.get("cpu_hits", 0.0) + reuse.get("gpu_hits", 0.0)
    m["serving.reuse_hit_ratio"] = _ratio(hits, hits + reuse.get("misses", 0.0))
    m["serving.rows_per_delta"] = _ratio(
        serving.metrics.rows_touched, serving.metrics.deltas_ingested
    )
    for kind in ("kernel", "h2d", "cpu", "d2h"):
        m[f"serving.{kind}_busy_s"] = serving.breakdown.get(kind, 0.0)
    m["distributed.admitted"] = ex.get("admitted_requests", 0.0)
    m["distributed.rejected"] = rejected
    m["distributed.scale_up_events"] = ex.get("scale_up_events", 0.0)
    m["distributed.scale_down_events"] = ex.get("scale_down_events", 0.0)
    m["distributed.halo_gather_bytes"] = ex.get("halo_gather_bytes", 0.0)
    shard_requests = [
        value for key, value in ex.items() if key.startswith("shard") and key.endswith("_requests")
    ]
    mean = sum(shard_requests) / len(shard_requests)
    m["distributed.shard_request_skew"] = max(shard_requests) / mean if mean else 0.0
    return m
