"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-single --seed 0 --seconds 15 --trace 0

``--trace 0`` repeats the workload from a fresh set-up until ``--seconds``
have passed (at least once), checks every execution and prints the
end-to-end metrics: host-clock medians over the executions, with
``setup_s`` over at least five set-ups.  ``--trace 1`` runs the workload
once untraced and once with spans around each layer's public functions,
checks that both produce identical outputs and prints the per-layer
metrics plus the tracing overhead.  Host times are stated at the reference
machine speed of ``speed.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Provenance, every
metric and the gate's findings also go to ``.bench_out/`` in the
repository root, next to the recorded spans.  The process runs one thread
with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: ``setup_s`` and ``train_host_s_per_epoch`` are medians of at least this
#: many samples per run; timing-only rounds (set-up + training) top them up
MIN_SAMPLES = 5
#: unbounded end-to-end figures printed beside the bounded metrics
TRAIN_FIGURES = (
    ("train_host_s_per_epoch", "s"),
    ("sanitize_s", "s"),
    ("sim_steady_epoch_ms", "sim_ms"),
)
PAIRED_FIGURES = (("sim_speedup_band_gap", "ln_ratio"), ("baselines.sim_speedup_vs_pygt", "ratio"))
SERVE_FIGURES = (
    ("serve_host_events_per_s", "events/s"),
    ("serve_p50_ms", "sim_ms"),
    ("serve_p95_ms", "sim_ms"),
    ("serve_completions", "count"),
    ("serve_slo_met_frac", "fraction"),
    ("serve_failed_frac", "fraction"),
)


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; effective only before NumPy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout's own ``.git`` (None when it is not a git repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, workloads, reference) -> Dict[str, object]:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "spec_sha256": workloads.spec_hashes(args.workload, args.seed, tiny=args.tiny),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "platform": reference.platform_fingerprint(reference.platform_detail()),
    }


def _repeat_failures(first, other) -> List[str]:
    """Simulated outputs must repeat exactly for the same seed."""
    failures = []
    if other.losses != first.losses:
        failures.append("losses differ between executions of the same seed")
    if other.checksum != first.checksum:
        failures.append("prediction checksums differ between executions of the same seed")
    changed = sorted(k for k in first.sim if other.sim.get(k) != first.sim[k])
    if changed:
        failures.append(f"sim metrics differ between executions: {', '.join(changed)}")
    return failures


def gate(workload: str, seed: int, outcomes, reference, recorded) -> Dict[str, object]:
    """Check every execution; returns the findings per execution."""
    findings = []
    status = None
    for index, outcome in enumerate(outcomes):
        failures = list(outcome.failures)
        status, mismatches = reference.check(recorded, workload, seed, outcome)
        failures += mismatches
        if index:
            failures += _repeat_failures(outcomes[0], outcome)
        findings.append(failures)
    return {
        "reference": status,
        "attempted": len(outcomes),
        "failed": sum(1 for failures in findings if failures),
        "failures": findings,
    }


def _median(outcomes, key: str) -> float:
    return statistics.median(outcome.host[key] for outcome in outcomes)


def _rescale(outcome, scale: float) -> None:
    """Restate an execution's host figures at the reference machine speed."""
    outcome.host = {
        key: value / scale if key.endswith("_per_s") else value * scale
        for key, value in outcome.host.items()
    }


def measure(args, workloads):
    """Trace 0: repeat the workload for ``args.seconds``; end-to-end metrics."""
    from speed import SpeedSampler

    outcomes = []
    start = time.perf_counter()
    with SpeedSampler() as sampler:
        while not outcomes or time.perf_counter() - start < args.seconds:
            outcomes.append(workloads.run_once(
                args.workload, args.seed, tiny=args.tiny, clock=sampler.work_clock
            ))
        samples = [(o.host["setup_s"], o.host["train_host_s_per_epoch"]) for o in outcomes]
        while len(samples) < MIN_SAMPLES:
            samples.append(workloads.set_up_and_train(
                args.workload, args.seed, tiny=args.tiny, clock=sampler.work_clock
            ))
    scale = sampler.scale()
    raw = [dict(outcome.host) for outcome in outcomes]
    for outcome in outcomes:
        _rescale(outcome, scale)
    setups, trains = (tuple(value * scale for value in column) for column in zip(*samples))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": _median(outcomes, "wall_s"),
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    figures = dict(outcomes[0].sim)
    figures["train_host_s_per_epoch"] = statistics.median(trains)
    figures["sanitize_s"] = _median(outcomes, "sanitize_s")
    shown = list(TRAIN_FIGURES)
    if figures["baselines.sim_speedup_vs_pygt"]:
        shown += PAIRED_FIGURES
    if figures["serve_completions"]:
        figures["serve_host_events_per_s"] = _median(outcomes, "serve_host_events_per_s")
        shown += SERVE_FIGURES
    lines = [f"{name} = {figures[name]:.6g} {unit}" for name, unit in shown]
    if figures["serve_completions"]:
        lines.append("serve_generator_lateness_ms = 0 ms (open loop on the simulated clock)")
    extra = {
        "setup_s": setups,
        "train_host_s_per_epoch": trains,
        "speed_scale": scale,
        "raw_host": raw,
    }
    return outcomes, metrics, lines, extra


def measure_traced(args, workloads, catalog):
    """Trace 1: one untraced and one traced execution; per-layer metrics."""
    from speed import SpeedSampler
    from tracing import SpanTracer

    with SpeedSampler() as sampler:
        run = lambda: workloads.run_once(  # noqa: E731
            args.workload, args.seed, tiny=args.tiny, clock=sampler.work_clock
        )
        untraced = run()
        tracer = SpanTracer(clock=sampler.work_clock).install()
        try:
            traced = run()
        finally:
            tracer.uninstall()
    scale = sampler.scale()
    _rescale(untraced, scale)
    _rescale(traced, scale)
    spans_path = tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    overhead = traced.host["wall_s"] / untraced.host["wall_s"]
    metrics: Dict[str, float] = {}
    for metric in catalog.PER_LAYER:
        name = metric.name
        if name in catalog.SPAN_METRICS:
            span, _, field = name.rpartition(".")
            if field == "self_s":
                metrics[name] = tracer.self_s.get(span, 0.0) * scale
            else:
                metrics[name] = float(tracer.calls.get(span, 0))
        elif name == "bench.trace_overhead":
            metrics[name] = overhead
        elif name in untraced.sim:
            metrics[name] = untraced.sim[name]
        else:
            metrics[name] = untraced.host.get(name, 0.0)
    span_self_s = sum(tracer.self_s.values()) * scale
    lines = [
        f"tracing overhead = {overhead:.4f} (traced wall {traced.host['wall_s']:.3f} s "
        f"/ untraced wall {untraced.host['wall_s']:.3f} s)",
        f"spans = {len(tracer.spans)}, self time {span_self_s:.3f} s, written to "
        f"{spans_path.relative_to(ROOT)}",
    ]
    extra = {
        "span_self_s_total": span_self_s,
        "traced_wall_s": traced.host["wall_s"],
        "speed_scale": scale,
    }
    return [untraced, traced], metrics, lines, extra


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import catalog
        import reference
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program under test from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; valid: "
                     + ", ".join(workloads.WORKLOAD_NAMES))

    recorded = reference.load()
    info = provenance(args, workloads, reference)
    if args.trace:
        outcomes, metrics, lines, extra = measure_traced(args, workloads, catalog)
        units = {m.name: m.unit for m in catalog.PER_LAYER}
    else:
        outcomes, metrics, lines, extra = measure(args, workloads)
        units = {m.name: m.unit for m in catalog.END_TO_END}
    checks = gate(args.workload, args.seed, outcomes, reference, recorded)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("\n".join(lines))
    print(f"gate: reference {checks['reference']}; "
          f"{checks['failed']} of {checks['attempted']} execution(s) failed")
    for index, failures in enumerate(checks["failures"]):
        for failure in failures:
            print(f"  execution {index}: {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "provenance": info,
        "metrics": metrics,
        "host": [outcome.host for outcome in outcomes],
        "sim": outcomes[0].sim,
        "gate": checks,
        **extra,
    }
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
