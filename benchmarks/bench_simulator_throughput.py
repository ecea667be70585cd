"""Benchmark: host throughput of the simulator on the fleet-serving preset.

Replays the ``fleet-serving`` preset's trace at 1,280 and 5,120 events (320
with ``--quick``).  The model trains once and is injected into every row, so
a row times only the serving replay on the host clock.  Each row records the
timeline ops the replay scheduled across all replicas, the host
microseconds per op and the trace events replayed per host second — the
real-clock cost the simulator pays per simulated event.

Only request accounting is asserted (every sent request completes or is
rejected by admission control).  The host-clock numbers depend on the
machine and are recorded in ``BENCH_simulator.json``, never asserted.
"""

from __future__ import annotations

import time

from conftest import run_once, write_bench_json

from repro.api import Engine
from repro.api.cli import load_spec

EVENTS = (1280, 5120)
QUICK_EVENTS = (320,)


def _replay(model, num_events: int):
    engine = Engine.from_spec(
        load_spec("fleet-serving", [f"serving.trace.num_events={num_events}"]),
        model=model,
    )
    fleet = engine.serving_engine  # replica construction is not replay time
    trace = engine.default_trace()
    start = time.perf_counter()
    report = engine.serve(trace)
    host_seconds = time.perf_counter() - start
    ops = sum(len(replica.device.timeline.ops) for replica in fleet.replicas)
    return {
        "num_events": num_events,
        "requests_sent": sum(1 for event in trace if event.kind == "request"),
        "requests_completed": report.metrics.num_requests,
        "requests_rejected": int(report.extras.get("rejected_requests", 0.0)),
        "timeline_ops": ops,
        "host_seconds": host_seconds,
        "host_us_per_op": host_seconds / ops * 1e6,
        "events_per_s": num_events / host_seconds,
    }


def _sweep(quick: bool):
    trainer = Engine.from_spec(load_spec("fleet-serving"))
    trainer.train()
    return [_replay(trainer.model, n) for n in (QUICK_EVENTS if quick else EVENTS)]


def test_simulator_throughput(benchmark, request):
    quick = request.config.getoption("--quick")
    rows = run_once(benchmark, _sweep, quick)

    print("\nsimulator host throughput (fleet-serving replay)")
    print(f"{'events':>7} {'timeline ops':>13} {'host us/op':>11} {'events/s':>9}")
    for row in rows:
        print(
            f"{row['num_events']:>7} {row['timeline_ops']:>13} "
            f"{row['host_us_per_op']:>11.2f} {row['events_per_s']:>9.1f}"
        )
    write_bench_json("simulator", {"workload": "fleet-serving", "rows": rows})

    for row in rows:
        assert row["requests_completed"] + row["requests_rejected"] == row["requests_sent"]
