"""Fast self-test of the benchmark at tiny sizes (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` matches the catalog, that every workload
emits every named metric with its unit in both modes, that traced self
times are non-negative and add up to no more than the traced wall time,
and that the correctness gate trips on a perturbed reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

#: a seed with no recorded reference, so tiny outcomes are never compared
#: with the full-size references
SEED = 987654


def _run_cli(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace), "--tiny"])
    assert code == 0, f"{workload} trace {trace} exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_contract(catalog) -> None:
    path = run.ROOT / "BENCHMARK.json"
    assert json.loads(path.read_text()) == catalog.benchmark_json(), (
        "BENCHMARK.json is stale; regenerate it with python3 perfbench/catalog.py --write"
    )


def check_emitted(workload: str, catalog) -> None:
    for trace, expected in ((0, catalog.END_TO_END), (1, catalog.PER_LAYER)):
        result = _run_cli(workload, trace)
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
        assert result["correct"] and result["failed"] == 0, result
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m.name: m.unit for m in expected
        }, f"{workload} trace {trace}: metric names or units differ from the catalog"
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), (name, metric)
    print(f"ok  {workload}: every metric emitted with its unit")

    record = json.loads((run.OUT_DIR / f"result-{workload}-seed{SEED}-trace1.json").read_text())
    self_times = {k: v for k, v in record["metrics"].items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values()), self_times
    assert record["span_self_s_total"] <= record["traced_wall_s"], record
    print(f"ok  {workload}: {record['span_self_s_total']:.3f} s of span self time "
          f"<= {record['traced_wall_s']:.3f} s traced wall")


def check_gate_trips(workload: str, reference, workloads) -> None:
    outcome = workloads.run_once(workload, SEED, tiny=True)
    recorded = {
        "platform": reference.platform_fingerprint(reference.platform_detail()),
        "workloads": {workload: {str(SEED): reference.entry_of(outcome)}},
    }
    assert reference.check(recorded, workload, SEED, outcome) == ("checked", [])
    entry = recorded["workloads"][workload][str(SEED)]
    losses = entry["losses"]["pipad"]
    losses[-1] = (float.fromhex(losses[-1]) * (1 + 2**-40)).hex()
    if entry["checksum"] is not None:
        entry["checksum"] = "0" * 64
    status, failures = reference.check(recorded, workload, SEED, outcome)
    assert status == "checked" and len(failures) == (2 if outcome.checksum else 1), failures
    checks = run.gate(workload, SEED, [outcome, outcome], reference, recorded)
    assert checks["failed"] == checks["attempted"] == 2, checks
    print(f"ok  {workload}: the gate trips on a perturbed reference")


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import catalog
    import reference
    import workloads

    check_contract(catalog)
    print("ok  BENCHMARK.json matches the catalog")
    for workload in workloads.WORKLOAD_NAMES:
        check_emitted(workload, catalog)
    check_gate_trips("train-single", reference, workloads)
    check_gate_trips("serve-fleet-read", reference, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
