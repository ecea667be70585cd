"""Golden parity for PiPAD training on every device placement.

One trainer class runs the ``single``, ``group`` (node-sharded) and
``pipeline`` (frame-pipelined) placements.  The pinned digests below were
recorded from the three-class implementation this trainer replaced, so any
drift in the schedule, the numerics or the reporting shows up here:

- the loss curve and the per-epoch metrics;
- ``simulated_seconds``, ``breakdown`` and ``category_seconds``;
- ``extras`` (in insertion order) and the method label;
- the exported Chrome-trace bytes.

The K=1 ``group``/``pipeline`` runs share the ``single`` run's simulated
clock but not its report: their breakdown is the device-group view (no
utilization keys) and their extras carry the placement's counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.api import Engine, RunSpec
from repro.api.cli import load_spec

SPECS = Path(__file__).resolve().parents[2] / "specs"

_SMALL = dict(dataset="covid19_england", num_snapshots=8, frame_size=4, epochs=3)

#: run name -> (spec file, CLI-style overrides) or a literal RunSpec
RUNS = {
    "single": ("train_pipad_single_gpu.json", []),
    "group4": ("train_distributed_4gpu.json", ["epochs=2"]),
    "group4_cache": (
        "train_distributed_4gpu.json",
        ["epochs=2", "memory.feature_cache=true"],
    ),
    "pipeline4": ("train_pipeline_4gpu.json", ["epochs=2"]),
    "pipeline4_cache": (
        "train_pipeline_4gpu.json",
        ["epochs=2", "memory.feature_cache=true"],
    ),
    "small_single": RunSpec(**_SMALL),
    "small_group1": RunSpec(**_SMALL, device={"kind": "group", "num_devices": 1}),
    "small_pipeline1": RunSpec(
        **_SMALL, device={"kind": "pipeline", "num_devices": 1}
    ),
}

#: digests recorded from the three-class implementation (see module doc)
GOLDEN = {
    "group4": dict(
        losses="6c094727001f181bd0e215e5a0aca7a764ee19a8f5db9aca49e05b1807299074",
        epochs="0c06bb631bed99429f0030bf8ccf302ca7019b06aad68793960fea190bcd21b8",
        simulated_seconds=2.6050232212124356,
        breakdown="88a61841860a0b99c3f4f1d9f8ef80bfd672d11616172ff29005c2e52e11385b",
        category_seconds="0533999c39cd49c75514a51ff31b9913aed72e64dd99427caa257b67fe273d75",
        extras="a89ae87912a3c859f7b6f1043427343c3b111bb1c4f4479f72fcd255d223a49d",
        method="PiPAD-DP",
        trace="421cf4d30a78ad110fa691ca443a1c8905c507755ef746550a402654a694a608",
    ),
    "group4_cache": dict(
        losses="6c094727001f181bd0e215e5a0aca7a764ee19a8f5db9aca49e05b1807299074",
        epochs="e8acc488d141c0740ea734054414e21edabe51a301ff2db3acbcc2cf17e12c28",
        simulated_seconds=2.6050232212124356,
        breakdown="a2faa3f05b3b0ca689b631205bbc01efafd95aba2674b379ae1fd76647da00a2",
        category_seconds="0533999c39cd49c75514a51ff31b9913aed72e64dd99427caa257b67fe273d75",
        extras="feb2993c2fd75e8663a68625d3f10c23cac2c2ef4dc5231cee86b2c083f7daf3",
        method="PiPAD-DP",
        trace="018174b2b710300cda52a5d575f753385614e5e673d679c357662088c8b39bbd",
    ),
    "pipeline4": dict(
        losses="33c9fc2800631239e10517d7527334d184a0d7cd30fc5d3a51bd05e160f01622",
        epochs="db88399638349f65bfa6900a5a2866ef553fd82b9e803cabf3fb9ff11177c022",
        simulated_seconds=1.6502856984460916,
        breakdown="e797f51ff405cbf037c7e5f14d3ca8beaecf83e9aead6260fdd20f162413fbe5",
        category_seconds="a5573953de12e7feff8e368fa8d138c8fa06c52b57a6e504a971b6bd83723258",
        extras="ab51b56ad52dc98da2dd9123192c3aac753e58d9dc4e07a94eb5a37d0ec141cd",
        method="PiPAD-PP",
        trace="d7ec58c6a6fc7a3dda2b35f577786090956864a6d3050ce7d3ce710548fde748",
    ),
    "pipeline4_cache": dict(
        losses="33c9fc2800631239e10517d7527334d184a0d7cd30fc5d3a51bd05e160f01622",
        epochs="8bc65a78e7291f1b2a194683fe29139896a9fac299d78f331eef5f6e6a68c486",
        simulated_seconds=1.6502856984460916,
        breakdown="6b7bf4c4889637f22a9661d20b1e3dde9d4ec3328b7e3e3a9af87578b6e55783",
        category_seconds="a5573953de12e7feff8e368fa8d138c8fa06c52b57a6e504a971b6bd83723258",
        extras="3b42008b54aebc571a98276521ddecebc695145f09ff8c9cb7ce902e6ef79cd0",
        method="PiPAD-PP",
        trace="61f5e5ddfecd4dc0b49da1361dccb076da3f17eca79991f697e34708eae738f2",
    ),
    "single": dict(
        losses="b7393c84fa99c24bf1620de0a45f3ccfd7b7dcb43a20cc6f734c61a38e113fc0",
        epochs="b956821701288941874437cf490e7845c97f7b59e5f88dd6498b2de52ff1116a",
        simulated_seconds=0.013240631736296301,
        breakdown="f8755a3c5a36275ae89d548ad2d9f111a958269961ee5dcc6cf8d14eb8a3529e",
        category_seconds="03edcc617be62d8d11f2441734b01ceb271bfa545d10adbab498d9f0c289bbad",
        extras="015c4693ab6326ba0f1a106de98982c8925c14efcc6ccd896a9d48f68c723d1b",
        method="PiPAD",
        trace="5c2f6c266c020ca5b5c3c033bebe25bb7616f6ba4c1a40908064a8cc796cd149",
    ),
    "small_group1": dict(
        losses="4b5f027b8955a46f6a24bbe4676315c80aba7268479c89512f11f84c9b13e4d2",
        epochs="e55f16cfdc01b0c42c9214373983297500d3ffd6662c55edf5747ab05e00a0d0",
        simulated_seconds=0.004784881453333318,
        breakdown="58ae2410a4d0154463cef853c5bbaa707fab1d7d6ad4033ca64add3841e0e455",
        category_seconds="677fa1b7ea1ff1f92076ca917fd0c0a59b24351f12269dd47964e51c26f26b35",
        extras="ceb3f5dfe1b1b634318e312a3c2ce028772d75b200416e350ce9b14cc808a6a4",
        method="PiPAD-DP",
        trace="e0e3602caa2d82cc5e2690f8a3d0f806ac58d2c4239743cee07e144d0b127615",
    ),
    "small_pipeline1": dict(
        losses="4b5f027b8955a46f6a24bbe4676315c80aba7268479c89512f11f84c9b13e4d2",
        epochs="e55f16cfdc01b0c42c9214373983297500d3ffd6662c55edf5747ab05e00a0d0",
        simulated_seconds=0.004784881453333318,
        breakdown="58ae2410a4d0154463cef853c5bbaa707fab1d7d6ad4033ca64add3841e0e455",
        category_seconds="677fa1b7ea1ff1f92076ca917fd0c0a59b24351f12269dd47964e51c26f26b35",
        extras="87a5918c865311277d0c5e9b2475b372a3cdb59e173736cbecf8d70b0ce9a869",
        method="PiPAD-PP",
        trace="e0e3602caa2d82cc5e2690f8a3d0f806ac58d2c4239743cee07e144d0b127615",
    ),
    "small_single": dict(
        losses="4b5f027b8955a46f6a24bbe4676315c80aba7268479c89512f11f84c9b13e4d2",
        epochs="e55f16cfdc01b0c42c9214373983297500d3ffd6662c55edf5747ab05e00a0d0",
        simulated_seconds=0.004784881453333318,
        breakdown="0546b6b7e11454df8ef1897a0fc0123f13ee3bf2dffe5720ab5b674bb0ef2751",
        category_seconds="677fa1b7ea1ff1f92076ca917fd0c0a59b24351f12269dd47964e51c26f26b35",
        extras="ae10423e6668879d77dcfc335588fc576283ac19db08e8d62285dce04697c979",
        method="PiPAD",
        trace="e0e3602caa2d82cc5e2690f8a3d0f806ac58d2c4239743cee07e144d0b127615",
    ),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _digest(result, trace: bytes) -> dict:
    return dict(
        losses=_sha([m.loss for m in result.epoch_metrics]),
        epochs=_sha([dataclasses.astuple(m) for m in result.epoch_metrics]),
        simulated_seconds=result.simulated_seconds,
        breakdown=_sha(list(result.breakdown.items())),
        category_seconds=_sha(list(result.category_seconds.items())),
        extras=_sha(list(result.extras.items())),
        method=result.method,
        trace=hashlib.sha256(trace).hexdigest(),
    )


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run(name)`` -> (TrainingResult, Chrome-trace bytes), once per name."""
    done = {}

    def get(name: str):
        if name not in done:
            entry = RUNS[name]
            if isinstance(entry, RunSpec):
                spec = entry
            else:
                spec = load_spec(str(SPECS / entry[0]), entry[1])
            trace_path = tmp_path_factory.mktemp("golden") / "trace.json"
            spec = spec.replace(
                telemetry=spec.telemetry.replace(trace_path=str(trace_path))
            )
            engine = Engine.from_spec(spec)
            engine.train()
            report = engine.report()
            engine.export_artifacts(report)
            done[name] = (report.training, trace_path.read_bytes())
        return done[name]

    return get


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(run, name):
    assert _digest(*run(name)) == GOLDEN[name]


def test_k1_placements_share_the_single_clock_but_not_its_report(run):
    single, single_trace = run("small_single")
    for name in ("small_group1", "small_pipeline1"):
        result, trace = run(name)
        assert result.simulated_seconds == single.simulated_seconds
        assert [m.loss for m in result.epoch_metrics] == [
            m.loss for m in single.epoch_metrics
        ]
        assert trace == single_trace
        assert "gpu_utilization" not in result.breakdown
        assert "sm_utilization" not in result.breakdown
        assert result.extras["num_devices"] == 1.0
        assert {"device_seconds_max", "device_seconds_min"} <= set(result.extras)
    group, _ = run("small_group1")
    pipeline, _ = run("small_pipeline1")
    assert {"halo_feature_bytes", "edge_fraction_spread"} <= set(group.extras)
    assert "pipeline_bubble_seconds" not in group.extras
    assert "pipeline_bubble_seconds" in pipeline.extras
    assert "halo_feature_bytes" not in pipeline.extras
