"""Static spec lint rules and the check registry/runner machinery."""

from __future__ import annotations

import pytest

from repro.analysis import (
    CHECK_REGISTRY,
    FAMILY_EXECUTION,
    FAMILY_STATIC,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Violation,
    register_check,
    resolve_checks,
    run_checks,
    static_checks,
)
from repro.api import AnalysisSpec, RunSpec


def make_spec(**overrides):
    base = {"dataset": "covid19_england", "model": "tgcn", "method": "pipad"}
    base.update(overrides)
    return RunSpec.from_dict(base)


SERVING = {
    "kind": "local",
    "window": 4,
    "max_batch_requests": 4,
    "max_delay_ms": 1.0,
    "trace": {"num_events": 10},
}


def fired(spec, check):
    return [v for v in run_checks(spec).violations if v.check == check]


class TestSpecLintRules:
    def test_default_spec_is_clean(self):
        report = run_checks(make_spec())
        assert report.ok and not report.violations

    def test_pinned_staging_floor(self):
        spec = make_spec(
            memory={"feature_cache": True, "pinned_budget_mb": 0.0},
            data={"pin_memory": True, "prefetch_depth": 2},
        )
        (violation,) = fired(spec, "spec-pinned-staging")
        assert "pinned_budget_mb" in violation.message
        assert "prefetch" in violation.message

    def test_fleet_admission_starvation(self):
        serving = dict(SERVING, kind="fleet", num_shards=2,
                       max_batch_requests=32, admission_limit=16)
        spec = make_spec(serving=serving)
        (violation,) = fired(spec, "spec-fleet-admission")
        assert "sheds requests" in violation.message

    def test_dead_memory_knobs_warn(self):
        spec = make_spec(memory={"feature_cache": False, "gpu_budget_mb": 512.0})
        (violation,) = fired(spec, "spec-dead-memory")
        assert violation.severity == SEVERITY_WARNING
        assert "memory.gpu_budget_mb" in violation.message

    def test_telemetry_paths_without_telemetry(self):
        spec = make_spec(
            telemetry={"enabled": False, "trace_path": "/tmp/x.json"}
        )
        (violation,) = fired(spec, "spec-telemetry-paths")
        assert "telemetry.trace_path" in violation.message

    def test_fixed_partition_exceeding_frame(self):
        spec = make_spec(frame_size=8, pipad={"fixed_s_per": 12})
        (violation,) = fired(spec, "spec-partitioning")
        assert "fixed_s_per" in violation.message

    def test_serving_partition_exceeding_window(self):
        spec = make_spec(serving=dict(SERVING, fixed_s_per=6, window=4))
        (violation,) = fired(spec, "spec-partitioning")
        assert "serving.window" in violation.message

    def test_window_exceeding_snapshot_stream(self):
        spec = make_spec(num_snapshots=10, serving=dict(SERVING, window=64))
        (violation,) = fired(spec, "spec-serving-window")
        assert "num_snapshots" in violation.message

    def test_prefetch_depth_under_disabled_pipeline(self):
        # Serving replicas force depth 0 whatever the training method.
        cases = [
            ({"pipad": {"enable_pipeline": False}}, "pipad.enable_pipeline"),
            (
                {"method": "pygt", "serving": dict(SERVING, enable_pipeline=False)},
                "serving.enable_pipeline",
            ),
        ]
        for overrides, switch in cases:
            spec = make_spec(data={"prefetch_depth": 3}, **overrides)
            (violation,) = fired(spec, "spec-prefetch-pipeline")
            assert violation.severity == SEVERITY_WARNING
            assert switch in violation.message


class TestRegistry:
    def test_catalog_covers_both_families(self):
        families = {info.family for info in CHECK_REGISTRY.values()}
        assert families == {FAMILY_STATIC, FAMILY_EXECUTION}
        assert set(static_checks()) == {
            name
            for name, info in CHECK_REGISTRY.items()
            if info.family == FAMILY_STATIC
        }

    def test_resolve_defaults_to_all(self):
        assert resolve_checks(None) == tuple(CHECK_REGISTRY)
        assert resolve_checks(()) == tuple(CHECK_REGISTRY)

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown analysis check"):
            resolve_checks(["hb-race", "not-a-check"])

    def test_resolve_deduplicates_preserving_order(self):
        assert resolve_checks(["hb-race", "hb-race", "spec-dead-memory"]) == (
            "hb-race",
            "spec-dead-memory",
        )

    def test_register_rejects_duplicates_and_bad_family(self):
        with pytest.raises(ValueError, match="already registered"):
            register_check("hb-race", FAMILY_STATIC, "dup", lambda s, a: [])
        with pytest.raises(ValueError, match="family must be"):
            register_check("x", "dynamic", "bad", lambda s, a: [])

    def test_run_checks_without_artifacts_is_static_only(self):
        report = run_checks(make_spec())
        assert set(report.checks) == set(static_checks())

    def test_run_checks_honors_selection(self):
        report = run_checks(make_spec(), checks=["spec-dead-memory"])
        assert report.checks == ("spec-dead-memory",)

    def test_registered_check_participates(self):
        name = "test-always-fires"
        register_check(
            name,
            FAMILY_STATIC,
            "test fixture",
            lambda spec, artifacts: [Violation(check=name, message="boom")],
        )
        try:
            report = run_checks(make_spec(), checks=[name])
            assert not report.ok
            assert report.by_check(name)[0].message == "boom"
        finally:
            CHECK_REGISTRY.pop(name)


class TestAnalysisSpec:
    def test_defaults(self):
        spec = AnalysisSpec()
        assert not spec.enabled and spec.checks == ()
        assert spec.fail_on_violation

    def test_checks_coerce_to_tuple(self):
        spec = AnalysisSpec.from_dict({"checks": ["hb-race"]})
        assert spec.checks == ("hb-race",)

    def test_unknown_check_rejected_at_spec_level(self):
        with pytest.raises(ValueError, match="unknown analysis check"):
            AnalysisSpec(checks=("no-such-check",))

    def test_runspec_nests_and_round_trips(self):
        spec = make_spec(
            analysis={"enabled": True, "checks": ["memory-watermark"]}
        )
        assert spec.analysis.enabled
        assert spec.analysis.checks == ("memory-watermark",)
        restored = RunSpec.from_dict(spec.to_dict())
        assert restored.analysis == spec.analysis

    def test_violation_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Violation(check="x", message="y", severity="fatal")
        assert Violation(check="x", message="y").severity == SEVERITY_ERROR
