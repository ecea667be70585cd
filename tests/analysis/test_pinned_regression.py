"""Regression: in-flight prefetch staging is charged against pinned_budget_mb.

Before the fix the Prefetcher staged transfer buffers in pinned memory
without charging the pinned tier, so ``prefetch_depth`` in-flight buffers
could overshoot ``memory.pinned_budget_mb`` unobserved (ROADMAP item 3).
These tests run the real engine and let the sanitizer pin the invariant.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, RunSpec
from repro.memory import TIER_PINNED


def cached_spec(**overrides):
    data = {
        "dataset": "covid19_england",
        "model": "tgcn",
        "method": "pipad",
        "num_snapshots": 10,
        "frame_size": 6,
        "epochs": 2,
        "memory": {
            "feature_cache": True,
            "gpu_budget_mb": 0.05,
            "pinned_budget_mb": 0.05,
            "block_rows": 32,
        },
        "data": {"pipeline": "staged", "prefetch_depth": 3, "pin_memory": True},
        "analysis": {"enabled": True},
    }
    data.update(overrides)
    return RunSpec.from_dict(data)


class TestPinnedStagingCharge:
    def test_peak_pinned_never_exceeds_budget(self):
        engine = Engine.from_spec(cached_spec())
        engine.train()
        cache = engine.trainer.feature_caches[0]
        capacity = cache.tiers[TIER_PINNED].capacity_bytes
        assert capacity is not None and capacity > 0
        # Staging actually flowed through the tier...
        assert cache.peak_pinned_bytes > 0.0
        # ...and the high-water mark respected the declared budget.
        assert cache.peak_pinned_bytes <= capacity * (1 + 1e-9)

    def test_sanitizer_passes_on_cached_run(self):
        engine = Engine.from_spec(cached_spec())
        report = engine.run()
        analysis = report.extras["analysis"]
        assert analysis["num_errors"] == 0
        assert "memory-watermark" in analysis["checks"]

    def test_staging_reservations_fully_drain_or_stay_bounded(self):
        engine = Engine.from_spec(cached_spec())
        engine.train()
        cache = engine.trainer.feature_caches[0]
        tier = cache.tiers[TIER_PINNED]
        # Residency plus whatever staging is still in flight at the end of
        # the run must sit inside the tier capacity (the invariant the old
        # code violated).
        assert tier.used_bytes + tier.reserved_bytes <= tier.capacity_bytes * (
            1 + 1e-9
        )

    def test_prefetch_depth_scales_staging_pressure(self):
        shallow = Engine.from_spec(cached_spec(
            data={"pipeline": "staged", "prefetch_depth": 0,
                  "pin_memory": True},
        ))
        shallow.train()
        deep = Engine.from_spec(cached_spec())
        deep.train()
        shallow_peak = shallow.trainer.feature_caches[0].peak_pinned_bytes
        deep_peak = deep.trainer.feature_caches[0].peak_pinned_bytes
        assert deep_peak >= shallow_peak > 0.0
