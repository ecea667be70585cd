"""Released engines free their trainers and serving engines by reference count.

With the cyclic garbage collector disabled, a trainer or serving engine that
sits in a reference cycle would outlive its :class:`Engine`.  Each trainer
kind and each serving topology is run once, released, and must be gone.
Also covers the serving builders sharing one tuner across replicas.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import Engine
from repro.core.tuner import OfflineAnalysis
from repro.distributed import FleetConfig, build_fleet_serving_engine
from repro.nn import build_model
from repro.serving import ServingConfig

BASE = dict(
    dataset="covid19_england", model="tgcn", method="pipad", num_snapshots=8, frame_size=4,
    epochs=2,
)
TRACE = dict(num_events=16, seed=1)

SPECS = {
    "single": BASE,
    "group": dict(BASE, device=dict(kind="group", num_devices=2)),
    "pipeline": dict(BASE, device=dict(kind="pipeline", num_devices=2)),
    "local": dict(BASE, serving=dict(kind="local", window=4, trace=TRACE)),
    "sharded": dict(BASE, serving=dict(kind="sharded", num_shards=2, window=4, trace=TRACE)),
    "fleet": dict(BASE, serving=dict(kind="fleet", num_shards=2, window=4, trace=TRACE)),
}


@pytest.fixture()
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_released_engine_frees_its_parts(kind, no_cyclic_gc):
    engine = Engine.from_spec(SPECS[kind])
    engine.run()
    refs = {"trainer": weakref.ref(engine.trainer)}
    if engine.spec.serving is not None:
        refs["serving engine"] = weakref.ref(engine.serving_engine)
    del engine
    alive = [name for name, ref in refs.items() if ref() is not None]
    assert alive == []


class TestSharedServingTuner:
    @pytest.fixture()
    def table_builds(self, monkeypatch):
        builds = []
        original = OfflineAnalysis.speedup_table

        def counting(self, *args, **kwargs):
            builds.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(OfflineAnalysis, "speedup_table", counting)
        return builds

    def test_fleet_replicas_share_one_tuner(self, small_graph, table_builds):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        fleet = build_fleet_serving_engine(
            small_graph, model, FleetConfig(num_shards=3), ServingConfig(window=4)
        )
        assert len(table_builds) == 1
        assert len({id(replica.policy.tuner) for replica in fleet.replicas}) == 1

    def test_sharded_replicas_share_one_tuner(self, small_graph, table_builds):
        model = build_model("tgcn", small_graph.feature_dim, 8, seed=0)
        sharded = build_fleet_serving_engine(
            small_graph,
            model,
            FleetConfig(num_shards=3, min_replicas=3, replicated=True),
            ServingConfig(window=4),
        )
        assert len(table_builds) == 1
        assert len({id(replica.policy.tuner) for replica in sharded.replicas}) == 1
