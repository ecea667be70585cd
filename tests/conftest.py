"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import TrainerConfig
from repro.graph import CSRMatrix, GeneratorConfig, generate_dynamic_graph
from repro.gpu import DeviceGroup, GPUSpec, SimulatedGPU
from repro.nn import build_model
from repro.serving import IncrementalSnapshotStore, ServingConfig, ServingScheduler


@pytest.fixture(scope="session")
def small_graph():
    """A small dynamic graph used throughout the trainer/model tests."""
    config = GeneratorConfig(
        num_nodes=60,
        avg_degree=3.0,
        feature_dim=4,
        num_snapshots=10,
        change_rate=0.15,
        topology="preferential",
        name="test-graph",
    )
    return generate_dynamic_graph(config, seed=7)


@pytest.fixture(scope="session")
def dense_feature_graph():
    """A graph with a larger feature dimension (vector-load code paths)."""
    config = GeneratorConfig(
        num_nodes=40,
        avg_degree=4.0,
        feature_dim=40,
        num_snapshots=8,
        change_rate=0.1,
        topology="community",
        name="test-dense",
    )
    return generate_dynamic_graph(config, seed=11)


@pytest.fixture()
def random_csr():
    """A deterministic random 30x30 CSR adjacency."""
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 30, size=90)
    cols = rng.integers(0, 30, size=90)
    mask = rows != cols
    return CSRMatrix.from_edges(rows[mask], cols[mask], (30, 30))


@pytest.fixture()
def gpu_spec():
    return GPUSpec()


@pytest.fixture()
def device():
    return SimulatedGPU()


@pytest.fixture()
def trainer_config():
    return TrainerConfig(model="tgcn", frame_size=4, epochs=2, lr=1e-3, seed=0)


@pytest.fixture()
def device_group():
    """A four-device simulated group over the default NVLink interconnect."""
    return DeviceGroup(4)


@pytest.fixture()
def make_serving_engine(small_graph):
    """Factory for serving engines over ``small_graph`` (shared serving fixture).

    Keyword overrides go to :class:`ServingConfig`; ``model_name`` picks the
    DGNN model.  Consolidated here because the serving and distributed test
    modules all need the same graph + model + engine wiring.
    """

    def factory(*, model_name: str = "tgcn", **config_kwargs):
        defaults = dict(window=4, max_batch_requests=4, max_delay_ms=0.5)
        defaults.update(config_kwargs)
        model = build_model(model_name, small_graph.feature_dim, 8, seed=0)
        config = ServingConfig(**defaults)
        store = IncrementalSnapshotStore(small_graph, window=config.window)
        return ServingScheduler(model, store, config, dataset=small_graph.name)

    return factory


@pytest.fixture()
def make_snapshot_store(small_graph):
    """Factory for incremental snapshot stores seeded from ``small_graph``."""

    def factory(window: int = 4):
        return IncrementalSnapshotStore(small_graph, window=window)

    return factory


@pytest.fixture()
def reference_aggregation():
    """(X + A·X) / (deg + 1) — the first-layer mean aggregation, from scratch."""

    def compute(snapshot):
        adjacency = snapshot.adjacency
        degree = adjacency.row_nnz().astype(np.float32)
        return (snapshot.features + adjacency.matmul_dense(snapshot.features)) / (
            degree + 1.0
        )[:, None]

    return compute
