"""Unified registries the engine resolves specs through.

Four registries cover the whole construction space:

- the **trainer registry** (owned by :mod:`repro.baselines`; re-exposed here)
  maps method names to trainer classes — ``pygt``/``pygt-a``/``pygt-r``/
  ``pygt-g``/``pipad``;
- :data:`MODEL_REGISTRY` and :data:`DATASET_ORDER` are re-exports of the
  existing model/dataset name spaces;
- :data:`DEVICE_REGISTRY` maps a device topology kind to the builder that
  wires a trainer for it: the method's own trainer class on ``single``, and
  :class:`~repro.core.trainer.PiPADTrainer` executing the spec's
  :class:`~repro.core.placement.Placement` on every kind;
- :data:`SERVING_REGISTRY` maps a serving topology kind to the builder that
  wires the online engine (``local`` → one
  :class:`~repro.serving.scheduler.ServingScheduler`; ``sharded`` and
  ``fleet`` → :class:`~repro.distributed.fleet.FleetServingEngine`, built
  from the two :class:`~repro.distributed.fleet.FleetConfig` presets of
  ``ServingSpec.to_fleet_config`` — round-robin replication of full
  replicas, or a node-sharded store with admission control and an elastic
  replica pool).

Every trainer and serving replica consumes the
:class:`~repro.core.datapipe.DataPipeConfig` that ``RunSpec.data``
materializes (``DataSpec.to_pipe_config``).

Every builder takes ``(spec, graph, ...)`` so new topologies plug in by
registration instead of another bespoke construction path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Type, Union

from repro.api.spec import RunSpec
from repro.baselines import _registry as _trainer_registry
from repro.baselines.base import DGNNTrainerBase
from repro.graph.datasets import DATASET_ORDER
from repro.graph.dynamic_graph import DynamicGraph
from repro.nn import MODEL_REGISTRY
from repro.nn.base_model import DGNNModel


def trainer_registry() -> Dict[str, Type[DGNNTrainerBase]]:
    """Method name -> trainer class (the baselines registry, unchanged)."""
    return _trainer_registry()


def list_methods() -> List[str]:
    return sorted(trainer_registry())


# ------------------------------------------------------------------ devices
def _build_device_trainer(spec: RunSpec, graph: DynamicGraph) -> DGNNTrainerBase:
    """The one device builder: PiPAD executes the spec's placement; the
    baselines (single-device only, see ``RunSpec``) take the trainer config."""
    cls = trainer_registry()[spec.method]
    if spec.method != "pipad":
        return cls(graph, spec.trainer_config())
    return cls(
        graph,
        spec.trainer_config(),
        pipad_config=spec.pipad_config(),
        data_config=spec.data.to_pipe_config(),
        memory_config=spec.memory.to_memory_config(),
        placement=spec.device.to_placement(),
    )


@dataclass(frozen=True)
class DeviceKind:
    """One device topology the engine can resolve a spec onto."""

    name: str
    description: str
    build: Callable[[RunSpec, DynamicGraph], DGNNTrainerBase]


DEVICE_REGISTRY: Dict[str, DeviceKind] = {
    "single": DeviceKind(
        "single",
        "one simulated GPU; the method's own trainer class",
        _build_device_trainer,
    ),
    "group": DeviceKind(
        "group",
        "PiPADTrainer, K node shards: halo exchange, all_gather, all_reduce",
        _build_device_trainer,
    ),
    "pipeline": DeviceKind(
        "pipeline",
        "PiPADTrainer, K-stage frame pipeline: p2p state handoff, all_reduce",
        _build_device_trainer,
    ),
}


# ------------------------------------------------------------------ serving
def _serving_scale(spec: RunSpec) -> float:
    """Per-row cost multiplier the serving engines inherit from the spec.

    Only an *explicit* ``cost_scale`` carries over — the dataset-derived
    training default stays a training concern, so specs without the knob
    keep today's serving timings bit-for-bit.
    """
    return float(spec.cost_scale) if spec.cost_scale is not None else 1.0


def _build_local_serving(
    spec: RunSpec, graph: DynamicGraph, model: DGNNModel
) -> "ServingScheduler":  # noqa: F821 - forward ref
    from repro.serving.scheduler import _build_serving_scheduler

    assert spec.serving is not None
    return _build_serving_scheduler(
        graph,
        model,
        spec.serving.to_serving_config(),
        data=spec.data.to_pipe_config(),
        scale=_serving_scale(spec),
        memory=spec.memory.to_memory_config(),
    )


def _build_fleet_serving(
    spec: RunSpec, graph: DynamicGraph, model: DGNNModel
) -> "FleetServingEngine":  # noqa: F821 - forward ref
    from repro.distributed.fleet import build_fleet_serving_engine

    assert spec.serving is not None
    return build_fleet_serving_engine(
        graph,
        model,
        spec.serving.to_fleet_config(),
        spec.serving.to_serving_config(),
        data=spec.data.to_pipe_config(),
        scale=_serving_scale(spec),
        memory=spec.memory.to_memory_config(),
    )


@dataclass(frozen=True)
class ServingKind:
    """One serving topology the engine can resolve a spec onto."""

    name: str
    description: str
    build: Callable[[RunSpec, DynamicGraph, DGNNModel], object]


SERVING_REGISTRY: Dict[str, ServingKind] = {
    "local": ServingKind(
        "local",
        "one ServingScheduler replica on one simulated GPU",
        _build_local_serving,
    ),
    "sharded": ServingKind(
        "sharded",
        "FleetServingEngine, replicated preset: K full replicas, round-robin "
        "routing, fixed pool, no admission limit",
        _build_fleet_serving,
    ),
    "fleet": ServingKind(
        "fleet",
        "FleetServingEngine: node-sharded store, load-aware admission "
        "control, elastic replica pool",
        _build_fleet_serving,
    ),
}


def build_trainer(spec: RunSpec, graph: DynamicGraph) -> DGNNTrainerBase:
    """Resolve a spec's method + device topology into a wired trainer."""
    return DEVICE_REGISTRY[spec.device.kind].build(spec, graph)


def build_serving(
    spec: RunSpec, graph: DynamicGraph, model: DGNNModel
) -> Union["ServingScheduler", "FleetServingEngine"]:  # noqa: F821
    """Resolve a spec's serving section into a wired online engine."""
    if spec.serving is None:
        raise ValueError(
            "spec has no serving section; set RunSpec.serving to build an "
            "online engine"
        )
    return SERVING_REGISTRY[spec.serving.kind].build(spec, graph, model)


__all__ = [
    "DATASET_ORDER",
    "DEVICE_REGISTRY",
    "DeviceKind",
    "MODEL_REGISTRY",
    "SERVING_REGISTRY",
    "ServingKind",
    "build_serving",
    "build_trainer",
    "list_methods",
    "trainer_registry",
]
