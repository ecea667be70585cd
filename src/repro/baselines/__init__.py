"""Baseline trainers: PyGT and its incrementally enhanced variants."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.baselines.base import DGNNTrainerBase, TrainerConfig
from repro.baselines.results import EpochMetrics, TrainingResult
from repro.baselines.pygt import (
    PyGTAsyncTrainer,
    PyGTGeSpMMTrainer,
    PyGTReuseTrainer,
    PyGTTrainer,
)


def _registry() -> Dict[str, Type[DGNNTrainerBase]]:
    from repro.core.trainer import PiPADTrainer  # local import to avoid a cycle

    return {
        "pygt": PyGTTrainer,
        "pygt-a": PyGTAsyncTrainer,
        "pygt-r": PyGTReuseTrainer,
        "pygt-g": PyGTGeSpMMTrainer,
        "pipad": PiPADTrainer,
    }


#: method order used in the paper's figures
METHOD_ORDER: List[str] = ["PyGT", "PyGT-A", "PyGT-R", "PyGT-G", "PiPAD"]


def list_methods() -> List[str]:
    """Canonical method names, in figure order."""
    return list(METHOD_ORDER)


__all__ = [
    "DGNNTrainerBase",
    "TrainerConfig",
    "EpochMetrics",
    "TrainingResult",
    "PyGTTrainer",
    "PyGTAsyncTrainer",
    "PyGTReuseTrainer",
    "PyGTGeSpMMTrainer",
    "METHOD_ORDER",
    "list_methods",
]
