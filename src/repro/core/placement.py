"""Where PiPAD's partitions run: the device placement of one training run.

A :class:`Placement` is the value :class:`~repro.core.trainer.PiPADTrainer`
executes (its module docstring describes the three schedules), and
``RunSpec.device`` (:class:`~repro.api.spec.DeviceSpec`) is its
serializable form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.gpu.interconnect import LINK_KINDS
from repro.graph.partition import PARTITION_MODES, SCHEDULE_MODES
from repro.utils.validation import check_positive, known_choices

#: peer-link models understood by :class:`~repro.gpu.interconnect.Interconnect`
INTERCONNECT_KINDS: Tuple[str, ...] = tuple(LINK_KINDS)

#: placement kind -> ``TrainingResult.method`` label
METHOD_NAMES: Dict[str, str] = {
    "single": "PiPAD",
    "group": "PiPAD-DP",
    "pipeline": "PiPAD-PP",
}

#: placement kinds (the keys of ``DEVICE_REGISTRY``)
PLACEMENT_KINDS: Tuple[str, ...] = tuple(METHOD_NAMES)


@dataclass(frozen=True)
class Placement:
    """Device topology and schedule of one PiPAD run."""

    #: ``"single"`` (one simulated GPU), ``"group"`` (node-sharded device
    #: group) or ``"pipeline"`` (snapshot groups pipelined across devices)
    kind: str = "single"
    #: number of devices in the group/pipeline (must be 1 for ``"single"``)
    num_devices: int = 1
    #: peer-link model between devices (``"nvlink"`` or ``"pcie"``)
    interconnect: str = "nvlink"
    #: node-assignment strategy of the partitioner (``"edges"`` or
    #: ``"nodes"``; only read by kind ``"group"``)
    partition_mode: str = "edges"
    #: stage-assignment strategy of the frame partitioner (``"round_robin"``
    #: or ``"blocked"``; only read by kind ``"pipeline"``)
    schedule: str = "round_robin"

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ValueError(
                f"unknown device kind {self.kind!r}; valid kinds: "
                f"{known_choices(PLACEMENT_KINDS)}"
            )
        check_positive("num_devices", self.num_devices)
        if self.kind == "single" and self.num_devices != 1:
            raise ValueError(
                f"device kind 'single' requires num_devices=1, got {self.num_devices}; "
                "use kind='group' or kind='pipeline' for multi-device runs"
            )
        # 'group' and 'pipeline' allow num_devices=1: a one-device run is the
        # reference of scaling sweeps (same schedule, no collectives).
        if self.interconnect not in INTERCONNECT_KINDS:
            raise ValueError(
                f"unknown interconnect {self.interconnect!r}; valid kinds: "
                f"{known_choices(INTERCONNECT_KINDS)}"
            )
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition_mode {self.partition_mode!r}; valid modes: "
                f"{known_choices(PARTITION_MODES)}"
            )
        if self.schedule not in SCHEDULE_MODES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; valid schedules: "
                f"{known_choices(SCHEDULE_MODES)}"
            )

    @property
    def method_name(self) -> str:
        return METHOD_NAMES[self.kind]
