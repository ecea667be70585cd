"""Recorded correctness references: per-epoch losses and prediction checksums.

``reference.json`` maps workload -> seed -> the exact per-epoch losses
(``float.hex``) of every training run and the sha256 of every served
prediction.  The gate in ``run.py`` requires bit-identical values for a
recorded seed.  Floating-point results depend on the NumPy build, its BLAS
and the CPU features they dispatch on, so references are only compared on
the platform fingerprint they were recorded on; elsewhere the gate falls
back to the checks that need no reference.

Record (or extend) the references with::

    python3 perfbench/reference.py 0-31 4242
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def platform_detail() -> Dict[str, object]:
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def platform_fingerprint(detail: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(detail, sort_keys=True).encode()).hexdigest()[:16]


def load(path: Path = REFERENCE_PATH) -> dict:
    if not path.exists():
        return {"platform": None, "platform_detail": None, "workloads": {}}
    return json.loads(path.read_text())


def entry_of(outcome) -> dict:
    """The reference entry one execution produces."""
    return {
        "losses": {
            label: [value.hex() for value in losses]
            for label, losses in outcome.losses.items()
        },
        "checksum": outcome.checksum,
    }


def check(reference: dict, workload: str, seed: int, outcome) -> Tuple[str, List[str]]:
    """Compare one execution with its recorded reference.

    Returns ``(status, failures)``; ``status`` says whether the comparison
    ran, and ``failures`` lists every mismatch.
    """
    if reference["platform"] is None:
        return "skipped: no reference recorded", []
    if reference["platform"] != platform_fingerprint(platform_detail()):
        return "skipped: platform differs from the recorded one", []
    expected = reference["workloads"].get(workload, {}).get(str(seed))
    if expected is None:
        return "skipped: no reference for this seed", []
    actual = entry_of(outcome)
    failures = []
    for label, losses in expected["losses"].items():
        if actual["losses"].get(label) != losses:
            failures.append(
                f"{label} losses differ from the reference for seed {seed}: "
                f"{actual['losses'].get(label)} != {losses}"
            )
    if actual["checksum"] != expected["checksum"]:
        failures.append(
            f"prediction checksum {actual['checksum']} != reference {expected['checksum']}"
        )
    return "checked", failures


def _parse_seeds(args: List[str]) -> List[int]:
    seeds: List[int] = []
    for arg in args:
        low, _, high = arg.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: List[str]) -> int:
    from run import pin_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOAD_NAMES, run_once

    reference = load()
    detail = platform_detail()
    if reference["platform"] not in (None, platform_fingerprint(detail)):
        print("error: reference.json was recorded on another platform", file=sys.stderr)
        return 1
    reference["platform"] = platform_fingerprint(detail)
    reference["platform_detail"] = detail
    for seed in _parse_seeds(argv):
        for workload in WORKLOAD_NAMES:
            outcome = run_once(workload, seed)
            if outcome.failures:
                print(f"{workload} seed {seed}: {outcome.failures}", file=sys.stderr)
                return 1
            reference["workloads"].setdefault(workload, {})[str(seed)] = entry_of(outcome)
            partial = REFERENCE_PATH.with_suffix(".partial")
            partial.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            partial.replace(REFERENCE_PATH)
            print(f"recorded {workload} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
