"""Small argument-validation helpers used across the package.

These raise early with precise messages instead of letting NumPy produce a
cryptic broadcast error three layers down.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple, Type

import numpy as np


def known_choices(valid: Iterable[str]) -> str:
    """Sorted, comma-separated names for a "valid choices" error message."""
    return ", ".join(sorted(valid))


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_range(
    name: str, value: float, low: float, high: float, *, inclusive: bool = True
) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high`` (or strict)."""
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not ok:
        op = "<=" if inclusive else "<"
        raise ValueError(f"{name} must satisfy {low} {op} {name} {op} {high}, got {value!r}")


def check_type(name: str, value: Any, types: Type | Tuple[Type, ...]) -> None:
    """Raise ``TypeError`` unless ``value`` is an instance of ``types``."""
    if not isinstance(value, types):
        expect = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise TypeError(f"{name} must be {expect}, got {type(value).__name__}")


def check_array(
    name: str,
    value: Any,
    *,
    ndim: Optional[int] = None,
    dtype_kind: Optional[str] = None,
    shape: Optional[Sequence[Optional[int]]] = None,
) -> np.ndarray:
    """Coerce ``value`` to ``np.ndarray`` and validate its structure.

    Parameters
    ----------
    ndim:
        Required number of dimensions, if any.
    dtype_kind:
        Required NumPy dtype kind string (e.g. ``"f"``, ``"i"``, ``"iu"``
        meaning "any of these kinds").
    shape:
        Expected shape where ``None`` entries are wildcards.
    """
    arr = np.asarray(value)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got ndim={arr.ndim}")
    if dtype_kind is not None and arr.dtype.kind not in dtype_kind:
        raise ValueError(
            f"{name} must have dtype kind in {dtype_kind!r}, got {arr.dtype} (kind {arr.dtype.kind!r})"
        )
    if shape is not None:
        if len(shape) != arr.ndim:
            raise ValueError(f"{name} must have {len(shape)} dims, got {arr.ndim}")
        for axis, expected in enumerate(shape):
            if expected is not None and arr.shape[axis] != expected:
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected {tuple(shape)} (mismatch on axis {axis})"
                )
    return arr
