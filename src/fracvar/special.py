"""Gamma function on the positive real axis: math.gamma behind the
domain checks the operator builders rely on."""

from __future__ import annotations

import math

__all__ = ["gamma"]


def gamma(z: float) -> float:
    """Gamma(z) for real z > 0.

    Raises ValueError for z <= 0 or non-finite z; negative arguments are
    out of scope here (orders live in (0, 1) and power-rule exponents are
    nonnegative, so the reflection formula is never needed).
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"gamma: argument must be finite, got {z!r}")
    if z <= 0.0:
        raise ValueError(f"gamma: argument must be positive, got {z!r}")
    return math.gamma(z)
