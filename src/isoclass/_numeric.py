"""Shared numeric helpers: sign convention, exactness checks, Halton points."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Types treated as exact; arithmetic over them stays in rational arithmetic.
EXACT_TYPES = (int, Fraction)


class ValidationError(ValueError):
    """Raised when user-supplied data violates a documented precondition."""


def sign(value) -> int:
    """Sign with the convention sign(0) = +1."""
    return 1 if value >= 0 else -1


def is_exact(value) -> bool:
    return isinstance(value, EXACT_TYPES) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def check_finite(value, what: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")


def finite_array(values, count: int):
    """The ``count`` values as a float array if float() takes each and all are finite, else None.

    On None (also for an int beyond float range) callers run their per-value checks.
    """
    try:
        out = np.fromiter(values, dtype=float, count=count)
    except (OverflowError, TypeError, ValueError):
        return None
    return out if np.isfinite(out).all() else None


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def halton(count: int, dim: int) -> np.ndarray:
    """First ``count`` points of the Halton sequence in [0,1)^dim, as a (count, dim) array.

    Column v holds the radical inverses of 1..count in the v-th prime base.
    Digits are added least significant first, each as digit / base^t, which is
    the scalar van der Corput loop run on all indices at once, so the values
    are bit-identical to it.
    """
    if dim > len(_HALTON_BASES):
        raise ValueError(f"halton supports up to {len(_HALTON_BASES)} dimensions")
    out = np.zeros((count, dim))
    for v, base in enumerate(_HALTON_BASES[:dim]):
        rest, denom = np.arange(1, count + 1), 1.0
        while rest.any():
            rest, digit = np.divmod(rest, base)
            denom *= base
            out[:, v] += digit / denom
    return out
