"""Shared numeric helpers: sign convention, exactness checks, 1-d minimization."""

from __future__ import annotations

import math
from fractions import Fraction

#: Types treated as exact; arithmetic over them stays in rational arithmetic.
EXACT_TYPES = (int, Fraction)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def golden_min(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Minimum value of a unimodal ``fn`` on [lo, hi] by golden-section search.

    Returns the minimal function value (not the argmin); ``tol`` bounds the
    bracket width on the argument.
    """
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return min(fc, fd, fn(a), fn(b))


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def _van_der_corput(i: int, base: int) -> float:
    x, denom = 0.0, 1.0
    while i > 0:
        i, rem = divmod(i, base)
        denom *= base
        x += rem / denom
    return x


def halton(count: int, dim: int):
    """First ``count`` points of the Halton sequence in [0,1)^dim (list of tuples)."""
    if dim > len(_HALTON_BASES):
        raise ValueError(f"halton supports up to {len(_HALTON_BASES)} dimensions")
    bases = _HALTON_BASES[:dim]
    return [tuple(_van_der_corput(i + 1, b) for b in bases) for i in range(count)]

