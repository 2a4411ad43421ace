"""Shared numeric helpers: sign convention, exactness and point checks, exact parsing, Halton points."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain

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
    # numpy floats (longdouble too) by numpy: math.isfinite would round a longdouble to a float first
    if isinstance(value, float) and not math.isfinite(value) or isinstance(value, np.floating) and not np.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")


_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]+)|/([0-9]+))?")


def parse_exact(token: str) -> Fraction:
    """``Fraction(token)``, with plain integers, decimals and ratios built from two ints.

    A token spelled ``[+-]digits``, ``[+-]digits.digits`` or
    ``[+-]digits/digits`` becomes ``Fraction(int, int)``; any other token
    (exponents, underscores, whitespace, non-ASCII digits, errors) is left to
    ``Fraction(token)``.  The value, the type and the exception raised are
    those of ``Fraction(token)``.
    """
    match = _PLAIN_RATIONAL.fullmatch(token)
    if match is None:
        return Fraction(token)
    whole, decimals, denominator = match.groups()
    if decimals is not None:
        return Fraction(int(whole + decimals), 10 ** len(decimals))
    return Fraction(int(whole), 1 if denominator is None else int(denominator))


def finite_array(values, count: int):
    """The ``count`` values as a float array if float() takes each and all are finite, else None.

    On None (also for an int beyond float range) callers run their per-value checks.
    """
    try:
        out = np.fromiter(values, dtype=float, count=count)
    except (OverflowError, TypeError, ValueError):
        return None
    return out if np.isfinite(out).all() else None


def validated_points(points, noun: str) -> tuple:
    """``points`` checked to share one dimension and to have finite coordinates: (rows, matrix).

    A float array (itemsize at most 8) is checked in numpy, with the messages
    of the sequence path, and gives (None, its read-only float64 copy), or
    ((), None) when empty.  Other points become a tuple of tuples, checked in
    one ``finite_array`` pass (a loop then names the first non-finite float;
    values that float() rejects or puts out of range are left to the caller),
    whose array is the read-only matrix if every coordinate is a Python
    float, so that it orders and ties as they do, else None.
    """
    if isinstance(points, np.ndarray) and points.dtype.kind == "f" and points.dtype.itemsize <= 8:
        if points.ndim != 2:
            raise ValidationError(f"an array of {noun}s must have shape (n, d), got {points.shape}")
        matrix = points.astype(np.float64)
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            for v in matrix[i].tolist():
                check_finite(v, f"covariate of {noun} {i}")
        matrix.flags.writeable = False
        return (None, matrix) if len(matrix) else ((), None)
    # built through a list: a tuple grown in place is traversed by every GC pass while it grows
    points = tuple(list(map(tuple, points)))
    dims = set(map(len, points))
    if len(dims) > 1:
        raise ValidationError(f"{noun}s have mixed dimensions: {sorted(dims)}")
    if not points:
        return points, None
    floats = finite_array(chain.from_iterable(points), len(points) * len(points[0]))
    if floats is None:
        for i, p in enumerate(points):
            for v in p:
                check_finite(v, f"covariate of {noun} {i}")
    elif set(map(type, chain.from_iterable(points))) <= {float}:
        floats = floats.reshape(len(points), -1)
        floats.flags.writeable = False
        return points, floats
    return points, None


def matrix_rows(matrix: np.ndarray) -> tuple:
    """The rows of a float matrix as a tuple of tuples of Python floats, built from its columns through a list."""
    return tuple(list(zip(*matrix.T.tolist()))) if matrix.shape[1] else ((),) * len(matrix)


def check_points(points, noun: str) -> tuple:
    """The checked rows of ``validated_points``, built from its matrix when it kept none."""
    rows, matrix = validated_points(points, noun)
    return matrix_rows(matrix) if rows is None else rows


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
