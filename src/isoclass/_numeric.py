"""Shared numeric helpers: sign convention, exactness and point checks, exact columns (``parse_column``, ``exact_column``, ``ScaledInts``), Halton points."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, repeat
from operator import add, index, mul

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


# per line: a plain integer, decimal or ratio; the same with its parts as groups; the digits after the point ('' for none)
_COLUMN = re.compile(r"(?:[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?\n)*")
_CELL = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]+)|/([0-9]+))?\n")
_DECIMALS = re.compile(r"(?:\.([0-9]+))?\n")


def common_numerators(numerators, denominators, limit: int):
    """(keys, L): L the lcm of ``denominators``, keys[i] = numerators[i] * (L // denominators[i]), as Python ints.

    The keys are the values numerators[i] / denominators[i] times L, so they
    order and tie exactly as the values do.  None as soon as L (built one
    distinct denominator at a time) reaches ``limit``.
    """
    distinct = set(denominators)
    lcm = 1
    for den in distinct:
        lcm = math.lcm(lcm, den)
        if lcm >= limit:
            return None
    if len(distinct) <= 1:
        return numerators, lcm
    scale = {den: lcm // den for den in distinct}
    return list(map(mul, numerators, map(scale.__getitem__, denominators))), lcm


def parse_column(tokens):
    """A column of tokens as (int64 numerators, denominator): the values times the lcm of their denominators.

    Every token must be spelled ``[+-]digits``, ``[+-]digits.digits`` or
    ``[+-]digits/digits`` (no whitespace), no denominator may be 0, and the
    denominator and every numerator must fit int64.  Otherwise the result is
    None, and the caller parses the column token by token.  Numerator i over
    the denominator equals ``Fraction(tokens[i])``.  A column of integers and
    decimals, or of ratios only, is split by ``str`` methods; a mix of
    decimals and ratios is matched token by token.
    """
    text = "\n".join(tokens) + "\n"
    # the count fails for a token holding a line break
    if not tokens or _COLUMN.fullmatch(text) is None or text.count("\n") != len(tokens):
        return None
    if "/" not in text:
        numerators = text.replace(".", "").split()
        places = list(map(len, _DECIMALS.findall(text)))
        powers = [10**k for k in range(max(places) + 1)]
        denominators = list(map(powers.__getitem__, places))
    elif "." not in text and text.count("/") == len(tokens):
        parts = text.replace("/", "\n").split()
        numerators, denominators = parts[::2], parts[1::2]
        lookup = {den: int(den) for den in set(denominators)}
        denominators = list(map(lookup.__getitem__, denominators))
    else:
        wholes, decimals, ratios = zip(*_CELL.findall(text))
        numerators = list(map(add, wholes, decimals))
        denominators = [int(r) if r else 10 ** len(d) for d, r in zip(decimals, ratios)]
    if 0 in denominators:
        return None
    keyed = common_numerators(list(map(int, numerators)), denominators, 1 << 63)
    if keyed is None:
        return None
    try:
        return np.fromiter(keyed[0], np.int64, len(tokens)), keyed[1]
    except OverflowError:
        return None


def exact_column(tokens):
    """(numerators, denominator): the values of ``tokens`` times the lcm of their denominators, or None if one is no number.

    ``parse_column`` reads the column when it can, else each token is read
    with ``Fraction``.  The numerators are int64 when they and the denominator
    fit int64, else Python ints in an object array.
    """
    parsed = parse_column(tokens)
    if parsed is not None:
        return parsed
    try:
        values = list(map(Fraction, tokens))
    except (ValueError, ZeroDivisionError):
        return None
    numerators, den = common_numerators([v.numerator for v in values], [v.denominator for v in values], math.inf)
    try:
        return np.array(numerators, np.int64 if den < 1 << 63 else object), den
    except OverflowError:
        return np.array(numerators, object), den


class ScaledInts:
    """Rows of exact rationals: an (n, d) matrix of numerators over one positive int denominator per column.

    The numerators are int64, or Python ints in an object array where int64
    cannot hold a column of them.  As a sequence (length, indexing,
    iteration) it holds the rows as tuples of Fractions, built when read.
    ``io`` keeps the numeric columns of files in this form, and
    ``WeightedSample`` keeps such points (and weights, as one column) as they
    are.
    """

    __slots__ = ("numerators", "denominators")

    def __init__(self, numerators: np.ndarray, denominators):
        numerators.flags.writeable = False
        self.numerators, self.denominators = numerators, tuple(denominators)

    @classmethod
    def of_columns(cls, columns) -> "ScaledInts":
        """The rows of (numerators, denominator) column pairs, as ``parse_column`` gives them, one pair per coordinate."""
        return cls(np.stack([numerators for numerators, _ in columns], axis=1), [den for _, den in columns])

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i) -> tuple:
        return tuple(map(Fraction, self.numerators[index(i)].tolist(), self.denominators))

    def __iter__(self):
        return iter(self._rows())

    def _rows(self, rows=None) -> tuple:
        """Rows ``rows`` (an index array; all by default) as a tuple of tuples of Fractions, built column by column."""
        numerators = self.numerators if rows is None else self.numerators[rows]
        columns = [map(Fraction, column, repeat(den)) for column, den in zip(numerators.T.tolist(), self.denominators)]
        return tuple(list(zip(*columns))) if columns else ((),) * len(numerators)

    def _texts(self, rows=None) -> list:
        """Rows ``rows`` (all by default) as lists of the ``str`` of their Fractions, reduced in numpy."""
        numerators = self.numerators if rows is None else self.numerators[rows]
        columns = []
        for column, den in zip(numerators.T, self.denominators):
            common = np.gcd(column, den)
            tops, bottoms = column // common, den // common
            texts = list(map("{}/{}".format, tops.tolist(), bottoms.tolist()))
            # a whole number is written without its denominator 1, as str(Fraction) does
            for i in np.flatnonzero(bottoms == 1).tolist():
                texts[i] = str(tops[i])
            columns.append(texts)
        return list(map(list, zip(*columns)))


def finite_array(values, count: int):
    """The ``count`` values as a float array if float() takes each and all are finite, else None.

    On None (also for an int or a wider numpy float beyond float range) callers
    run their per-value checks.
    """
    try:
        # a longdouble beyond float range casts to inf: the check below rejects it, without a warning
        with np.errstate(over="ignore"):
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
