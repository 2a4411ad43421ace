"""Shared numeric helpers: sign convention, exactness checks, the one reader of numbers, Halton points.

Every input is read once, where it enters, into one of two forms: float64
when every value is a float, else exact columns of integer numerators over
one denominator each (``exact_column``, ``ScaledInts``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import repeat
from operator import add, index, mul

import numpy as np


class ValidationError(ValueError):
    """Raised when user-supplied data violates a documented precondition."""


def sign(value) -> int:
    """Sign with the convention sign(0) = +1."""
    return 1 if value >= 0 else -1


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def _is_finite(value) -> bool:
    """False for a NaN or infinite float (numpy floats, longdouble too, checked by numpy); True for anything else."""
    return not isinstance(value, (float, np.floating)) or bool(np.isfinite(value))


def check_finite(value, what: str) -> None:
    if not _is_finite(value):
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


#: A coordinate column whose common denominator reaches this keeps its values, as Fractions over 1.
WIDE = 1 << 128


def _ratio(value) -> tuple:
    """(numerator, denominator) of a number, exactly: floats (numpy floats too) by their integer ratio, numpy integers through ``index``, the rest (a number's text too) through ``Fraction``."""
    if isinstance(value, (float, np.floating)):
        return value.as_integer_ratio()
    value = Fraction(index(value) if isinstance(value, np.integer) else value)
    return value.numerator, value.denominator


def exact_column(values, limit=math.inf) -> tuple:
    """(numerators, denominator): the finite numbers ``values`` (strings as ``Fraction(token)``) times the lcm of their denominators.

    The numerators are int64 when they and the denominator fit it, else
    Python ints; once the lcm reaches ``limit``, the values as Fractions over 1.
    """
    values = list(values)
    if values and set(map(type, values)) == {str}:
        parsed = parse_column(values)
        if parsed is not None:
            return parsed
        values = list(map(Fraction, values))
    numerators, denominators = zip(*map(_ratio, values)) if values else ((), ())
    keyed = common_numerators(numerators, denominators, limit)
    if keyed is None:
        return np.array(list(map(Fraction, numerators, denominators)), dtype=object), 1
    numerators, den = keyed
    try:
        return np.array(numerators, np.int64 if den < 1 << 63 else object), den
    except OverflowError:
        return np.array(numerators, object), den


def scaled(numerators: np.ndarray, factors) -> np.ndarray:
    """``numerators * factors`` (an int, or an array of them) exactly: in int64 when |numerator| * max(factors) < 2**63 bounds every product, else as Python ints."""
    factors = np.asarray(factors)
    bound = max(-int(numerators.min(initial=0)), int(numerators.max(initial=0))) * int(factors.max(initial=1))
    fits = numerators.dtype == np.int64 and bound < 1 << 63
    return numerators.astype(np.int64 if fits else object) * factors.astype(np.int64 if fits else object)


def exact_floats(numerators: np.ndarray, den: int):
    """numerators / den correctly rounded, as ``float(Fraction)`` is, or None if one is beyond float range.

    In numpy where float64 holds numerator and denominator exactly, else by
    Python int true division (numpy's int64 / int is not correctly rounded).
    """
    if numerators.dtype == np.int64 and den <= 1 << 53 and max(-int(numerators.min(initial=0)), int(numerators.max(initial=0))) <= 1 << 53:
        return numerators / den
    try:
        return np.array([float(v / den) for v in numerators.tolist()], dtype=float)
    except OverflowError:
        return None


class ScaledInts:
    """Rows of exact rationals: an (n, d) matrix of ``exact_column`` numerators over one denominator per column.

    As a sequence it holds the rows as tuples of Fractions, built when read.
    """

    __slots__ = ("numerators", "denominators")

    def __init__(self, numerators: np.ndarray, denominators):
        numerators.flags.writeable = False
        self.numerators, self.denominators = numerators, tuple(denominators)

    @classmethod
    def of_columns(cls, columns) -> "ScaledInts":
        """The rows of (numerators, denominator) column pairs, as ``exact_column`` gives them, one pair per coordinate."""
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
        """Rows ``rows`` (all by default) as lists of the ``str`` of their Fractions, int64 columns reduced in numpy."""
        numerators = self.numerators if rows is None else self.numerators[rows]
        columns = []
        for column, den in zip(numerators.T, self.denominators):
            if column.dtype == object:
                columns.append([str(Fraction(v, den)) for v in column.tolist()])
                continue
            common = np.gcd(column, den)
            tops, bottoms = column // common, den // common
            texts = list(map("{}/{}".format, tops.tolist(), bottoms.tolist()))
            # a whole number is written without its denominator 1, as str(Fraction) does
            for i in np.flatnonzero(bottoms == 1).tolist():
                texts[i] = str(tops[i])
            columns.append(texts)
        return list(map(list, zip(*columns)))


def finite_array(values, count: int):
    """The ``count`` values as a float array if float() takes each and all are finite, else None."""
    try:
        # a longdouble beyond float range casts to inf: the check below rejects it, without a warning
        with np.errstate(over="ignore"):
            out = np.fromiter(values, dtype=float, count=count)
    except (OverflowError, TypeError, ValueError):
        return None
    return out if np.isfinite(out).all() else None


def read_column(values, limit=math.inf):
    """The one form of a column of numbers, or None if one is not finite (the caller names it).

    That is float64 when every value is a float (a float array of itemsize at
    most 8, or Python floats), else an ``exact_column`` pair.
    """
    if isinstance(values, ScaledInts):
        return values.numerators[:, 0], values.denominators[0]
    kind = values.dtype.kind if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.itemsize <= 8 else None
    if kind in ("b", "i") or kind == "u" and values.max(initial=0) < 1 << 63:
        return values.astype(np.int64), 1
    if kind != "f":
        values = list(values)
        types = set(map(type, values))
        if not (values and types <= {float}):
            # only a float (numpy's too) can be other than finite
            floats = any(issubclass(t, (float, np.floating)) for t in types)
            return None if floats and not all(map(_is_finite, values)) else exact_column(values, limit)
    values = np.array(values, dtype=np.float64)
    return values if np.isfinite(values).all() else None


def read_points(points, noun: str) -> tuple:
    """``points`` checked to share one dimension and to have finite coordinates, as (rows, form).

    ``form``: a read-only float64 (n, d) matrix when every coordinate is a
    float, else ``ScaledInts`` (denominators bounded by ``WIDE``).  ``rows``:
    the tuples given, kept to be read back; None for an array or ``ScaledInts``.
    """
    if isinstance(points, ScaledInts):
        return None, points
    if isinstance(points, np.ndarray) and points.dtype.kind == "f" and points.dtype.itemsize <= 8:
        if points.ndim != 2:
            raise ValidationError(f"an array of {noun}s must have shape (n, d), got {points.shape}")
        rows, columns = None, points.T
    else:
        # built through a list: a tuple grown in place is traversed by every GC pass while it grows
        rows = tuple(list(map(tuple, points)))
        dims = set(map(len, rows))
        if len(dims) > 1:
            raise ValidationError(f"{noun}s have mixed dimensions: {sorted(dims)}")
        columns = list(zip(*rows))
    if not (len(points) if rows is None else rows):
        return (), ScaledInts(np.zeros((0, 0), dtype=np.int64), ())
    if rows is None and np.isfinite(points).all():
        matrix = points.astype(np.float64)
        matrix.flags.writeable = False
        return None, matrix
    columns = [read_column(column, WIDE) for column in columns]
    if any(column is None for column in columns):
        for i, p in enumerate(points.tolist() if rows is None else rows):
            for v in p:
                check_finite(v, f"covariate of {noun} {i}")
    if all(type(column) is np.ndarray for column in columns):
        matrix = np.stack(columns, axis=1) if columns else np.zeros((len(points), 0))
        matrix.flags.writeable = False
        return rows, matrix
    return rows, ScaledInts.of_columns([c if type(c) is tuple else exact_column(c.tolist(), WIDE) for c in columns])


def form_rows(form, rows=None, kept=None) -> tuple:
    """Rows ``rows`` (an index array; all by default) of a ``read_points`` form as tuples: of the tuples ``kept`` if given, else of Python floats or Fractions."""
    if kept is not None:
        return kept if rows is None else tuple(map(kept.__getitem__, rows.tolist()))
    if isinstance(form, ScaledInts):
        return form._rows(rows)
    matrix = form if rows is None else form[rows]
    return tuple(list(zip(*matrix.T.tolist()))) if matrix.shape[1] else ((),) * len(matrix)


def exact_columns(form, rows=None) -> list:
    """The columns of rows ``rows`` (all by default) of a ``read_points`` form as exact (numerators, denominator) pairs, floats exactly."""
    if isinstance(form, ScaledInts):
        numerators = form.numerators if rows is None else form.numerators[rows]
        return list(zip(numerators.T, form.denominators))
    return [exact_column(column) for column in (form if rows is None else form[rows]).T.tolist()]


def check_points(points, noun: str) -> tuple:
    """The checked rows of ``read_points``, built from its form when it kept none."""
    rows, form = read_points(points, noun)
    return form_rows(form) if rows is None else rows


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
