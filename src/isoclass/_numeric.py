"""Shared numeric helpers: sign convention, exactness checks, the one reader of numbers, Halton points.

Every input is read once, where it enters, into one of two forms: float64
when every value is a float, else exact columns of integer numerators over
one denominator each (``exact_column``).  Point sets are ``Points``, which
hold either form and the tuples a caller gave, if any; only this module
reads which form they hold and which tuples they hand back.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
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
    if type(value) is float:
        return math.isfinite(value)
    return not isinstance(value, (float, np.floating)) or bool(np.isfinite(value))


def check_finite(value, what: str) -> None:
    """Refuse a bool, which is not a number here, and a NaN or infinite float, naming ``what``."""
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if not _is_finite(value):
        raise ValidationError(f"{what} must be finite, got {value!r}")


def check_range(value, what: str, high=math.inf) -> None:
    """``check_finite``, then refuse a value outside [0, ``high``] (``high`` 1 or inf) or one that does not compare as a number."""
    check_finite(value, what)
    try:
        inside = 0 <= value <= high
    except TypeError:
        raise ValidationError(f"{what} must be a number, got {value!r}") from None
    if not inside:
        raise ValidationError(f"{what} must {'lie in [0, 1]' if high == 1 else 'be nonnegative'}, got {value!r}")


def integers(values, what: str) -> tuple:
    """``values`` as Python ints, read by ``operator.index``: a bool, or a number without ``__index__``, is refused."""
    values = tuple(values)
    if any(isinstance(v, bool) or not hasattr(v, "__index__") for v in values):
        raise ValidationError(f"{what} must be integers, got {list(values)!r}")
    return tuple(map(index, values))


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
    """(numerator, denominator) of a number, exactly: floats (numpy floats too) by their integer ratio, ints and Fractions as they are, numpy integers through ``index``, the rest (a number's text too) through ``Fraction``."""
    if isinstance(value, (float, np.floating)):
        return value.as_integer_ratio()
    if type(value) not in (int, Fraction):
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


def summable(weights) -> np.ndarray:
    """Integer ``weights`` (a list, an int64 or an object array) as an array to sum.

    int64 when n * max|w| < 2**63, which bounds every partial sum, else the
    same ints as Python objects; an object array stays one.
    """
    if not (isinstance(weights, np.ndarray) and weights.dtype == object):
        try:
            w = np.asarray(weights, dtype=np.int64)
            if not len(w) or len(w) * max(int(w.max()), -int(w.min())) < 1 << 63:
                return w
        except OverflowError:
            pass
    return np.asarray(weights, dtype=object)


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


def _cell(value):
    """A given exact coordinate as ``Points.texts`` writes it."""
    if isinstance(value, (np.integer, np.float16, np.float32, np.float64)):
        return value.item()
    return value if type(value) in (int, float) else str(Fraction(*_ratio(value)))


class Points:
    """Rows of numbers in their one form: an (n, d) matrix ``values``, read-only, and the tuples given for them.

    ``values`` is float64 when ``denominators`` is None, else ``exact_column``
    numerators over one denominator per column.  ``given`` is the caller's
    tuples, handed back as they are, or None when the rows came as an array
    or as columns.  Only this module reads the form; the methods give the
    points in the form a caller needs.
    """

    __slots__ = ("values", "denominators", "given")

    def __init__(self, values: np.ndarray, denominators=None, given=None):
        values.flags.writeable = False
        self.values, self.denominators, self.given = values, None if denominators is None else tuple(denominators), given

    @classmethod
    def of_columns(cls, columns, given=None) -> "Points":
        """The rows of ``read_column`` columns, one per coordinate: float64 if every column is, else exact (floats exactly)."""
        if all(type(column) is np.ndarray for column in columns):
            return cls(np.stack(columns, axis=1), given=given)
        pairs = [c if type(c) is tuple else exact_column(c.tolist(), WIDE) for c in columns]
        return cls(np.stack([numerators for numerators, _ in pairs], axis=1), [den for _, den in pairs], given)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def take(self, index: np.ndarray) -> "Points":
        """Rows ``index`` (an index array) as ``Points`` of their own, with their given tuples."""
        return Points(self.values[index], self.denominators, None if self.given is None else self.rows(index))

    def rows(self, index=None) -> tuple:
        """Rows ``index`` (an index array; all by default): the tuples given, else tuples of Python floats or Fractions."""
        if self.given is not None:
            return self.given if index is None else tuple(map(self.given.__getitem__, index.tolist()))
        values = self.values if index is None else self.values[index]
        columns = values.T.tolist()
        if self.denominators is not None:
            columns = [map(Fraction, column, repeat(den)) for column, den in zip(columns, self.denominators)]
        return tuple(list(zip(*columns))) if columns else ((),) * len(values)

    def texts(self, index=None) -> list:
        """Rows ``index`` (all by default) as lists of cells that json writes exactly.

        Float rows hold only Python floats.  Given exact rows keep each int
        and float, write numpy's ints as ``int`` and float16/32/64 as
        ``float``, and any other number (a Fraction too) as the ``str`` of
        its exact Fraction.  Exact rows that were not given are written from
        their int64 numerators, reduced in numpy, as ``str(Fraction)`` writes
        them.
        """
        if self.denominators is None:
            return list(map(list, self.rows(index)))
        if self.given is not None:
            return [list(map(_cell, p)) for p in self.rows(index)]
        values = self.values if index is None else self.values[index]
        columns = []
        for column, den in zip(values.T, self.denominators):
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

    def floats(self) -> np.ndarray:
        """The points as float64, exact ones correctly rounded (beyond float range a ValidationError); read-only for float points."""
        if self.denominators is None:
            return self.values
        columns = list(map(exact_floats, self.values.T, self.denominators))
        if any(column is None for column in columns):
            # named from the numbers, not from given tuples, which may hold their texts
            raise beyond_float_range("coordinate", chain.from_iterable(Points(self.values, self.denominators).rows()))
        return np.stack(columns, axis=1) if columns else np.zeros((len(self), 0))

    def exact_columns(self, index=None) -> list:
        """The columns of rows ``index`` (all by default) as exact (numerators, denominator) pairs, floats exactly."""
        values = self.values if index is None else self.values[index]
        if self.denominators is None:
            return [exact_column(column) for column in values.T.tolist()]
        return list(zip(values.T, self.denominators))

    def rescaled(self) -> tuple:
        """(unit, (mins, maxs)): the columns min-max mapped into [0, 1] as float64 (a constant one to 0.5), and their bounds.

        The bounds are Python numbers, the first of equal ones as ``min`` and
        ``max`` give them.  Each (v - lo) / (hi - lo) is rounded once, as
        Python computes it: exact numerator differences over their span, or
        numpy's IEEE float operations (an overflow gives inf or NaN, as Python's do).
        """
        unit, mins, maxs = [], [], []
        for v, column in enumerate(self.values.T):
            values = column.tolist()
            lo, hi = min(values), max(values)
            if hi == lo:
                unit.append(np.full(len(column), 0.5))
            elif self.denominators is None:
                with np.errstate(over="ignore", invalid="ignore"):
                    unit.append((column - lo) / (hi - lo))
            else:
                # int64 holds the differences when it holds the span
                unit.append(exact_floats((column if hi - lo < 1 << 63 else column.astype(object)) - lo, hi - lo))
                lo, hi = Fraction(lo, self.denominators[v]), Fraction(hi, self.denominators[v])
            mins.append(lo)
            maxs.append(hi)
        return np.stack(unit, axis=1), (mins, maxs)


def beyond_float_range(what: str, values) -> ValidationError:
    """The error naming the first of ``values`` beyond float range, by its first digits (it has over 300)."""
    bad = next(v for v in values if abs(v) > sys.float_info.max)
    return ValidationError(f"{what} {str(bad)[:20]}... is beyond float range")


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
    most 8, or Python floats), else an ``exact_column`` pair.  A bool (a
    ``np.bool_`` too, as a bool array holds) is not a number: the first one
    is refused with a ValidationError naming its row.
    """
    if isinstance(values, Points):
        column = values.values[:, 0]
        return column if values.denominators is None else (column, values.denominators[0])
    kind = values.dtype.kind if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.itemsize <= 8 else None
    if kind == "i" or kind == "u" and values.max(initial=0) < 1 << 63:
        return values.astype(np.int64), 1
    if kind != "f":
        values = list(values)
        types = set(map(type, values))
        if {bool, np.bool_} & types:
            i = next(i for i, v in enumerate(values) if isinstance(v, (bool, np.bool_)))
            raise ValidationError(f"row {i}: a bool is not a number, got {values[i]!r}")
        if not (values and types <= {float}):
            # only a float (numpy's too) can be other than finite
            floats = any(issubclass(t, (float, np.floating)) for t in types)
            return None if floats and not all(map(_is_finite, values)) else exact_column(values, limit)
    values = np.array(values, dtype=np.float64)
    return values if np.isfinite(values).all() else None


def read_points(points, noun: str) -> Points:
    """``points`` checked to share one dimension and to have finite coordinates, as ``Points``.

    ``Points`` are float64 when every coordinate is a float, else exact
    (denominators bounded by ``WIDE``).  Points given as a sequence keep
    their tuples (``Points.given``), which ``rows`` hands back; a float array
    is kept only in its form, any other array as tuples of its numpy
    scalars, and ``Points`` are taken as they are.  Nonempty points of
    dimension 0 are refused; no points are a (0, 0) batch, whatever their width.
    """
    if isinstance(points, Points):
        return points
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
        return Points(np.zeros((0, 0), dtype=np.int64), (), rows)
    if not len(columns):
        raise ValidationError(f"{noun}s must have at least one coordinate")
    if rows is None and np.isfinite(points).all():
        return Points(points.astype(np.float64))
    columns = [read_column(column, WIDE) for column in columns]
    if any(column is None for column in columns):
        for i, p in enumerate(points.tolist() if rows is None else rows):
            for v in p:
                check_finite(v, f"covariate of {noun} {i}")
    return Points.of_columns(columns, rows)


def joint_ranks(a: Points, rows, b: Points) -> np.ndarray:
    """Dense ranks of each coordinate over rows ``rows`` of ``a`` followed by all of ``b``, as an (m + n, d) int64 matrix.

    Two float point sets are ranked as floats; otherwise each pair of columns
    is ranked as exact numerators over their common denominator.
    """
    if a.denominators is None and b.denominators is None:
        pairs = zip(a.values[rows].T, b.values.T)
    else:
        pairs = []
        for (x, x_den), (y, y_den) in zip(a.exact_columns(rows), b.exact_columns()):
            factors, _ = common_numerators([1, 1], [x_den, y_den], math.inf)
            pairs.append((scaled(x, factors[0]), scaled(y, factors[1])))
    return np.stack([np.unique(np.concatenate(pair), return_inverse=True)[1] for pair in pairs], axis=1)


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
