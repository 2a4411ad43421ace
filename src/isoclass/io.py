"""CSV ingestion, model persistence, atomic file writes.

Supported tabular schemas (header row required):

* plain:    ``y,x1,...,xd``           -- unit weights
* weighted: ``w,y,x1,...,xd``
* trial:    ``z,d,x1,...,xd[,e]``     -- propensity column optional if a
                                         constant is supplied
* dist:     ``mass,eta,x1,...,xd[,wplus,wminus]``
* points:   ``x1,...,xd``

In rational mode (the default) every number parses exactly as a Fraction.
Samples, trials and points take the column path first: each column is
parsed in one pass (``_numeric.parse_column``) into int64 numerators over
the lcm of its denominators, kept as ``ScaledInts`` (``TrialColumns`` for
trials), and Fractions are built only when read.  A file takes it when
every token is a plain integer, decimal or ratio (``[+-]digits``,
``[+-]digits.digits``, ``[+-]digits/digits``, no whitespace), no
denominator is 0, each column's common denominator and numerators fit
int64, and every label, weight and propensity passes its check.  Otherwise
the whole file is read token by token as before (``_numeric.parse_exact``:
those spellings as two ints, anything else as ``Fraction(token)``), which
also names the first bad cell in row order.  Model files read their
support through the same column parser.  Float mode parses binary64.
Models are stored as JSON and written atomically (temp file + rename) so
failed runs leave nothing partial behind.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

import numpy as np

from ._numeric import ScaledInts, ValidationError, check_finite, is_exact, parse_column, parse_exact
from .bernstein import BernsteinClassifier
from .monotone import MonotoneClassifier
from .policy import TrialColumns, TrialRecord
from .risks import DiscreteDistribution, WeightedSample


def parse_number(token: str, where: str, rational: bool):
    """``token`` as an exact Fraction, or as a finite float when not ``rational``; errors name ``where``."""
    token = token.strip()
    try:
        if rational:
            return parse_exact(token)
        value = float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: cannot parse number {token!r}") from exc
    check_finite(value, where)
    return value


def _parse_label(token: str, where: str) -> int:
    value = parse_number(token, where, rational=True)
    if value == 1:
        return 1
    if value == -1:
        return -1
    raise ValidationError(f"{where}: label must be -1 or +1, got {token!r}")


def _read_rows(path: str, expect_prefix, schema: str):
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip().lower() for h in header]
        prefix = list(expect_prefix)
        if header[: len(prefix)] != prefix:
            raise ValidationError(
                f"{path}: header {header} does not match the {schema} schema "
                f"(expected it to start with {prefix})"
            )
        # blank rows are skipped; a first cell that is not blank spares testing the others
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row and (row[0].strip() or any(map(str.strip, row)))]
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValidationError(f"{path}, line {lineno}: expected {len(header)} fields, got {len(row)}")
    return header, rows


def _located(path: str, rows):
    """(where, row) for each of ``rows``, where naming the file and line in error messages."""
    return ((f"{path}, line {lineno}", row) for lineno, row in rows)


def _exact_columns(rows):
    """Every column of ``rows`` (from ``_read_rows``) as a ``parse_column`` pair, or None if one falls back or none are read."""
    columns = []
    for column in zip(*(row for _, row in rows)):
        parsed = parse_column(column)
        if parsed is None:
            return None
        columns.append(parsed)
    return columns or None


def _exact_labels(column):
    """A parsed label column as an int64 array of -1/+1, or None if some value is neither."""
    numerators, den = column
    return numerators // den if (np.abs(numerators) == den).all() else None


def load_sample(path: str, schema: str = "plain", rational: bool = True):
    """Load a classification sample in the plain or weighted schema (points and weights as ``ScaledInts`` on the column path)."""
    if schema not in ("plain", "weighted"):
        raise ValidationError(f"unknown sample schema {schema!r}")
    prefix = ["y"] if schema == "plain" else ["w", "y"]
    header, rows = _read_rows(path, prefix, schema)
    d = len(header) - len(prefix)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    if rational and (columns := _exact_columns(rows)) is not None:
        labels = _exact_labels(columns[len(prefix) - 1])
        if labels is not None and (schema == "plain" or (columns[0][0] >= 0).all()):
            weights = np.ones(len(rows), np.int64) if schema == "plain" else ScaledInts.of_columns(columns[:1])
            return WeightedSample(weights, labels, ScaledInts.of_columns(columns[len(prefix) :]))
    weights, labels, points = [], [], []
    for where, row in _located(path, rows):
        cursor = 0
        if schema == "weighted":
            w = parse_number(row[0], where, rational)
            if w < 0:
                raise ValidationError(f"{where}: negative weight {row[0]!r}")
            weights.append(w)
            cursor = 1
        else:
            weights.append(1)
        labels.append(_parse_label(row[cursor], where))
        points.append(tuple(parse_number(t, where, rational) for t in row[cursor + 1 :]))
    return WeightedSample(tuple(weights), tuple(labels), tuple(points))


def load_trials(path: str, rational: bool = True, propensity=None):
    """Load trial records, as a list or as ``TrialColumns``; ``propensity`` supplies a constant if no e column."""
    header, rows = _read_rows(path, ["z", "d"], "trial")
    has_e = header[-1] == "e"
    d = len(header) - 2 - (1 if has_e else 0)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    if not has_e and propensity is None:
        raise ValidationError(
            f"{path}: no e column; supply a constant propensity (e.g. --propensity 0.5)"
        )
    if rational and (columns := _exact_columns(rows)) is not None:
        trials = _trial_columns(columns, d, propensity)
        if trials is not None:
            return trials
    records = []
    for where, row in _located(path, rows):
        z = parse_number(row[0], where, rational)
        treat = _parse_label(row[1], where)
        xs = tuple(parse_number(t, where, rational) for t in row[2 : 2 + d])
        e = parse_number(row[-1], where, rational) if has_e else propensity
        try:
            records.append(TrialRecord(z, treat, xs, e))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return records


def _trial_columns(columns, d: int, propensity):
    """``TrialColumns`` of parsed columns z, d, x1..xd[, e], or None if a value fails the ``TrialRecord`` checks."""
    treat = _exact_labels(columns[1])
    if len(columns) > 2 + d:
        e = columns[-1]
    elif is_exact(propensity) and 0 < propensity.numerator < propensity.denominator < 1 << 63:
        e = (np.full(len(columns[0][0]), propensity.numerator, np.int64), propensity.denominator)
    else:
        return None
    if treat is None or not ((e[0] > 0) & (e[0] < e[1])).all():
        return None
    return TrialColumns(columns[0], treat, ScaledInts.of_columns(columns[2 : 2 + d]), e)


def load_distribution(path: str, rational: bool = True) -> DiscreteDistribution:
    """Load a finite distribution: mass,eta,x1..xd with optional wplus,wminus."""
    header, rows = _read_rows(path, ["mass", "eta"], "dist")
    has_w = header[-2:] == ["wplus", "wminus"]
    d = len(header) - 2 - (2 if has_w else 0)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    mass, eta, points, wp, wm = [], [], [], [], []
    for where, row in _located(path, rows):
        mass.append(parse_number(row[0], where, rational))
        eta.append(parse_number(row[1], where, rational))
        points.append(tuple(parse_number(t, where, rational) for t in row[2 : 2 + d]))
        if has_w:
            wp.append(parse_number(row[-2], where, rational))
            wm.append(parse_number(row[-1], where, rational))
    return DiscreteDistribution(
        tuple(points),
        tuple(mass),
        tuple(eta),
        tuple(wp) if has_w else None,
        tuple(wm) if has_w else None,
    )


def load_points(path: str, rational: bool = True):
    """Load bare covariate rows: x1,...,xd, as a list of tuples or as ``ScaledInts``."""
    header, rows = _read_rows(path, ["x1"], "points")
    if rational and (columns := _exact_columns(rows)) is not None:
        return ScaledInts.of_columns(columns)
    return [tuple(parse_number(t, where, rational) for t in row) for where, row in _located(path, rows)]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".isoclass-", suffix=".tmp")
    except OSError as exc:
        raise ValidationError(f"cannot write to {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(path: str, model, compact: bool = False) -> None:
    if isinstance(model, MonotoneClassifier):
        payload = model.to_compact_dict() if compact else model.to_dict()
    elif isinstance(model, BernsteinClassifier):
        payload = model.to_dict()
    else:
        raise ValidationError(f"cannot serialize model of type {type(model)!r}")
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: model file is not a JSON object")
    kind = payload.get("type")
    try:
        if kind == "monotone":
            return MonotoneClassifier.from_dict(payload)
        if kind == "bernstein":
            return BernsteinClassifier.from_dict(payload)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"{path}: malformed {kind} model ({type(exc).__name__}: {exc})") from exc
    raise ValidationError(f"{path}: unknown model type {kind!r}")


def write_csv(path: str, header, rows) -> None:
    """Header and rows as CSV text, each cell written with ``str`` (a float's shortest round-trip form)."""
    lines = [",".join(map(str, header))]
    for row in rows:
        lines.append(",".join(map(str, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")
