"""CSV ingestion, model persistence, atomic file writes.

Supported tabular schemas (header row required):

* plain:    ``y,x1,...,xd``           -- unit weights
* weighted: ``w,y,x1,...,xd``
* trial:    ``z,d,x1,...,xd[,e]``     -- propensity column optional if a
                                         constant is supplied
* dist:     ``mass,eta,x1,...,xd[,wplus,wminus]``
* points:   ``x1,...,xd``

In rational mode (the default) every number is exact.  Each column of a
file is read once, by ``_numeric.exact_column``: by ``parse_column`` when
every token is a plain integer, decimal or ratio (``[+-]digits``,
``[+-]digits.digits``, ``[+-]digits/digits``, no whitespace) and the column
fits int64, else token by token with ``Fraction``.  Either way it is kept as
numerators over the lcm of its denominators (a coordinate's lcm stops at
``WIDE``).  Float mode (``rational=False``) reads each number with
``float``.  Samples, trials and points keep those columns as ``Points``,
and Python numbers are built only when read.  Labels and treatments are
read exactly in both modes.  Labels, weights and propensities are checked
on whole columns; when a column fails to parse or its check, the cells are
read again in row order and the first bad one is named.  Model files read
their support through the same column parser.
Models are stored as the bytes of ``json.dumps(payload, indent=2)``
(``json_text``) and written atomically (temp file + rename) so failed runs
leave nothing partial behind.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import math
import sys
import tempfile
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from ._numeric import WIDE, Points, ValidationError, check_finite, exact_column
from .risks import DiscreteDistribution, WeightedSample

# a model file's "type" -> the class, defined in the module of that name, that it holds
MODELS = {"monotone": "MonotoneClassifier", "bernstein": "BernsteinClassifier"}


def parse_number(token: str, where: str, rational: bool):
    """``token`` as an exact Fraction, or as a finite float when not ``rational``; errors name ``where``."""
    token = token.strip()
    try:
        value = Fraction(token) if rational else float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: cannot parse number {token!r}") from exc
    check_finite(value, where)
    return value


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


def _column(tokens, kind: str, rational: bool):
    """A column of ``tokens`` read as ``kind``, or None if a token fails to parse or the column its check.

    Kinds: "x" a coordinate, "v" any other number, "w" a weight (>= 0), "e"
    a propensity (strictly between 0 and 1), "y" a label or treatment (-1 or
    +1), which is read exactly in both modes and given as int64.  Other kinds
    are ``exact_column`` pairs, or float arrays when not ``rational``.
    """
    if rational or kind == "y":
        try:
            column = exact_column(tokens, WIDE if kind == "x" else math.inf)
        except (ValueError, ZeroDivisionError):
            return None
        values, one = column
        if kind == "y":
            return (values // one).astype(np.int64) if (np.abs(values) == one).all() else None
    else:
        try:
            column = values = np.array(list(map(float, tokens)))
        except ValueError:
            return None
        if not np.isfinite(values).all():
            return None
        one = 1
    if kind == "w" and not (values >= 0).all() or kind == "e" and not ((values > 0) & (values < one)).all():
        return None
    return column


def _cell(token: str, kind: str, where: str, rational: bool) -> None:
    """The checks of ``_column`` on one cell, raising the error that names ``where``."""
    value = parse_number(token, where, rational or kind == "y")
    if kind == "y" and value not in (1, -1):
        raise ValidationError(f"{where}: label must be -1 or +1, got {token!r}")
    if kind == "w" and value < 0:
        raise ValidationError(f"{where}: negative weight {token!r}")
    if kind == "e":
        _check_propensity(value, where)


def _check_propensity(value, where: str) -> None:
    """The propensity checks of ``TrialRecord`` on ``value``, raising its error located at ``where``."""
    from .policy import TrialRecord
    try:
        TrialRecord(0, 1, (), value)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _read_columns(path: str, rows, kinds: str, rational: bool, propensity=None) -> list:
    """The columns of ``rows`` (from ``_read_rows``), each read by ``_column`` as its letter of ``kinds``.

    When one fails, the cells are read again in row order, and the first that
    fails raises its error, located by file and line; a constant
    ``propensity`` is checked as the last cell of the first row.
    """
    tokens = list(zip(*(row for _, row in rows))) or [()] * len(kinds)
    columns = [_column(column, kind, rational) for column, kind in zip(tokens, kinds)]
    if any(column is None for column in columns) or rows and propensity is not None and not 0 < propensity < 1:
        for lineno, row in rows:
            where = f"{path}, line {lineno}"
            for token, kind in zip(row, kinds):
                _cell(token, kind, where, rational)
            if propensity is not None:
                _check_propensity(propensity, where)
    return columns


def _values(column, rational: bool) -> tuple:
    """A column of ``_read_columns`` as a tuple of Fractions, or of floats."""
    return tuple(map(Fraction, column[0].tolist(), repeat(column[1]))) if rational else tuple(column.tolist())


def load_sample(path: str, schema: str = "plain", rational: bool = True) -> WeightedSample:
    """Load a classification sample in the plain or weighted schema, its points (and exact weights) as ``Points``."""
    if schema not in ("plain", "weighted"):
        raise ValidationError(f"unknown sample schema {schema!r}")
    prefix = ["y"] if schema == "plain" else ["w", "y"]
    header, rows = _read_rows(path, prefix, schema)
    d = len(header) - len(prefix)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    columns = _read_columns(path, rows, "wy"[-len(prefix) :] + "x" * d, rational)
    labels, points = columns[len(prefix) - 1], columns[len(prefix) :]
    if schema == "plain":
        weights = np.ones(len(rows), np.int64)
    else:
        weights = Points.of_columns(columns[:1])
    return WeightedSample(weights, labels, Points.of_columns(points))


def load_trials(path: str, rational: bool = True, propensity=None):
    """Load trial records, as ``TrialColumns``; ``propensity`` supplies a constant if no e column."""
    from .policy import TrialColumns
    header, rows = _read_rows(path, ["z", "d"], "trial")
    has_e = header[-1] == "e"
    d = len(header) - 2 - (1 if has_e else 0)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    if not has_e and propensity is None:
        raise ValidationError(
            f"{path}: no e column; supply a constant propensity (e.g. --propensity 0.5)"
        )
    columns = _read_columns(path, rows, "vy" + "x" * d + "e" * has_e, rational, None if has_e else propensity)
    z, treat, x = columns[0], columns[1], columns[2 : 2 + d]
    if has_e:
        e = columns[-1]
    elif rational:
        # a constant propensity (checked by _read_columns if there are rows) is read as a column of its text
        e = exact_column([str(Fraction(propensity))] * len(rows) if rows else [])
    else:
        e = np.full(len(rows), float(propensity))
    # float columns are kept over no denominator
    z, e = (z, e) if rational else ((z, None), (e, None))
    return TrialColumns(z, treat, Points.of_columns(x), e)


def load_distribution(path: str, rational: bool = True) -> DiscreteDistribution:
    """Load a finite distribution: mass,eta,x1..xd with optional wplus,wminus."""
    header, rows = _read_rows(path, ["mass", "eta"], "dist")
    has_w = header[-2:] == ["wplus", "wminus"]
    d = len(header) - 2 - (2 if has_w else 0)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    mass, eta, *rest = (_values(column, rational) for column in _read_columns(path, rows, "v" * len(header), rational))
    return DiscreteDistribution(tuple(zip(*rest[:d])), mass, eta, *(rest[d:] or (None, None)))


def load_points(path: str, rational: bool = True):
    """Load bare covariate rows: x1,...,xd, as ``Points`` (float64 when not ``rational``)."""
    header, rows = _read_rows(path, ["x1"], "points")
    return Points.of_columns(_read_columns(path, rows, "x" * len(header), rational))


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


def _nested(types) -> bool:
    """True iff one of ``types`` is a JSON container: a list, tuple or dict (or a subclass)."""
    return any(issubclass(t, (list, tuple, dict)) for t in types)


def _key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a str, or the quoted JSON text of an int, float, bool or None."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else json.dumps(key))


def json_text(value, prefix: str = "") -> str:
    """``json.dumps(value, indent=2)``, with each list of leaves written by one call of json's C encoder.

    json runs its C encoder only without ``indent``, but it takes any item
    separator: a list of leaves (str, int, float, bool, None; anything else is
    json's TypeError) gets the indented separator, and a list of nonempty rows
    of leaves gets the separator of their cells, and each boundary between
    rows is then replaced.  That text holds no other such boundary: json
    escapes a line break inside a string, and no leaf ends with ``]``.
    Other lists and dicts are laid out here.  ``prefix`` is the indent of the
    line that holds ``value``.
    """
    inner = prefix + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = map("{}: {}".format, map(_key, value), [json_text(v, inner) for v in value.values()])
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + prefix + "}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    types = set(map(type, value))
    if not _nested(types):
        return "[\n" + inner + json.dumps(value, separators=(",\n" + inner, ": "))[1:-1] + "\n" + prefix + "]"
    if types <= {list, tuple} and all(value) and not _nested(set(map(type, chain.from_iterable(value)))):
        cell = ",\n" + inner + "  "
        opening, closing = "[" + cell[1:], "\n" + inner + "]"
        rows = json.dumps(value, separators=(cell, ": "))[2:-2].replace("]" + cell + "[", closing + ",\n" + inner + opening)
        return "[\n" + inner + opening + rows + closing + "\n" + prefix + "]"
    return "[\n" + inner + (",\n" + inner).join([json_text(v, inner) for v in value]) + "\n" + prefix + "]"


def write_json(path: str, payload) -> None:
    """``payload`` as 2-space-indented JSON (the bytes of ``json.dumps(payload, indent=2)``) and a line break, written atomically."""
    atomic_write_text(path, json_text(payload) + "\n")


def model_module(model):
    """The module (``monotone`` or ``bernstein``) whose model class made ``model``, or None.

    Only a module already loaded can have made it, so none is imported here.
    """
    for kind, name in MODELS.items():
        module = sys.modules.get(f"{__package__}.{kind}")
        if module is not None and isinstance(model, getattr(module, name)):
            return module
    return None


def save_model(path: str, model, compact: bool = False) -> None:
    """``model`` as its payload (``to_dict``; a monotone one's frontiers alone if ``compact``), written by ``write_json``."""
    module = model_module(model)
    if module is None:
        raise ValidationError(f"cannot serialize model of type {type(model)!r}")
    monotone = module.__name__ == f"{__package__}.monotone"
    write_json(path, model.to_compact_dict() if compact and monotone else model.to_dict())


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
    if not isinstance(kind, str) or kind not in MODELS:
        raise ValidationError(f"{path}: unknown model type {kind!r}")
    # only the module of this model's type is imported
    model_class = getattr(importlib.import_module(f"{__package__}.{kind}"), MODELS[kind])
    try:
        return model_class.from_dict(payload)
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"{path}: malformed {kind} model ({type(exc).__name__}: {exc})") from exc


def write_csv(path: str, header, rows) -> None:
    """Header and rows as CSV text, each cell written with ``str`` (a float's shortest round-trip form)."""
    lines = [",".join(map(str, header))]
    for row in rows:
        lines.append(",".join(map(str, row)))
    atomic_write_text(path, "\n".join(lines) + "\n")
