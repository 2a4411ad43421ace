"""CSV ingestion, model persistence, atomic file writes.

Supported tabular schemas (header row required):

* plain:    ``y,x1,...,xd``           -- unit weights
* weighted: ``w,y,x1,...,xd``
* trial:    ``z,d,x1,...,xd[,e]``     -- propensity column optional if a
                                         constant is supplied
* dist:     ``mass,eta,x1,...,xd[,wplus,wminus]``
* points:   ``x1,...,xd``

In rational mode (the default) every number parses exactly as a Fraction
(``_numeric.parse_exact``: plain integers, decimals and ratios are read as
two ints, anything else as ``Fraction(token)``); float mode parses binary64.
Models are stored as JSON and written atomically (temp file + rename) so
failed runs leave nothing partial behind.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

from ._numeric import ValidationError, check_finite, parse_exact
from .bernstein import BernsteinClassifier
from .monotone import MonotoneClassifier
from .policy import TrialRecord
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
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}, line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            rows.append((f"{path}, line {lineno}", row))
        return header, rows


def load_sample(path: str, schema: str = "plain", rational: bool = True):
    """Load a classification sample in the plain or weighted schema."""
    if schema not in ("plain", "weighted"):
        raise ValidationError(f"unknown sample schema {schema!r}")
    prefix = ["y"] if schema == "plain" else ["w", "y"]
    header, rows = _read_rows(path, prefix, schema)
    d = len(header) - len(prefix)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    weights, labels, points = [], [], []
    for where, row in rows:
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


def load_trials(path: str, rational: bool = True, propensity=None) -> list:
    """Load trial records; ``propensity`` supplies a constant if no e column."""
    header, rows = _read_rows(path, ["z", "d"], "trial")
    has_e = header[-1] == "e"
    d = len(header) - 2 - (1 if has_e else 0)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    if not has_e and propensity is None:
        raise ValidationError(
            f"{path}: no e column; supply a constant propensity (e.g. --propensity 0.5)"
        )
    records = []
    for where, row in rows:
        z = parse_number(row[0], where, rational)
        treat = _parse_label(row[1], where)
        xs = tuple(parse_number(t, where, rational) for t in row[2 : 2 + d])
        e = parse_number(row[-1], where, rational) if has_e else propensity
        try:
            records.append(TrialRecord(z, treat, xs, e))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return records


def load_distribution(path: str, rational: bool = True) -> DiscreteDistribution:
    """Load a finite distribution: mass,eta,x1..xd with optional wplus,wminus."""
    header, rows = _read_rows(path, ["mass", "eta"], "dist")
    has_w = header[-2:] == ["wplus", "wminus"]
    d = len(header) - 2 - (2 if has_w else 0)
    if d < 1:
        raise ValidationError(f"{path}: no covariate columns found")
    mass, eta, points, wp, wm = [], [], [], [], []
    for where, row in rows:
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


def load_points(path: str, rational: bool = True) -> list:
    """Load bare covariate rows: x1,...,xd."""
    header, rows = _read_rows(path, ["x1"], "points")
    return [tuple(parse_number(t, where, rational) for t in row) for where, row in rows]


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
