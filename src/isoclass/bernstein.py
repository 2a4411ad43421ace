"""Bernstein-polynomial sieve classifier with lattice-monotone coefficients.

The classifier is B(theta, x) = sum_j theta_j * prod_v b_{k_v j_v}(x_v) over
the multi-index lattice j in {0..k_1} x ... x {0..k_d}.  Fitting solves the
hinge linear program over the coefficients in [-1, 1] that are monotone along
the lattice order (an isotone problem on the lattice DAG); its optimum is a
+/-1 vertex, an up-set of the lattice, and a model holds only such up-sets.

Fitting and evaluation share one basis step.  A row of log features
[1, log u, log1p(-u)] per coordinate, times a cached (3, k + 1) matrix
[log C(k, j); j; k - j], gives the log of that coordinate's basis row; one
``exp`` makes the basis matrix.  ``evaluate_batch`` contracts the matrices
against the coefficient grid in row chunks of about 2^16 entries;
``evaluate`` checks its one point in Python floats and contracts one basis
vector per dimension, first dimension first, with the same numpy logs and
products: its value equals ``_values`` of its one feature row bit for bit.
It reads a model's ``_plan``, made on the first call: each dimension's
order and ``_basis_rows``, and the coefficient grid as the matrix of the
first contraction.

``fit`` builds its first dimension's matrix from logs shifted by S = 64 ln 2;
the entries whose shifted log lies below the cut -707 (a basis value below
e^-751.4) are set to the cut before the ``exp`` and to 0 after it.  Every
``exp`` result is then a normal float (numpy's ``exp`` is 10-100x slower on
results that are subnormal or underflow to 0), and the objective
coefficients come out e^S times the unscaled ones to rounding, a common
factor the +/-1 solution does not depend on.  Evaluation keeps the unscaled
basis.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from ._numeric import ValidationError, beyond_float_range, check_finite, exact_floats, finite_array, integers, read_points
from .isotone import IsotoneProblem, solve
from .order import lattice_dag
from .risks import WeightedSample

MAX_ORDER_PER_DIM = 500
MAX_LATTICE_SIZE = 10**6
_LOG_ZERO = -1e300  # log 0 as a finite number: times j = 0 it gives 0, so end-point basis rows are one-hot
_SHIFT = 64 * math.log(2)  # fit's first basis is taken times e^_SHIFT, 2^64 to rounding
_CUT = -707.0  # at and above this, numpy's exp takes its fast path and gives a normal float
_SCALED_WEIGHT_LIMIT = 2.0**900  # max|w_i| * n up to this keeps every scaled coefficient below 2^964
_BOOLS = frozenset((bool, np.bool_))  # the types of a coordinate that is not a number


def basis(k: int, j: int, x) -> float:
    """Bernstein basis value C(k, j) x^j (1-x)^(k-j) on [0, 1]."""
    k, j = integers((k, j), "order k and index j")
    if k < 0 or not (0 <= j <= k):
        raise ValidationError(f"index j={j!r} out of range for order k={k!r}")
    check_finite(x, "x")
    if not (0 <= x <= 1):
        raise ValidationError(f"basis argument must lie in [0, 1], got {x!r}")
    x = float(x)
    return math.comb(k, j) * x**j * (1.0 - x) ** (k - j)


@lru_cache(maxsize=64)
def _basis_rows(k: int, shift: float = 0.0) -> np.ndarray:
    """(3, k + 1) rows [log C(k, j) + shift; j; k - j] for j = 0..k, log C from the exact integers."""
    j = np.arange(k + 1)
    rows = np.array([[math.log(math.comb(k, i)) + shift for i in range(k + 1)], j, k - j], dtype=float)
    rows.flags.writeable = False
    return rows


def _log_features(u: np.ndarray) -> np.ndarray:
    """(n, d, 3) features [1, log u, log1p(-u)] of ``u`` (n, d) in [0, 1]; a log of 0 is ``_LOG_ZERO``."""
    features = np.full(u.shape + (3,), _LOG_ZERO)
    features[..., 0] = 1.0
    np.log(u, out=features[..., 1], where=u > 0.0)
    np.log1p(-u, out=features[..., 2], where=u < 1.0)
    return features


def _basis_matrices(orders, features: np.ndarray) -> list:
    """One basis matrix C(k_v, j) u^j (1 - u)^(k_v - j) per dimension v of the (n, d, 3) ``features``.

    Entries are exp(features[:, v] @ _basis_rows(k_v)), that is
    exp(log C(k, j) + j log u + (k - j) log1p(-u)), within 1e-12 of the power
    form, whose float powers are slow near underflow.  The ``_LOG_ZERO`` log at
    u = 0 or 1 makes those rows exactly one-hot.
    """
    out = []
    for v, k in enumerate(orders):
        b = features[:, v] @ _basis_rows(k)
        out.append(np.exp(b, out=b))
    return out


def _scaled_basis_matrix(k: int, features: np.ndarray) -> np.ndarray:
    """e^_SHIFT times the order-``k`` basis matrix at the (n, 3) log ``features``, with no subnormal entry.

    One ``exp`` of the shifted logs.  An entry whose shifted log lies below
    ``_CUT`` (a basis value below e^-751.4, which the unscaled matrix holds as
    a subnormal or 0) is set to the cut before the ``exp`` and to exactly 0
    after it; both writes touch only those entries.
    """
    b = features @ _basis_rows(k, _SHIFT)
    below = b < _CUT
    np.copyto(b, _CUT, where=below)
    np.exp(b, out=b)
    np.copyto(b, 0.0, where=below)
    return b


def _values(model: "BernsteinClassifier", features: np.ndarray) -> np.ndarray:
    """B(theta, x) at each row of the (n, d, 3) log ``features``.

    The basis matrices are contracted against the coefficient grid, first
    dimension first.
    """
    grid = model.theta_grid
    first, *rest = _basis_matrices(model.orders, features)
    value = first @ grid.reshape(grid.shape[0], -1)
    for b in rest:
        value = (b[:, None, :] @ value.reshape(len(b), b.shape[1], -1))[:, 0]
    return value[:, 0]


def _lattice_shape(orders) -> tuple:
    """Coefficient-grid shape (k_1 + 1, ..., k_d + 1) of ``orders``: integers (read by ``operator.index``, no bool), each >= 1.

    Every model is checked here, so the caps hold for one read from a file
    too, before any lattice-sized array is made: each order at most
    ``MAX_ORDER_PER_DIM``, the lattice at most ``MAX_LATTICE_SIZE`` entries.
    """
    shape = tuple(k + 1 for k in integers(orders, "Bernstein orders"))
    if any(s < 2 for s in shape):
        raise ValidationError("every Bernstein order must be >= 1")
    if any(s > MAX_ORDER_PER_DIM + 1 for s in shape):
        raise ValidationError(f"orders are capped at {MAX_ORDER_PER_DIM} per dimension")
    size = math.prod(shape)
    if size > MAX_LATTICE_SIZE:
        raise ValidationError(f"coefficient lattice of size {size} exceeds {MAX_LATTICE_SIZE}")
    return shape


def _chunk_rows(orders) -> int:
    """Rows per chunk so its basis matrices and partial products stay near 2^16 entries (in L2 cache)."""
    shape = _lattice_shape(orders)
    return max(1, (1 << 16) // (math.prod(shape[1:]) + sum(shape)))


@dataclass(frozen=True)
class BernsteinClassifier:
    """Per-dimension orders and a +/-1 coefficient vector that is an up-set of the lattice.

    ``theta`` is stored in row-major multi-index order (last index fastest).
    Every entry must be a number equal to -1 or +1 (a bool is not a number),
    and ``theta`` must be nondecreasing along every lattice axis as
    ``theta_grid`` reads it: a ``ValidationError`` names the first entry
    that is not +/-1, or the first pair that falls.  ``scale`` optionally
    records per-dimension (min, max) training ranges for prediction-time
    rescaling into the unit cube: ``dim`` finite numbers each, kept as
    floats, and no min above its max (a column whose min equals its max
    maps to 0.5).  ``theta_grid`` is ``theta`` as a float array of shape
    (k_1 + 1, ..., k_d + 1), made once from the checked entries.

    A model file stores the up-set as ``thresholds``: per row of the last
    axis, in row-major order of the other axes, the number of its -1
    entries, which is where its +1 entries start.
    """

    orders: tuple
    theta: tuple
    scale: tuple = None

    def __post_init__(self):
        shape = _lattice_shape(self.orders)
        object.__setattr__(self, "orders", tuple(s - 1 for s in shape))
        object.__setattr__(self, "theta", tuple(self.theta))
        size = math.prod(shape)
        if len(self.theta) != size:
            raise ValidationError(
                f"theta has {len(self.theta)} entries, lattice needs {size}"
            )
        for t in self.theta:
            if isinstance(t, (bool, np.bool_)) or t not in (-1, 1):
                check_finite(t, "theta")
                raise ValidationError(f"theta entries must lie in {{-1, +1}}, got {t!r}")
        grid = np.array(self.theta, dtype=float).reshape(shape)
        # lattice-monotone: the first pair, along the first axis that falls, is named
        for v in range(len(shape)):
            falls = np.argwhere(np.diff(grid, axis=v) < 0)
            if len(falls):
                low = int(np.ravel_multi_index(tuple(falls[0]), shape))
                high = low + math.prod(shape[v + 1 :])
                raise ValidationError(f"theta must be nondecreasing along the lattice: theta[{low}] = {self.theta[low]!r} > theta[{high}] = {self.theta[high]!r}")
        object.__setattr__(self, "theta_grid", grid)
        if self.scale is not None:
            mins, maxs = map(tuple, self.scale)
            bounds = finite_array(mins + maxs, 2 * self.dim)
            if len(mins) != self.dim or len(maxs) != self.dim or bounds is None:
                raise ValidationError(f"scale needs {self.dim} finite min and {self.dim} finite max values")
            lows, highs = bounds.reshape(2, -1).tolist()
            for lo, hi in zip(lows, highs):
                if lo > hi:
                    raise ValidationError(f"scale min must not exceed its max, got min {lo!r} > max {hi!r}")
            object.__setattr__(self, "scale", (tuple(lows), tuple(highs)))

    @classmethod
    def _of_fit(cls, orders: tuple, values: np.ndarray) -> "BernsteinClassifier":
        """``fit``'s model of ``solve``'s int64 +/-1 ``values``, skipping ``__post_init__``: ``fit`` checked the orders."""
        model = object.__new__(cls)
        grid = values.astype(float).reshape(_lattice_shape(orders))
        model.__dict__.update(orders=orders, theta=tuple(values.tolist()), scale=None, theta_grid=grid)
        return model

    @cached_property
    def _plan(self) -> tuple:
        """What ``evaluate`` reads, made once per model: ``theta_grid`` as a (k_1 + 1, -1) matrix, and (k, ``_basis_rows(k)``) per dimension."""
        grid = self.theta_grid
        return grid.reshape(grid.shape[0], -1), tuple((k, _basis_rows(k)) for k in self.orders)

    @property
    def dim(self) -> int:
        return len(self.orders)

    def multi_indices(self):
        return product(*map(range, _lattice_shape(self.orders)))

    def to_dict(self) -> dict:
        return {
            "type": "bernstein",
            "orders": list(self.orders),
            "thresholds": (self.theta_grid < 0).sum(axis=-1).ravel().tolist(),
            "scale": None
            if self.scale is None
            else {"min": list(self.scale[0]), "max": list(self.scale[1])},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BernsteinClassifier":
        """The model of a ``to_dict`` payload; one that holds ``theta`` instead of ``thresholds`` (an older file) is read by the constructor."""
        if payload.get("type") != "bernstein":
            raise ValidationError("not a bernstein model payload")
        scale = None
        if "scale" in payload and payload["scale"] is not None:
            scale = (tuple(payload["scale"]["min"]), tuple(payload["scale"]["max"]))
        orders = tuple(payload["orders"])
        if "theta" in payload:
            return cls(orders, tuple(payload["theta"]), scale)
        shape = _lattice_shape(orders)
        thresholds = integers(payload["thresholds"], "thresholds")
        rows = math.prod(shape[:-1])
        if len(thresholds) != rows:
            raise ValidationError(f"thresholds has {len(thresholds)} entries, lattice needs {rows}")
        bad = next((t for t in thresholds if not 0 <= t <= shape[-1]), None)
        if bad is not None:
            raise ValidationError(f"thresholds must lie in [0, {shape[-1]}], got {bad!r}")
        theta = np.where(np.arange(shape[-1]) >= np.array(thresholds)[:, None], 1, -1)
        return cls(orders, tuple(theta.ravel().tolist()), scale)


def float_points(points, dim: int) -> np.ndarray:
    """(n, dim) float array of a point batch read by ``read_points``: finite coordinates, exact ones correctly rounded.

    The array may be read-only.
    """
    points = read_points(points, "point")
    if len(points) and points.dim != dim:
        raise ValidationError(f"point has dimension {points.dim}, model expects {dim}")
    return points.floats() if len(points) else np.zeros((0, dim))


def _to_unit_cube(model: BernsteinClassifier, points) -> np.ndarray:
    """Validated (n, d) float array of the points, rescaled and clamped into [0, 1]."""
    x = float_points(points, model.dim)
    if model.scale is not None:
        # float Points hand out their own read-only matrix
        x = x.copy()
        for v, (lo, hi) in enumerate(zip(*model.scale)):
            x[:, v] = (x[:, v] - lo) / (hi - lo) if hi > lo else 0.5
    clipped = np.minimum(np.maximum(x, 0.0), 1.0)
    if (clipped != x).any():
        _warn_at_caller("coordinates outside [0,1] were clamped")
    return clipped


def _warn_at_caller(message: str) -> None:
    """UserWarning attributed to the first frame outside this module: the user's call site."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename == _warn_at_caller.__code__.co_filename:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def evaluate_batch(model: BernsteinClassifier, points) -> np.ndarray:
    """Tensor-product polynomial values at many points (float array), in row chunks (see ``_chunk_rows``)."""
    u = _to_unit_cube(model, points)
    out = np.empty(len(u))
    step = _chunk_rows(model.orders)
    for start in range(0, len(u), step):
        out[start : start + step] = _values(model, _log_features(u[start : start + step]))
    return out


def predict_batch(model: BernsteinClassifier, points) -> np.ndarray:
    """Labels sign(B(theta, x)) at many points (int array, sign(0) = +1)."""
    return np.where(evaluate_batch(model, points) >= 0, 1, -1)


def evaluate(model: BernsteinClassifier, x) -> float:
    """Tensor-product polynomial value at one point x.

    The point gets the checks, rescaling and clamping of ``evaluate_batch`` in
    Python floats, with messages of its own.  Each dimension's basis vector,
    from the same log features and ``_basis_rows``, is then contracted with
    the coefficients left, first dimension first: one ``dot`` each, no batch
    arrays.  The rows and the first contraction's coefficient matrix come
    from the model's ``_plan``, made on its first evaluation.
    """
    x = tuple(x)
    if len(x) != model.dim:
        raise ValidationError(f"point has dimension {len(x)}, model expects {model.dim}")
    if not _BOOLS.isdisjoint(map(type, x)):
        check_finite(next(v for v in x if type(v) in _BOOLS), "coordinate")
    try:
        u = [float(v) for v in x]
    except OverflowError:
        raise beyond_float_range("coordinate", x) from None
    if not all(map(math.isfinite, u)):
        raise ValidationError("coordinates must be finite")
    if model.scale is not None:
        u = [(v - lo) / (hi - lo) if hi > lo else 0.5 for v, lo, hi in zip(u, *model.scale)]
    value, steps = model._plan
    clamped = False
    for v, (k, rows) in zip(u, steps):
        if not 0.0 <= v <= 1.0:
            v, clamped = min(max(v, 0.0), 1.0), True
        # numpy's logs, bit-identical to the batch path's; math.log1p differs from them in the last
        # bit on some inputs, which moves the thresholds that bench bisects with this function
        b = np.array((1.0, np.log(v) if v > 0.0 else _LOG_ZERO, np.log1p(-v) if v < 1.0 else _LOG_ZERO)).dot(rows)
        value = np.exp(b, out=b).dot(value if value.ndim == 2 else value.reshape(k + 1, -1))
    if clamped:
        _warn_at_caller("coordinates outside [0,1] were clamped")
    return float(value[0])


def predict(model: BernsteinClassifier, x) -> int:
    return 1 if evaluate(model, x) >= 0 else -1


def fit(sample: WeightedSample, orders) -> BernsteinClassifier:
    """Hinge-LP fit over the lattice-monotone coefficient polytope.

    The objective coefficients are summed in floats (exact points and
    weights correctly rounded), chunk by chunk, into one float64 array;
    ``solve`` takes that array as it is and scales it to integers exactly,
    so the +/-1 values are exact for those floats.  The first dimension's
    basis is ``_scaled_basis_matrix``'s, e^S times the unscaled one with no
    subnormal entry, so the coefficients are e^S (S = 64 ln 2) times the
    unscaled sums; when max|w_i| * n exceeds 2^900, where a scaled
    coefficient could leave float range, it is the unscaled basis.
    ``lattice_dag`` and ``solve`` are called through this module's names,
    which the benchmark's tracer (``perfbench/tracing.py``) wraps.
    """
    if sample.n == 0:
        raise ValidationError("cannot fit on an empty sample")
    shape = _lattice_shape(orders)
    orders = tuple(s - 1 for s in shape)
    if len(orders) != sample.dim:
        raise ValidationError(
            f"{len(orders)} orders for {sample.dim}-dimensional covariates"
        )
    pts = sample._points.floats()
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise ValidationError(
            "covariates must lie in the unit cube [0,1]^d; rescale them first "
            "(the CLI offers --rescale min-max normalization)"
        )
    signed = _float_weights(sample) * sample._labels
    # objective coefficient per multi-index: sum_i w_i y_i prod_v b_{k_v j_v}(x_iv), as one matrix
    # product per row chunk: the first basis matrix against the weighted row-wise products of the rest
    scaled = np.abs(signed).max() <= _SCALED_WEIGHT_LIMIT / sample.n
    coeff = np.zeros((shape[0], math.prod(shape[1:])))
    step = _chunk_rows(orders)
    for start in range(0, sample.n, step):
        features = _log_features(pts[start : start + step])
        if scaled:
            first, rest = _scaled_basis_matrix(orders[0], features[:, 0]), _basis_matrices(orders[1:], features[:, 1:])
        else:
            first, *rest = _basis_matrices(orders, features)
        rows = signed[start : start + step, None]
        for b in reversed(rest):
            rows = (b[:, :, None] * rows[:, None, :]).reshape(len(b), -1)
        coeff += first.T @ rows
    coeff = coeff.reshape(-1)
    dag = lattice_dag(orders)
    values, _ = solve(IsotoneProblem(dag, coeff), array=True)
    return BernsteinClassifier._of_fit(orders, values)


def empirical_hinge_risk(model: BernsteinClassifier, sample: WeightedSample):
    """(1/n) sum w_i (1 - y_i B(theta, x_i)); the box keeps the max inactive."""
    values = evaluate_batch(model, sample._points)
    return float(_float_weights(sample) @ np.maximum(0.0, 1.0 - sample._labels * values)) / sample.n


def _float_weights(sample: WeightedSample) -> np.ndarray:
    """The sample's weights as float64, exact ones correctly rounded; one beyond float range is a ValidationError."""
    weights = sample._weights if sample._weight_scale is None else exact_floats(sample._weights, sample._weight_scale)
    if weights is None:
        raise beyond_float_range("weight", sample.weights)
    return weights


def suggest_orders(n: int, d: int):
    """Smallest uniform order k whose tail keeps sqrt(log j / j), j >= k, below the target rate.

    The rate is log(n)/sqrt(n) in one dimension and n^(-1/d) otherwise; log j / j
    falls after j = 3, so the tail test is log(max(k, 3)) / max(k, 3) <= rate^2.
    The order is at least 1 and stops at the first cap: n - 1, ``MAX_ORDER_PER_DIM``,
    and the largest k with (k + 1)^d <= ``MAX_LATTICE_SIZE``.  Past the dimension
    where order 1 already breaks the last cap, no order fits: a ValidationError.
    """
    n, d = integers((n, d), "sample size and dimension")
    if n < 2:
        raise ValidationError("need a sample size of at least 2")
    if d < 1:
        raise ValidationError("dimension must be positive")
    max_dim = MAX_LATTICE_SIZE.bit_length() - 1
    if d > max_dim:
        raise ValidationError(
            f"no Bernstein order fits {d} covariates: the 2^{d}-coefficient lattice of order 1 "
            f"exceeds {MAX_LATTICE_SIZE}; at most {max_dim} covariates are supported"
        )
    rate = math.log(n) / math.sqrt(n) if d == 1 else n ** (-1.0 / d)
    bound = rate * rate
    cap, k = min(n - 1, MAX_ORDER_PER_DIM), 1
    # step to k + 1 while it stays under every cap and k fails the tail test
    while k < cap and (k + 2) ** d <= MAX_LATTICE_SIZE and math.log(max(k, 3)) / max(k, 3) > bound:
        k += 1
    return (k,) * d
