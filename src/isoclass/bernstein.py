"""Bernstein-polynomial sieve classifier with lattice-monotone coefficients.

The classifier is B(theta, x) = sum_j theta_j * prod_v b_{k_v j_v}(x_v) over
the multi-index lattice j in {0..k_1} x ... x {0..k_d}, with theta confined to
[-1, 1] and monotone along the lattice order.  Fitting solves the hinge
linear program over that polytope (an isotone problem on the lattice DAG);
binarization snaps coefficients to their signs, which preserves optimality.

Fitting and evaluation share one basis step.  A row of log features
[1, log u, log1p(-u)] per coordinate, times a cached (3, k + 1) matrix
[log C(k, j); j; k - j], gives the log of that coordinate's basis row; one
``exp`` makes the basis matrix.  ``evaluate_batch`` contracts the matrices
against the coefficient grid in row chunks of about 2^16 entries;
``evaluate`` checks its one point in Python floats and contracts one basis
vector per dimension, first dimension first, with the same numpy logs and
products: its value equals ``_values`` of its one feature row bit for bit.

``fit`` builds its first dimension's matrix from logs shifted by S = 64 ln 2,
clipped at -707 before the ``exp``: every ``exp`` result is then a normal
float (numpy's ``exp`` is 10-100x slower on results that are subnormal or
underflow to 0), an entry whose shifted log lay below -707 (a basis value
below e^-751.4) is set to 0, and the objective coefficients come out e^S
times the unscaled ones to rounding, a common factor the +/-1 solution does
not depend on.  Evaluation keeps the unscaled basis.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from ._numeric import Points, ValidationError, beyond_float_range, check_finite, exact_floats, finite_array, integers
from .isotone import IsotoneProblem, solve
from .order import lattice_dag
from .risks import WeightedSample

MAX_ORDER_PER_DIM = 500
MAX_LATTICE_SIZE = 10**6
_LOG_ZERO = -1e300  # log 0 as a finite number: times j = 0 it gives 0, so end-point basis rows are one-hot
_SHIFT = 64 * math.log(2)  # fit's first basis is taken times e^_SHIFT, 2^64 to rounding
_CUT = -707.0  # at and above this, numpy's exp takes its fast path and gives a normal float
_SCALED_WEIGHT_LIMIT = 2.0**900  # max|w_i| * n up to this keeps every scaled coefficient below 2^964


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

    One ``exp`` of the shifted logs clipped at ``_CUT``; an entry whose
    shifted log lies below the cut (a basis value below e^-751.4, which the
    unscaled matrix holds as a subnormal or 0) is set to exactly 0.
    """
    b = features @ _basis_rows(k, _SHIFT)
    below = b < _CUT
    np.exp(np.maximum(b, _CUT, out=b), out=b)
    b[below] = 0.0
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
    """Coefficient-grid shape (k_1 + 1, ..., k_d + 1) of ``orders``: integers (read by ``operator.index``, no bool), each >= 1."""
    shape = tuple(k + 1 for k in integers(orders, "Bernstein orders"))
    if any(s < 2 for s in shape):
        raise ValidationError("every Bernstein order must be >= 1")
    return shape


def _chunk_rows(orders) -> int:
    """Rows per chunk so its basis matrices and partial products stay near 2^16 entries (in L2 cache)."""
    shape = _lattice_shape(orders)
    return max(1, (1 << 16) // (math.prod(shape[1:]) + sum(shape)))


def _in_box(theta: tuple, binarized: bool):
    """The Python ints and floats ``theta`` as a float array if they lie in [-1, 1] (are +/-1 when ``binarized``), else None; NaN does not."""
    try:
        values = np.array(theta, dtype=float)
    except OverflowError:
        return None
    magnitudes = np.abs(values)
    inside = magnitudes == 1.0 if binarized else magnitudes <= 1.0
    return values if inside.all() else None


@dataclass(frozen=True)
class BernsteinClassifier:
    """Per-dimension orders and a lattice-monotone coefficient vector in [-1,1].

    ``theta`` is stored in row-major multi-index order (last index fastest).
    ``scale`` optionally records per-dimension (min, max) training ranges for
    prediction-time rescaling into the unit cube: ``dim`` finite numbers each,
    kept as floats.  ``theta_grid`` is ``theta`` as a float array of shape
    (k_1 + 1, ..., k_d + 1), made once from the checked entries.
    """

    orders: tuple
    theta: tuple
    binarized: bool = False
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
        # Python ints and floats are checked in numpy, and the checked array is kept; other entries, or a
        # failed check, take the loop, which names the first bad entry
        grid = _in_box(self.theta, self.binarized) if set(map(type, self.theta)) <= {int, float} else None
        if grid is None:
            for t in self.theta:
                check_finite(t, "theta")
                if not (-1 <= t <= 1):
                    raise ValidationError(f"theta entries must lie in [-1, 1], got {t!r}")
            if self.binarized and any(t not in (-1, 1) for t in self.theta):
                raise ValidationError("binarized model must have theta in {-1, +1}")
            grid = np.array(self.theta, dtype=float)
        object.__setattr__(self, "theta_grid", grid.reshape(shape))
        if self.scale is not None:
            mins, maxs = map(tuple, self.scale)
            bounds = finite_array(mins + maxs, 2 * self.dim)
            if len(mins) != self.dim or len(maxs) != self.dim or bounds is None:
                raise ValidationError(f"scale needs {self.dim} finite min and {self.dim} finite max values")
            object.__setattr__(self, "scale", tuple(map(tuple, bounds.reshape(2, -1).tolist())))

    @classmethod
    def _of_fit(cls, orders: tuple, values: np.ndarray) -> "BernsteinClassifier":
        """``fit``'s binarized model of ``solve``'s int64 +/-1 ``values``, skipping ``__post_init__``: ``fit`` checked the orders."""
        model = object.__new__(cls)
        grid = values.astype(float).reshape(_lattice_shape(orders))
        model.__dict__.update(orders=orders, theta=tuple(values.tolist()), binarized=True, scale=None, theta_grid=grid)
        return model

    @property
    def dim(self) -> int:
        return len(self.orders)

    def multi_indices(self):
        return product(*map(range, _lattice_shape(self.orders)))

    def to_dict(self) -> dict:
        return {
            "type": "bernstein",
            "orders": list(self.orders),
            "theta": list(self.theta),
            "binarized": self.binarized,
            "scale": None
            if self.scale is None
            else {"min": list(self.scale[0]), "max": list(self.scale[1])},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BernsteinClassifier":
        if payload.get("type") != "bernstein":
            raise ValidationError("not a bernstein model payload")
        scale = None
        if "scale" in payload and payload["scale"] is not None:
            scale = (tuple(payload["scale"]["min"]), tuple(payload["scale"]["max"]))
        return cls(
            tuple(payload["orders"]),
            tuple(payload["theta"]),
            bool(payload.get("binarized", False)),
            scale,
        )


def float_points(points, dim: int) -> np.ndarray:
    """(n, dim) float array of a point batch: an array, ``Points`` (``Points.floats``), or an iterable of ``dim``-tuples.

    Every coordinate must be finite as a float: NaN, an infinity, or an int or
    rational beyond float range is a ValidationError.  The array may be
    read-only.
    """
    if isinstance(points, Points):
        if len(points) and points.dim != dim:
            raise ValidationError(f"point has dimension {points.dim}, model expects {dim}")
        return points.floats() if len(points) else np.zeros((0, dim))
    if not isinstance(points, np.ndarray):
        points = [tuple(p) for p in points]
        for p in points:
            if len(p) != dim:
                raise ValidationError(f"point has dimension {len(p)}, model expects {dim}")
    try:
        x = np.array(points, dtype=float)
    except OverflowError:
        raise beyond_float_range("coordinate", (v for p in points for v in p)) from None
    # no points are no points, whatever the width of their array
    if isinstance(points, list) or (x.ndim == 2 and not len(x)):
        x = x.reshape(len(points), dim)
    elif x.ndim != 2:
        raise ValidationError(f"points have shape {x.shape}, model expects dimension {dim}")
    elif x.shape[1] != dim:
        raise ValidationError(f"point has dimension {x.shape[1]}, model expects {dim}")
    if not np.isfinite(x).all():
        raise ValidationError("coordinates must be finite")
    return x


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
    Python floats.  Each dimension's basis vector, from the same log features
    and ``_basis_rows``, is then contracted with the coefficients left, first
    dimension first: one ``dot`` each, no batch arrays.
    """
    x = tuple(x)
    if len(x) != model.dim:
        raise ValidationError(f"point has dimension {len(x)}, model expects {model.dim}")
    try:
        u = [float(v) for v in x]
    except OverflowError:
        raise beyond_float_range("coordinate", x) from None
    if not all(map(math.isfinite, u)):
        raise ValidationError("coordinates must be finite")
    if model.scale is not None:
        u = [(v - lo) / (hi - lo) if hi > lo else 0.5 for v, lo, hi in zip(u, *model.scale)]
    clipped = [min(max(v, 0.0), 1.0) for v in u]
    if clipped != u:
        _warn_at_caller("coordinates outside [0,1] were clamped")
    # numpy's logs, bit-identical to the batch path's; math.log1p differs from them in the last
    # bit on some inputs, which moves the thresholds that bench bisects with this function
    value = model.theta_grid
    for v, k in zip(clipped, model.orders):
        b = np.dot((1.0, np.log(v) if v > 0.0 else _LOG_ZERO, np.log1p(-v) if v < 1.0 else _LOG_ZERO), _basis_rows(k))
        value = np.exp(b, out=b).dot(value.reshape(k + 1, -1))
    return float(value[0])


def predict(model: BernsteinClassifier, x) -> int:
    return 1 if evaluate(model, x) >= 0 else -1


def binarize(model: BernsteinClassifier) -> BernsteinClassifier:
    """Snap every coefficient to its sign (sign(0) = +1); idempotent.

    At a hinge-LP optimum the snapped classifier is again an optimum, so the
    empirical hinge risk does not increase.
    """
    if model.binarized:
        return model
    theta = tuple(1 if t >= 0 else -1 for t in model.theta)
    return BernsteinClassifier(model.orders, theta, True, model.scale)


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
    if any(k > MAX_ORDER_PER_DIM for k in orders):
        raise ValidationError(f"orders are capped at {MAX_ORDER_PER_DIM} per dimension")
    size = math.prod(shape)
    if size > MAX_LATTICE_SIZE:
        raise ValidationError(f"coefficient lattice of size {size} exceeds {MAX_LATTICE_SIZE}")
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
    coeff = np.zeros((shape[0], size // shape[0]))
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
