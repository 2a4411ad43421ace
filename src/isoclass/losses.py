"""Surrogate loss functions and their conditional-risk calibration quantities.

Six built-in losses are supported: the 0-1 loss, hinge (with a positive
margin scale ``c``), exponential, logistic, quadratic and truncated
quadratic.  For each we expose

* ``phi``               -- the pointwise loss value phi(margin),
* ``delta_c``           -- the closed-form conditional-risk gap DeltaC(eta),
* ``c_plus_minus``      -- the closed-form minimal conditional risks with the
                           classifier value confined to [0, 1] and [-1, 0),
* ``delta_c_weighted``  -- the weighted-classification analogue in terms of
                           mu+ = w+ * eta and mu- = w- * (1 - eta).

Rational inputs (int / Fraction) stay rational wherever the closed form is a
rational function: the gaps and minimal conditional risks of the 0-1, hinge,
quadratic and truncated quadratic losses.  The exponential and logistic forms
are evaluated in binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._numeric import ValidationError, check_finite, is_exact

KINDS = (
    "zero_one",
    "hinge",
    "exponential",
    "logistic",
    "quadratic",
    "truncated_quadratic",
)

#: CLI / config spellings of each loss kind.
_CLI_NAMES = {
    "zero-one": "zero_one",
    "exp": "exponential",
    "logistic": "logistic",
    "quad": "quadratic",
    "tquad": "truncated_quadratic",
}
_KIND_TO_CLI = {kind: cli for cli, kind in _CLI_NAMES.items()}

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Loss:
    """A surrogate loss kind; ``scale`` is the hinge slope c > 0 (ignored otherwise)."""

    kind: str
    scale: object = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        if self.kind == "hinge":
            check_finite(self.scale, "hinge scale")
            if not self.scale > 0:
                raise ValidationError(f"hinge scale must be > 0, got {self.scale!r}")
        elif self.scale != 1:
            raise ValidationError(f"{self.kind} does not take a scale parameter")

    @property
    def name(self) -> str:
        if self.kind == "hinge":
            return f"hinge:{self.scale}"
        return _KIND_TO_CLI[self.kind]


def zero_one() -> Loss:
    return Loss("zero_one")


def hinge(scale=1) -> Loss:
    return Loss("hinge", scale)


def exponential() -> Loss:
    return Loss("exponential")


def logistic() -> Loss:
    return Loss("logistic")


def quadratic() -> Loss:
    return Loss("quadratic")


def truncated_quadratic() -> Loss:
    return Loss("truncated_quadratic")


def parse_loss(text: str) -> Loss:
    """Parse a CLI loss spec: zero-one | hinge:<c> | exp | logistic | quad | tquad."""
    token = text.strip()
    if token in _CLI_NAMES:
        return Loss(_CLI_NAMES[token])
    if token == "hinge":
        return hinge(1)
    if token.startswith("hinge:"):
        raw = token.split(":", 1)[1]
        try:
            scale = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad hinge scale {raw!r}") from exc
        return hinge(scale)
    raise ValidationError(f"unknown loss spec {text!r}")


def _log1pexp(t: float) -> float:
    # log(1 + e^t), stable on both tails
    if t > 0:
        return t + math.log1p(math.exp(-t))
    return math.log1p(math.exp(t))


def phi(loss: Loss, margin):
    """Loss value at a margin (margin = y * f(x))."""
    check_finite(margin, "margin")
    kind = loss.kind
    if kind == "zero_one":
        return 1 if margin <= 0 else 0
    if kind == "hinge":
        slack = 1 - margin
        return loss.scale * slack if slack > 0 else 0 * loss.scale
    if kind == "exponential":
        return math.exp(-margin)
    if kind == "logistic":
        return _log1pexp(-float(margin))
    if kind == "quadratic":
        return (1 - margin) ** 2
    # truncated quadratic
    slack = 1 - margin
    return slack**2 if slack > 0 else 0


def _check_eta(eta) -> None:
    check_finite(eta, "eta")
    if not (0 <= eta <= 1):
        raise ValidationError(f"eta must lie in [0, 1], got {eta!r}")


def _entropy_term(eta: float) -> float:
    # log(2 eta^eta (1-eta)^(1-eta)) with the 0 log 0 = 0 convention
    e = float(eta)
    acc = math.log(2.0)
    if e > 0.0:
        acc += e * math.log(e)
    if e < 1.0:
        acc += (1.0 - e) * math.log(1.0 - e)
    return acc


def delta_c(loss: Loss, eta):
    """Closed-form conditional-risk gap DeltaC(eta), positive below eta = 1/2."""
    _check_eta(eta)
    kind = loss.kind
    if kind == "zero_one":
        return 1 - 2 * eta
    if kind == "hinge":
        return loss.scale * (1 - 2 * eta)
    if kind in ("quadratic", "truncated_quadratic"):
        gap = (1 - 2 * eta) ** 2
        return gap if eta < _HALF else -gap
    if kind == "exponential":
        root = 2.0 * math.sqrt(float(eta) * (1.0 - float(eta)))
        return 1.0 - root if eta < _HALF else root - 1.0
    # logistic
    term = _entropy_term(eta)
    return term if eta < _HALF else -term


def c_plus_minus(loss: Loss, eta):
    """(inf over f in [0,1], inf over f in [-1,0)) of the conditional risk.

    Every infimum is a closed form.  For the smooth losses the conditional
    risk C(eta, f) = eta phi(f) + (1 - eta) phi(-f) is convex in f, so each
    infimum is C at its unconstrained minimiser clipped to the closed interval
    (the infimum over [-1, 0) is the same as over [-1, 0] for continuous
    losses).  That minimiser is 2 eta - 1 for the quadratic and truncated
    quadratic losses, so their results stay rational on rational eta; it is
    the log-odds log(eta / (1 - eta)) for logistic and half of it for
    exponential, taken in binary64 from float(eta) (infinite where that float
    is 0 or 1).
    """
    _check_eta(eta)
    kind = loss.kind
    if kind == "zero_one":
        return (1 - eta, eta)
    if kind == "hinge":
        c = loss.scale
        if eta > _HALF:
            return (c * (1 - 2 * eta) + c, c)
        return (c, 2 * c * eta)
    if kind in ("quadratic", "truncated_quadratic"):
        best = 2 * eta - 1
    else:
        eta = float(eta)
        if 0.0 < eta < 1.0:
            best = math.log(eta / (1.0 - eta))
        else:
            best = math.inf if eta else -math.inf
        if kind == "exponential":
            best /= 2

    def risk(f):
        return eta * phi(loss, f) + (1 - eta) * phi(loss, -f)

    return (risk(min(max(best, 0), 1)), risk(min(max(best, -1), 0)))


def delta_c_weighted(loss: Loss, w_plus, w_minus, eta):
    """Weighted conditional-risk gap in terms of mu+ = w+ eta, mu- = w- (1 - eta)."""
    _check_eta(eta)
    for w, label in ((w_plus, "w_plus"), (w_minus, "w_minus")):
        check_finite(w, label)
        if w < 0:
            raise ValidationError(f"{label} must be nonnegative, got {w!r}")
    mu_p = w_plus * eta
    mu_m = w_minus * (1 - eta)
    kind = loss.kind
    if kind == "zero_one":
        return -mu_p + mu_m
    if kind == "hinge":
        return loss.scale * (-mu_p + mu_m)
    if kind in ("quadratic", "truncated_quadratic"):
        total = mu_p + mu_m
        if total == 0:
            return 0 if is_exact(total) else 0.0
        gap = (mu_p - mu_m) ** 2 / total
        return gap if mu_p <= mu_m else -gap
    if kind == "exponential":
        gap = (math.sqrt(mu_p) - math.sqrt(mu_m)) ** 2
        return gap if mu_p <= mu_m else -gap
    # logistic; the gap is mu+ log(2mu+/(mu+ + mu-)) + mu- log(2mu-/(mu+ + mu-)),
    # nonnegative on mu+ <= mu- and flipped in sign on the other branch
    p, m = float(mu_p), float(mu_m)
    total = p + m
    if total == 0.0:
        return 0.0
    gap = 0.0
    if p > 0.0:
        gap += p * math.log(2.0 * p / total)
    if m > 0.0:
        gap += m * math.log(2.0 * m / total)
    return gap if mu_p <= mu_m else -gap


def is_classification_calibrated(loss) -> bool:
    """Whether a loss is classification-calibrated.

    All six built-in losses are calibrated.  A user-supplied convex loss
    (any callable margin -> value) is tested by the derivative condition at
    zero, phi'(0) < 0, via a central finite difference.
    """
    if isinstance(loss, Loss):
        return True
    if not callable(loss):
        raise ValidationError("expected a Loss or a callable margin -> value")
    h = 1e-6
    derivative = (loss(h) - loss(-h)) / (2.0 * h)
    return derivative < -1e-9
