"""Hinge-loss constrained classification and policy learning.

Exact risk evaluation over finite prediction-set classes, monotone
classification via exact isotone linear optimization, a Bernstein-polynomial
sieve estimator, inverse-propensity policy-learning adapters, and a
reproduction harness for the worked numerical examples and regret curves.
"""

from ._numeric import ValidationError
from .bench import (
    CalibrationReport,
    RegretCurve,
    calibration_table,
    reproduce_example_1,
    reproduce_example_2,
    simulate_regret,
)
from .bernstein import BernsteinClassifier, basis, binarize, suggest_orders
from .bernstein import evaluate as bernstein_evaluate
from .bernstein import evaluate_batch as bernstein_evaluate_batch
from .bernstein import fit as fit_bernstein
from .bernstein import predict as bernstein_predict
from .bernstein import predict_batch as bernstein_predict_batch
from .isotone import IsotoneProblem, brute_force_solve, solve
from .losses import (
    Loss,
    c_plus_minus,
    delta_c,
    delta_c_weighted,
    exponential,
    hinge,
    is_classification_calibrated,
    logistic,
    parse_loss,
    phi,
    quadratic,
    truncated_quadratic,
    zero_one,
)
from .monotone import MonotoneClassifier
from .monotone import fit as fit_monotone
from .monotone import predict as monotone_predict
from .monotone import predict_batch as monotone_predict_batch
from .order import DominanceDag, build_dag, dominates, enumerate_up_sets, lattice_dag
from .policy import (
    TrialRecord,
    max_weight_bound,
    to_weighted_sample,
    welfare_constant,
    welfare_estimate,
)
from .risks import (
    DiscreteDistribution,
    PredictionSet,
    WeightedSample,
    classification_risk_at_set,
    empirical_risk,
    surrogate_risk_at_set,
    weighted_risk_at_set,
)

__version__ = "0.1.0"

__all__ = [
    "BernsteinClassifier",
    "CalibrationReport",
    "DiscreteDistribution",
    "DominanceDag",
    "IsotoneProblem",
    "Loss",
    "MonotoneClassifier",
    "PredictionSet",
    "RegretCurve",
    "TrialRecord",
    "ValidationError",
    "WeightedSample",
    "basis",
    "bernstein_evaluate",
    "bernstein_evaluate_batch",
    "bernstein_predict",
    "bernstein_predict_batch",
    "binarize",
    "brute_force_solve",
    "build_dag",
    "c_plus_minus",
    "calibration_table",
    "classification_risk_at_set",
    "delta_c",
    "delta_c_weighted",
    "dominates",
    "empirical_risk",
    "enumerate_up_sets",
    "exponential",
    "fit_bernstein",
    "fit_monotone",
    "hinge",
    "is_classification_calibrated",
    "lattice_dag",
    "logistic",
    "max_weight_bound",
    "monotone_predict",
    "monotone_predict_batch",
    "parse_loss",
    "phi",
    "quadratic",
    "reproduce_example_1",
    "reproduce_example_2",
    "simulate_regret",
    "solve",
    "suggest_orders",
    "surrogate_risk_at_set",
    "to_weighted_sample",
    "truncated_quadratic",
    "weighted_risk_at_set",
    "welfare_constant",
    "welfare_estimate",
    "zero_one",
]
