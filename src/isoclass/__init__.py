"""Hinge-loss constrained classification and policy learning.

Exact risk evaluation over finite prediction-set classes, monotone
classification via exact isotone linear optimization, a Bernstein-polynomial
sieve estimator, inverse-propensity policy-learning adapters, and a
reproduction harness for the worked numerical examples and regret curves.

Importing the package loads none of its modules (nor numpy): each public name
is imported from its module on first use (PEP 562), then kept here.
"""

import importlib

__version__ = "0.1.0"

# public name -> "module.attribute" it is imported from
_EXPORTS = {
    "ValidationError": "_numeric.ValidationError",
    "CalibrationReport": "bench.CalibrationReport", "RegretCurve": "bench.RegretCurve",
    "calibration_table": "bench.calibration_table", "reproduce_example_1": "bench.reproduce_example_1",
    "reproduce_example_2": "bench.reproduce_example_2", "simulate_regret": "bench.simulate_regret",
    "BernsteinClassifier": "bernstein.BernsteinClassifier", "basis": "bernstein.basis",
    "bernstein_evaluate": "bernstein.evaluate", "bernstein_evaluate_batch": "bernstein.evaluate_batch",
    "bernstein_predict": "bernstein.predict", "bernstein_predict_batch": "bernstein.predict_batch",
    "binarize": "bernstein.binarize", "fit_bernstein": "bernstein.fit",
    "suggest_orders": "bernstein.suggest_orders",
    "IsotoneProblem": "isotone.IsotoneProblem", "brute_force_solve": "isotone.brute_force_solve",
    "solve": "isotone.solve",
    "Loss": "losses.Loss", "c_plus_minus": "losses.c_plus_minus", "delta_c": "losses.delta_c",
    "delta_c_weighted": "losses.delta_c_weighted", "exponential": "losses.exponential", "hinge": "losses.hinge",
    "is_classification_calibrated": "losses.is_classification_calibrated", "logistic": "losses.logistic",
    "parse_loss": "losses.parse_loss", "phi": "losses.phi", "quadratic": "losses.quadratic",
    "truncated_quadratic": "losses.truncated_quadratic", "zero_one": "losses.zero_one",
    "MonotoneClassifier": "monotone.MonotoneClassifier", "fit_monotone": "monotone.fit",
    "monotone_predict": "monotone.predict", "monotone_predict_batch": "monotone.predict_batch",
    "DominanceDag": "order.DominanceDag", "build_dag": "order.build_dag", "dominates": "order.dominates",
    "enumerate_up_sets": "order.enumerate_up_sets", "lattice_dag": "order.lattice_dag",
    "TrialRecord": "policy.TrialRecord", "max_weight_bound": "policy.max_weight_bound",
    "to_weighted_sample": "policy.to_weighted_sample", "welfare_constant": "policy.welfare_constant",
    "welfare_estimate": "policy.welfare_estimate",
    "DiscreteDistribution": "risks.DiscreteDistribution", "PredictionSet": "risks.PredictionSet",
    "WeightedSample": "risks.WeightedSample", "classification_risk_at_set": "risks.classification_risk_at_set",
    "empirical_risk": "risks.empirical_risk", "surrogate_risk_at_set": "risks.surrogate_risk_at_set",
    "weighted_risk_at_set": "risks.weighted_risk_at_set",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _EXPORTS[name].split(".")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), attribute)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
