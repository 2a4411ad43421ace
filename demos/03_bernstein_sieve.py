"""Approximate a monotone decision boundary with the Bernstein sieve.

Fits the lattice-monotone Bernstein classifier at several polynomial orders
on one-dimensional data with a step boundary at x = 0.6, prints the
coefficient vectors and the implied decision thresholds, and shows the
rate-based order suggestion.
"""

import numpy as np

from isoclass import (
    WeightedSample,
    bernstein_evaluate,
    fit_bernstein,
    suggest_orders,
)

rng = np.random.default_rng(3)
n = 400
xs = rng.random(n)
eta = np.where(xs >= 0.6, 0.85, 0.2)
ys = np.where(rng.random(n) < eta, 1, -1)
sample = WeightedSample.unweighted([int(y) for y in ys], [(float(x),) for x in xs])


def threshold(model) -> float:
    lo, hi = 0.0, 1.0
    if bernstein_evaluate(model, (0.0,)) >= 0:
        return 0.0
    if bernstein_evaluate(model, (1.0,)) < 0:
        return 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bernstein_evaluate(model, (mid,)) >= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


print(f"true boundary at x = 0.6, n = {n}")
for k in (1, 2, 4, 8, 16):
    model = fit_bernstein(sample, (k,))
    signs = "".join("+" if t > 0 else "-" for t in model.theta)
    print(f"  order {k:>2}: theta signs {signs:<17} -> decision threshold {threshold(model):.3f}")

suggested = suggest_orders(n, 1)
model = fit_bernstein(sample, suggested)
print(f"\nrate-based suggestion for n={n}: orders {suggested}")
print(f"  threshold {threshold(model):.3f}")
print("\nsample of the fitted polynomial (its coefficients are +/-1):")
for x in (0.0, 0.3, 0.55, 0.65, 1.0):
    print(f"  f({x:.2f}) = {bernstein_evaluate(model, (x,)):+.3f}")
