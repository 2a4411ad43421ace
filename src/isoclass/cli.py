"""Command-line surface tying the library together.

Subcommands: fit-monotone, fit-bernstein, predict, policy-weights,
policy-fit, calibration-table, reproduce-examples, simulate-regret.
Exit codes: 0 success, 2 validation failure (bad flags or bad input data),
1 internal error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

# Only the standard library is imported here, so that ``--help`` and a flag
# error load no numpy; each command imports the modules it runs.  The parser's
# defaults are the library's: str(policy.DEFAULT_KAPPA), kept as text so that
# it parses exactly unless --float is given, order.DEFAULT_NODE_LIMIT and
# sorted(bench.DGPS).
DEFAULT_KAPPA = "0.01"
DEFAULT_NODE_LIMIT = 15
DGP_NAMES = ["smooth", "step", "step2d"]


def _parse_ints(text: str, flag: str):
    from ._numeric import ValidationError
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad {flag} value {text!r}") from exc
    if not values:
        raise ValidationError(f"{flag} must list at least one integer")
    return values


def _parse_orders(text: str):
    from ._numeric import ValidationError
    orders = _parse_ints(text, "--orders")
    if any(k < 1 for k in orders):
        raise ValidationError(f"--orders must be integers >= 1, got {text!r}")
    return orders


def _set_label(indices) -> str:
    return "|".join(str(i) for i in indices) if indices else "-"


def _weight_points(sample):
    """The weights of ``sample`` as one ``Points`` column: exact numerators over ``_weight_scale``, or float64."""
    from ._numeric import Points
    scale = sample._weight_scale
    return Points(sample._weights[:, None], None if scale is None else (scale,))


def _rescale_sample(sample):
    """Min-max map of covariates into the unit cube (``Points.rescaled``); returns (sample, (mins, maxs)), the bounds as floats.

    The weights and labels are passed on in the columns the sample keeps.
    """
    from . import bernstein
    from .risks import WeightedSample
    unit, bounds = sample._points.rescaled()
    scale = bernstein.float_points(bounds, sample.dim).tolist()
    return WeightedSample(_weight_points(sample), sample._labels, unit), tuple(map(tuple, scale))


def _load_sample(args):
    from . import io
    return io.load_sample(args.input, "weighted" if args.weighted else "plain", rational=not args.float)


def _cmd_fit_monotone(args) -> int:
    from . import io, monotone
    sample = _load_sample(args)
    model = monotone.fit(sample)
    io.save_model(args.out, model, compact=args.compact)
    print(f"fitted monotone classifier on {sample.n} rows -> {args.out}")
    return 0


def _cmd_fit_bernstein(args) -> int:
    from . import bernstein, io
    sample = _load_sample(args)
    orders = _parse_orders(args.orders) if args.orders else bernstein.suggest_orders(sample.n, sample.dim)
    scale = None
    # an empty sample is left for fit to refuse
    if args.rescale and sample.n:
        sample, scale = _rescale_sample(sample)
    model = bernstein.fit(sample, orders)
    if scale is not None:
        model = bernstein.BernsteinClassifier(model.orders, model.theta, scale)
    io.save_model(args.out, model)
    print(f"fitted bernstein classifier (orders {','.join(map(str, orders))}) -> {args.out}")
    return 0


def _cmd_predict(args) -> int:
    from . import io
    model = io.load_model(args.model)
    points = io.load_points(args.input, rational=not args.float)
    kind = io.model_module(model)
    labels = kind.predict_batch(model, points).tolist()
    header = [f"x{i + 1}" for i in range(points.dim if len(points) else model.dim)] + ["label"]
    io.write_csv(args.out, header, [p + [y] for p, y in zip(points.texts(), labels)])
    print(f"wrote {len(labels)} predictions -> {args.out}")
    return 0


def _trial_sample(args):
    """The trial records of ``--in``, the overlap bound ``--kappa`` and their IPW-weighted sample."""
    from . import io, policy
    rational = not args.float
    propensity = io.parse_number(args.propensity, "--propensity", rational) if args.propensity else None
    records = io.load_trials(args.input, rational=rational, propensity=propensity)
    kappa = io.parse_number(args.kappa, "--kappa", rational)
    return records, kappa, policy.to_weighted_sample(records, kappa)


def _cmd_policy_weights(args) -> int:
    from . import io, policy
    records, kappa, sample = _trial_sample(args)
    header = ["w", "y"] + [f"x{i + 1}" for i in range(sample.dim)]
    # exact weight numerators over their scale are written from them, as the str of each Fraction
    weights = _weight_points(sample).texts()
    io.write_csv(args.out, header, [w + [y] + p for w, y, p in zip(weights, sample.labels, sample._points.texts())])
    bound = policy.max_weight_bound(records, kappa)
    print(f"wrote {sample.n} weighted rows -> {args.out} (weight bound {float(bound):g})")
    return 0


def _cmd_policy_fit(args) -> int:
    from . import io, monotone, policy
    records, _, sample = _trial_sample(args)
    model = monotone.fit(sample)
    io.save_model(args.out, model, compact=args.compact)
    welfare = policy.welfare_estimate(model, records)
    print(f"fitted treatment policy on {sample.n} records -> {args.out}")
    print(f"estimated welfare of the fitted policy: {float(welfare):.6g}")
    return 0


def _cmd_calibration_table(args) -> int:
    from . import bench, io
    from .losses import parse_loss
    dist = io.load_distribution(args.dist, rational=not args.float)
    losses = [parse_loss(tok) for tok in args.losses.split(",")]
    report = bench.calibration_table(dist, losses, node_limit=args.node_limit)
    # the classification column doubles as the zero-one surrogate risk
    names = [loss.name for loss in losses if loss.kind != "zero_one"]
    header = ["set", "risk_zero_one"] + [f"risk_{n}" for n in names]
    rows = []
    for i, indices in enumerate(report.sets):
        rows.append(
            [_set_label(indices), report.classification[i]]
            + [report.surrogate[n][i] for n in names]
        )
    io.write_csv(args.out, header, rows)
    for (a, b), verdict in report.agreements.items():
        if verdict.agree:
            print(f"ordering agreement: {a} vs {b}: agree")
        else:
            wa, wb = verdict.witness
            print(
                f"ordering agreement: {a} vs {b}: DISAGREE on sets "
                f"{_set_label(wa)} and {_set_label(wb)}"
            )
    if args.summary:
        payload = {
            "sets": [list(s) for s in report.sets],
            "agreements": {
                f"{a} vs {b}": {
                    "agree": v.agree,
                    "witness": [list(w) for w in v.witness] if v.witness else None,
                }
                for (a, b), v in report.agreements.items()
            },
        }
        io.write_json(args.summary, payload)
    print(f"wrote calibration table ({len(rows)} sets) -> {args.out}")
    return 0


def _over(risk, denom: int) -> str:
    scaled = risk * denom
    if scaled.denominator == 1:
        return f"{scaled.numerator}/{denom}"
    return str(risk)


def _cmd_reproduce_examples(args) -> int:
    from . import bench, io
    one = bench.reproduce_example_1()
    two = bench.reproduce_example_2()
    lines = []
    for row in one.per_loss:
        lines.append(
            f"example1 loss={row.loss} argmin={{{_set_label(row.argmin_set)}}} "
            f"classification_risk={_over(row.classification_risk, 30)} "
            f"(~{float(row.classification_risk):.2f})"
        )
    lines.append(
        f"example2 exhaustive argmin={{{_set_label(two.exhaustive_set)}}} "
        f"risk={two.exhaustive_risk} (~{float(two.exhaustive_risk):.2f})"
    )
    lines.append(
        f"example2 hinge-over-linear vertex=({two.linear_vertex[0]},{two.linear_vertex[1]}) "
        f"set={{{_set_label(two.linear_set)}}} risk={two.linear_risk} "
        f"(~{float(two.linear_risk):.2f})"
    )
    text = "\n".join(lines)
    print(text)
    if args.out:
        payload = {
            "example1": [
                {
                    "loss": row.loss,
                    "argmin_set": list(row.argmin_set),
                    "classification_risk": str(row.classification_risk),
                    "classification_risk_over_30": _over(row.classification_risk, 30),
                }
                for row in one.per_loss
            ],
            "example2": {
                "exhaustive_set": list(two.exhaustive_set),
                "exhaustive_risk": str(two.exhaustive_risk),
                "linear_vertex": [str(v) for v in two.linear_vertex],
                "linear_set": list(two.linear_set),
                "linear_risk": str(two.linear_risk),
            },
        }
        io.write_json(args.out, payload)
        print(f"wrote report -> {args.out}")
    return 0


def _cmd_simulate_regret(args) -> int:
    from . import bench, io
    ns = _parse_ints(args.ns, "--ns")
    orders = _parse_orders(args.orders) if args.orders else None
    curve = bench.simulate_regret(
        args.dgp, ns, args.reps, args.seed, estimator=args.estimator, orders=orders
    )
    rows = [
        [n, mean, se, curve.reps]
        for n, mean, se in zip(curve.sample_sizes, curve.mean_regret, curve.std_error)
    ]
    io.write_csv(args.out, ["n", "mean_regret", "se", "reps"], rows)
    if args.summary:
        io.write_json(args.summary, curve.as_dict())
    for n, mean, se in zip(curve.sample_sizes, curve.mean_regret, curve.std_error):
        print(f"n={n}: mean regret {mean:.6f} (se {se:.6f})")
    if curve.negative_count:
        print(f"note: {curve.negative_count} replications had negative raw regret")
    print(f"wrote regret curve -> {args.out}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` leaves it as it is, and help is laid out at the terminal
    width read when it is printed, so ``main`` can reuse it call after call.
    """
    parser = argparse.ArgumentParser(
        prog="isoclass",
        description="Hinge-loss constrained classification and policy learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--float", action="store_true", help="parse numbers as binary64 instead of exact rationals")

    p = sub.add_parser("fit-monotone", help="fit the monotone hinge-LP classifier")
    p.add_argument("--in", dest="input", required=True, help="CSV sample (y,x1,..[), or w,y,x1,.. with --weighted]")
    p.add_argument("--weighted", action="store_true", help="input carries a weight column")
    p.add_argument("--compact", action="store_true", help="store only the decision frontiers")
    add_common(p)
    p.set_defaults(run=_cmd_fit_monotone)

    p = sub.add_parser("fit-bernstein", help="fit the Bernstein sieve classifier")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--orders", help="comma-separated per-dimension orders (default: rate-based suggestion)")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--rescale", action="store_true", help="min-max rescale covariates into the unit cube")
    add_common(p)
    p.set_defaults(run=_cmd_fit_bernstein)

    p = sub.add_parser("predict", help="predict labels at new points")
    p.add_argument("--model", required=True, help="model JSON produced by a fit command")
    p.add_argument("--in", dest="input", required=True, help="CSV of points (x1,..,xd)")
    add_common(p)
    p.set_defaults(run=_cmd_predict)

    p = sub.add_parser("policy-weights", help="turn trial records into a weighted sample")
    p.add_argument("--in", dest="input", required=True, help="CSV (z,d,x1,..[,e])")
    p.add_argument("--kappa", default=DEFAULT_KAPPA, help="strict overlap bound (default %(default)s)")
    p.add_argument("--propensity", help="constant propensity when the e column is absent")
    add_common(p)
    p.set_defaults(run=_cmd_policy_weights)

    p = sub.add_parser("policy-fit", help="trial records -> IPW weights -> monotone policy")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--kappa", default=DEFAULT_KAPPA)
    p.add_argument("--propensity")
    p.add_argument("--compact", action="store_true")
    add_common(p)
    p.set_defaults(run=_cmd_policy_fit)

    p = sub.add_parser("calibration-table", help="set risks and loss-ordering agreement")
    p.add_argument("--dist", required=True, help="CSV distribution (mass,eta,x1,..)")
    p.add_argument("--losses", required=True, help="comma-separated losses, e.g. zero-one,hinge:1,exp")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--summary", help="optional JSON summary path")
    add_common(p)
    p.set_defaults(run=_cmd_calibration_table)

    p = sub.add_parser("reproduce-examples", help="re-derive the worked numerical examples")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(run=_cmd_reproduce_examples)

    p = sub.add_parser("simulate-regret", help="Monte Carlo regret curve on a known design")
    p.add_argument("--dgp", default="step", help=f"one of {DGP_NAMES}")
    p.add_argument("--ns", default="100,400,1600", help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--estimator", default="monotone", choices=("monotone", "bernstein"))
    p.add_argument("--orders", help="fixed Bernstein orders (default: rate-based)")
    p.add_argument("--summary", help="optional JSON summary path")
    add_common(p)
    p.set_defaults(run=_cmd_simulate_regret)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from ._numeric import ValidationError
    try:
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
