import dataclasses
import json
import math
from fractions import Fraction
import os
from pathlib import Path
import random
import sys

import pytest

from isoclass import WeightedSample, bernstein_predict, fit_bernstein, monotone_predict, simulate_regret
from isoclass.cli import _rescale_sample, build_parser, main
from isoclass.io import load_model, load_sample


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def plain_csv(tmp_path):
    return write(tmp_path / "plain.csv", "y,x1\n1,0.2\n-1,0.8\n1,0.9\n-1,0.3\n")


def test_fit_monotone_predict_round_trip(tmp_path, plain_csv, capsys):
    model_path = str(tmp_path / "model.json")
    assert main(["fit-monotone", "--in", plain_csv, "--out", model_path]) == 0
    points_path = write(tmp_path / "pts.csv", "x1\n0.2\n0.8\n0.9\n0.3\n")
    preds_path = str(tmp_path / "preds.csv")
    assert main(["predict", "--model", model_path, "--in", points_path, "--out", preds_path]) == 0
    capsys.readouterr()
    rows = Path(preds_path).read_text().strip().splitlines()[1:]
    labels = [int(r.split(",")[1]) for r in rows]
    # predicting at the training points reproduces the fitted in-sample labels
    model = load_model(model_path)
    support_value = dict(zip(model.support, model.values))
    assert labels == [support_value[(Fraction(x),)] for x in ("0.2", "0.8", "0.9", "0.3")]


def test_model_save_load_predict_bit_identical(tmp_path, capsys):
    rng = random.Random(5)
    rows = ["y,x1,x2"]
    for _ in range(40):
        rows.append(f"{rng.choice((-1, 1))},{rng.random():.17g},{rng.random():.17g}")
    data = write(tmp_path / "d.csv", "\n".join(rows) + "\n")
    mono_path, bern_path = str(tmp_path / "m.json"), str(tmp_path / "b.json")
    assert main(["fit-monotone", "--in", data, "--float", "--out", mono_path]) == 0
    assert main(["fit-bernstein", "--in", data, "--float", "--orders", "2,2", "--out", bern_path]) == 0
    capsys.readouterr()
    mono, bern = load_model(mono_path), load_model(bern_path)
    mono2, bern2 = load_model(mono_path), load_model(bern_path)
    for _ in range(1000):
        x = (rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2))
        assert monotone_predict(mono, x) == monotone_predict(mono2, x)
        xc = (min(1.0, max(0.0, x[0])), min(1.0, max(0.0, x[1])))
        assert bernstein_predict(bern, xc) == bernstein_predict(bern2, xc)


def test_fit_bernstein_rejects_zero_order(tmp_path, plain_csv, capsys):
    code = main(["fit-bernstein", "--in", plain_csv, "--orders", "0,3", "--out", str(tmp_path / "b.json")])
    capsys.readouterr()
    assert code == 2


def test_compact_monotone_model_round_trip(tmp_path, plain_csv, capsys):
    full_path, compact_path = str(tmp_path / "f.json"), str(tmp_path / "c.json")
    assert main(["fit-monotone", "--in", plain_csv, "--out", full_path]) == 0
    assert main(["fit-monotone", "--in", plain_csv, "--compact", "--out", compact_path]) == 0
    capsys.readouterr()
    full, compact = load_model(full_path), load_model(compact_path)
    rng = random.Random(3)
    for _ in range(200):
        x = (rng.uniform(-0.5, 1.5),)
        assert monotone_predict(full, x) == monotone_predict(compact, x)


def test_policy_weights_and_fit(tmp_path, capsys):
    trial = write(
        tmp_path / "trial.csv",
        "z,d,x1,e\n2,1,0.3,0.5\n-3,-1,0.8,0.25\n1.5,1,0.6,0.5\n-1,1,0.1,0.5\n",
    )
    weights_path = str(tmp_path / "w.csv")
    assert main(["policy-weights", "--in", trial, "--kappa", "0.05", "--out", weights_path]) == 0
    body = Path(weights_path).read_text().splitlines()
    assert body[0] == "w,y,x1"
    assert len(body) == 5
    policy_path = str(tmp_path / "p.json")
    assert main(["policy-fit", "--in", trial, "--out", policy_path]) == 0
    capsys.readouterr()
    assert load_model(policy_path).values  # fitted something


def test_policy_weights_needs_propensity_when_column_absent(tmp_path, capsys):
    trial = write(tmp_path / "t.csv", "z,d,x1\n2,1,0.3\n")
    out = str(tmp_path / "w.csv")
    assert main(["policy-weights", "--in", trial, "--out", out]) == 2
    assert main(["policy-weights", "--in", trial, "--propensity", "0.5", "--out", out]) == 0
    capsys.readouterr()


def test_reproduce_examples_report_values(tmp_path, capsys):
    report_path = str(tmp_path / "rep.json")
    assert main(["reproduce-examples", "--out", report_path]) == 0
    out = capsys.readouterr().out
    assert "14/30" in out
    assert "8/15" in out
    payload = json.loads(Path(report_path).read_text())
    assert payload["example2"]["linear_risk"] == "8/15"
    over_30 = {row["loss"]: row["classification_risk_over_30"] for row in payload["example1"]}
    assert over_30["hinge:1"] == "14/30"
    assert over_30["exp"] == "16/30"


def test_calibration_table_csv(tmp_path, capsys):
    dist = write(tmp_path / "dist.csv", "mass,eta,x1\n1/3,0.9,0\n1/3,0.3,1\n1/3,0.2,2\n")
    out = str(tmp_path / "cal.csv")
    assert main(["calibration-table", "--dist", dist, "--losses", "zero-one,hinge:1,exp", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "zero-one vs hinge:1: agree" in text
    assert "zero-one vs exp: DISAGREE" in text
    header = Path(out).read_text().splitlines()[0]
    assert header == "set,risk_zero_one,risk_hinge:1,risk_exp"


def test_calibration_table_pins_example_1_for_every_loss(tmp_path, capsys):
    dist = write(tmp_path / "dist.csv", "mass,eta,x1\n1/3,9/10,0\n1/3,3/10,1\n1/3,1/5,2\n")
    out = str(tmp_path / "cal.csv")
    losses = "zero-one,hinge:1,exp,logistic,quad,tquad"
    assert main(["calibration-table", "--dist", dist, "--losses", losses, "--out", out]) == 0
    capsys.readouterr()
    assert Path(out).read_text().splitlines() == [
        "set,risk_zero_one,risk_hinge:1,risk_exp,risk_logistic,risk_quad,risk_tquad",
        "-,7/15,2/3,0.9055050463303893,0.6057577233776872,62/75,62/75",
        "2,2/3,13/15,0.972171712997056,0.6657195543915946,71/75,71/75",
        "1|2,4/5,1,1.0,0.6931471805599453,1,1",
        "0|1|2,8/15,11/15,0.8676398933000675,0.5998520162127045,59/75,59/75",
    ]


def test_simulate_regret_csv(tmp_path, capsys):
    out = str(tmp_path / "curve.csv")
    summary = str(tmp_path / "curve.json")
    code = main([
        "simulate-regret", "--dgp", "step", "--ns", "40,80", "--reps", "4",
        "--seed", "3", "--out", out, "--summary", summary,
    ])
    capsys.readouterr()
    assert code == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "n,mean_regret,se,reps"
    assert len(lines) == 3
    assert json.loads(Path(summary).read_text())["reps"] == 4
    # the summary is as_dict of the curve: its fields in order, each tuple written as a list
    assert Path(summary).read_text() == SUMMARY_STEP_40_80
    curve = simulate_regret("step", (40, 80), 4, 3)
    as_dict = curve.as_dict()
    assert list(as_dict) == [f.name for f in dataclasses.fields(curve)]
    assert [type(as_dict[k]) for k in ("sample_sizes", "mean_regret", "std_error")] == [list] * 3


SUMMARY_STEP_40_80 = """{
  "dgp": "step",
  "estimator": "monotone",
  "sample_sizes": [
    40,
    80
  ],
  "mean_regret": [
    0.047688113857106085,
    0.02094056323597812
  ],
  "std_error": [
    0.02456134717848654,
    0.013383549159332006
  ],
  "reps": 4,
  "seed": 3,
  "negative_count": 0
}
"""


def test_malformed_csv_reports_line_and_writes_nothing(tmp_path, capsys):
    bad = write(tmp_path / "bad.csv", "y,x1\n1,0.2\n5,0.3\n")
    out = str(tmp_path / "model.json")
    assert main(["fit-monotone", "--in", bad, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    assert not os.path.exists(out)


def test_negative_weight_is_rejected_by_row(tmp_path, capsys):
    bad = write(tmp_path / "w.csv", "w,y,x1\n1,1,0.2\n-2,1,0.3\n")
    assert main(["fit-monotone", "--in", bad, "--weighted", "--out", str(tmp_path / "m.json")]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fit-monotone"], ["fit-bernstein", "--orders", "3"]])
def test_fit_whose_objective_leaves_float_range_writes_its_model(tmp_path, command, capsys):
    # the weights are floats, but the fit's objective, near 2e308, is not; scaled by 2**-10,
    # exactly, the same data must give the same model
    rows = [(1e308, 1, 0.2), (1e308, 1, 0.25), (1.0, -1, 0.9)]
    models = []
    for scale in (1.0, 2.0**-10):
        data = write(tmp_path / "big.csv", "w,y,x1\n" + "".join(f"{w * scale!r},{y},{x}\n" for w, y, x in rows))
        out = str(tmp_path / "m.json")
        assert main([*command, "--in", data, "--weighted", "--float", "--out", out]) == 0
        models.append(Path(out).read_bytes())
    assert "error" not in capsys.readouterr().err
    assert models[0] == models[1]
    if command[0] == "fit-monotone":
        assert load_model(out).values == (1, 1, 1)


def test_main_called_again_and_again_gives_what_a_fresh_parser_gives(tmp_path, capsys, monkeypatch):
    sample = write(tmp_path / "s.csv", "y,x1,x2\n1,0.5,1/4\n-1,0.25,0.75\n1,1,1\n-1,0,0\n")
    points = write(tmp_path / "q.csv", "x1,x2\n0,0\n1/2,1/2\n1,1\n0.25,0.75\n")
    trials = write(tmp_path / "t.csv", "z,d,x1,x2,e\n2.5,1,0.5,1/4,0.5\n-1,-1,0.25,0.75,0.3\n1,1,1,1,0.7\n3,-1,0,0,1/3\n")
    out = tmp_path / "out"
    runs = [
        ["--no-such-flag"],
        [],
        ["--help"],
        ["fit-monotone", "--in", str(tmp_path / "missing.csv"), "--out", str(out / "m.json")],
        ["fit-monotone", "--in", sample, "--out", str(out / "m.json")],
        ["predict", "--model", str(out / "m.json"), "--in", points, "--out", str(out / "p.csv")],
        ["policy-fit", "--in", trials, "--out", str(out / "pol.json")],
        ["policy-weights", "--in", trials, "--out", str(out / "w.csv")],
        ["reproduce-examples", "--out", str(out / "ex.json")],
    ]

    def run_all(fresh):
        out.mkdir()
        build_parser.cache_clear()
        results = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            results.append((main(argv), *capsys.readouterr()))
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        for path in out.iterdir():
            path.unlink()
        out.rmdir()
        return results, files

    monkeypatch.setenv("COLUMNS", "100")
    reused = run_all(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert reused == run_all(fresh=True)
    assert [code for code, _, _ in reused[0]] == [2, 2, 0, 2, 0, 0, 0, 0, 0]
    assert reused[0][0][2].startswith("usage: isoclass") and "the following arguments are required" in reused[0][1][2]
    assert sorted(reused[1]) == ["ex.json", "m.json", "p.csv", "pol.json", "w.csv"]
    # help is laid out at the terminal width read when it is printed
    helps = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["policy-fit", "--help"]) == 0
        helps.append(capsys.readouterr().out)
        build_parser.cache_clear()
        assert main(["policy-fit", "--help"]) == 0 and capsys.readouterr().out == helps[-1]
    assert helps[0] != helps[1]


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["fit-monotone", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]) == 2
    capsys.readouterr()


def test_bernstein_rescale_handles_out_of_cube_data(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "y,x1\n-1,10\n-1,12\n1,18\n1,20\n")
    out = str(tmp_path / "b.json")
    assert main(["fit-bernstein", "--in", data, "--orders", "2", "--out", out]) == 2  # no rescale
    assert main(["fit-bernstein", "--in", data, "--orders", "2", "--rescale", "--out", out]) == 0
    capsys.readouterr()
    model = load_model(out)
    assert model.scale == ((10.0,), (20.0,))
    assert bernstein_predict(model, (11.0,)) == -1
    assert bernstein_predict(model, (19.0,)) == 1


def test_rescaled_bernstein_model_predicts_alike_on_rational_and_float_points(tmp_path, capsys):
    # dyadic values are exact in binary64, so both number modes fit the same model file; its labels at
    # decimal points inside the training box are equal whether the points are read exactly or as floats
    dyadic = write(tmp_path / "d.csv", "w,y,x1,x2\n1/4,1,0.25,1.5\n5/4,-1,0.75,0.5\n1,1,1,1.25\n"
                                       "3/4,-1,0,0.75\n2,1,0.5,0.25\n1/2,-1,1.25,0\n")
    decimal = write(tmp_path / "dd.csv", "w,y,x1,x2\n0.25,1,0.25,1.5\n1.25,-1,0.75,0.5\n1,1,1,1.25\n"
                                         "0.75,-1,0,0.75\n2,1,0.5,0.25\n0.5,-1,1.25,0\n")
    points = write(tmp_path / "p.csv", "x1,x2\n0.1,0.3\n0.6,0.7\n1.2,1.4\n0.3,1.1\n1,0.2\n")
    models = []
    for data, flags in ((dyadic, []), (decimal, ["--float"])):
        models.append(tmp_path / f"b{len(models)}.json")
        assert main(["fit-bernstein", "--in", data, "--weighted", "--rescale", "--orders", "2,2",
                     "--out", str(models[-1]), *flags]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()
    labels = []
    for flags in ([], ["--float"]):
        labels.append(tmp_path / f"l{len(labels)}.csv")
        assert main(["predict", "--model", str(models[0]), "--in", points, "--out", str(labels[-1]), *flags]) == 0
    # the coordinates are written as read (1/10 exactly, 0.1 as a float), the labels must agree
    columns = [[line.rsplit(",", 1)[1] for line in path.read_text().splitlines()] for path in labels]
    assert columns[0] == columns[1] and len(columns[0]) == 6 and {"-1", "1"} <= set(columns[0])
    capsys.readouterr()


def test_rescaled_sample_reads_back_the_original_weights_and_labels(tmp_path):
    data = write(tmp_path / "w.csv", "w,y,x1,x2\n0.1,1,0.5,2\n2,-1,0.25,7\n0.75,1,1,3\n0,-1,0,5\n")
    for rational in (True, False):
        sample = load_sample(data, "weighted", rational=rational)
        rescaled, scale = _rescale_sample(sample)
        assert rescaled.weights == sample.weights and rescaled.labels == sample.labels == (1, -1, 1, -1)
        assert rescaled.points == ((0.5, 0.0), (0.25, 1.0), (1.0, 0.2), (0.0, 0.6)) and scale == ((0.0, 2.0), (1.0, 7.0))
        assert rescaled._weight_scale == sample._weight_scale
    assert sample.weights == (0.1, 2.0, 0.75, 0.0)


def test_rescale_bounds_are_the_first_of_equal_values_and_a_constant_column_maps_to_one_half(tmp_path, capsys):
    # min and max keep the first of equal values, as Python's do: a leading -0.0 is the float bound,
    # while exactly both zeros are 0; a constant column is mapped to 0.5 and keeps its value as both bounds
    data = write(tmp_path / "d.csv", "y,x1,x2\n1,-0.0,3\n-1,0.0,3\n1,1,3\n-1,0.5,3\n1,0.25,3\n")
    unit = [(0.0, 0.5), (0.0, 0.5), (1.0, 0.5), (0.5, 0.5), (0.25, 0.5)]
    theta = list(fit_bernstein(WeightedSample.unweighted([1, -1, 1, -1, 1], unit), (2, 2)).theta)
    out = tmp_path / "b.json"
    for flags, sign in (([], 1.0), (["--float"], -1.0)):
        assert main(["fit-bernstein", "--in", data, "--rescale", "--orders", "2,2", "--out", str(out), *flags]) == 0
        payload = json.loads(out.read_text())
        assert payload["theta"] == theta
        assert payload["scale"] == {"min": [0.0, 3.0], "max": [1.0, 3.0]}
        assert math.copysign(1.0, payload["scale"]["min"][0]) == sign
    capsys.readouterr()


def test_output_path_in_missing_directory_exits_2(tmp_path, plain_csv, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "m.json")
    assert main(["fit-monotone", "--in", plain_csv, "--out", out]) == 2
    capsys.readouterr()


def test_load_sample_trial_schema(tmp_path):
    from isoclass.io import load_trials

    trial = write(tmp_path / "t.csv", "z,d,x1,e\n2,1,0.3,0.5\n")
    records = load_trials(trial)
    assert records[0].d == 1 and records[0].e == Fraction("0.5")


def test_predict_rejects_bad_query_points_with_exit_2(tmp_path, plain_csv, capsys):
    model_path = str(tmp_path / "m.json")
    assert main(["fit-monotone", "--in", plain_csv, "--out", model_path]) == 0
    wide = write(tmp_path / "wide.csv", "x1,x2\n0.5,0.5\n")
    nan = write(tmp_path / "nan.csv", "x1\nnan\n")
    out = str(tmp_path / "p.csv")
    assert main(["predict", "--model", model_path, "--in", wide, "--out", out]) == 2
    assert main(["predict", "--model", model_path, "--in", nan, "--out", out, "--float"]) == 2
    assert not os.path.exists(out)
    capsys.readouterr()


def test_predict_names_a_wrong_dimension_alike_for_both_models_and_number_modes(tmp_path, plain_csv, capsys):
    wide = write(tmp_path / "wide.csv", "x1,x2,x3\n0.5,0.5,0.25\n0.1,0.2,0.3\n")
    out = str(tmp_path / "p.csv")
    for command in ("fit-monotone", "fit-bernstein"):
        model_path = str(tmp_path / "m.json")
        assert main([command, "--in", plain_csv, "--out", model_path]) == 0
        capsys.readouterr()
        for flags in ([], ["--float"]):
            assert main(["predict", "--model", model_path, "--in", wide, "--out", out, *flags]) == 2
            assert capsys.readouterr().err == "error: point has dimension 3, model expects 1\n"
    assert not os.path.exists(out)


def test_predict_with_a_model_of_mixed_dimensions_exits_2(tmp_path, capsys):
    model_path = write(tmp_path / "m.json", json.dumps(
        {"type": "monotone", "dim": 2, "support": [[0, 1], [2]], "values": [-1, 1]}))
    points = write(tmp_path / "pts.csv", "x1,x2\n0.5,0.5\n")
    out = str(tmp_path / "p.csv")
    assert main(["predict", "--model", model_path, "--in", points, "--out", out]) == 2
    assert "mixed dimensions" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_coordinates_beyond_float_range_exit_2(tmp_path, plain_csv, capsys):
    big = write(tmp_path / "big.csv", "y,x1\n1,1e400\n-1,0.5\n")
    model_path = str(tmp_path / "b.json")
    for rescale in ([], ["--rescale"]):
        assert main(["fit-bernstein", "--in", big, "--orders", "3", *rescale, "--out", model_path]) == 2
        assert capsys.readouterr().err.startswith("error: coordinate 1000")
    assert not os.path.exists(model_path)
    assert main(["fit-bernstein", "--in", plain_csv, "--orders", "3", "--out", model_path]) == 0
    query = write(tmp_path / "q.csv", "x1\n0.5\n1e400\n")
    out = str(tmp_path / "p.csv")
    capsys.readouterr()
    assert main(["predict", "--model", model_path, "--in", query, "--out", out]) == 2
    assert "error: coordinate 1000" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_weight_beyond_float_range_exits_2_for_fit_bernstein(tmp_path, capsys):
    data = write(tmp_path / "w.csv", "w,y,x1\n1e400,1,0.2\n1,-1,0.7\n2,1,0.9\n")
    model_path = str(tmp_path / "b.json")
    assert main(["fit-bernstein", "--in", data, "--weighted", "--orders", "3", "--out", model_path]) == 2
    assert capsys.readouterr().err.startswith("error: weight 1000")
    assert not os.path.exists(model_path)
    assert main(["fit-monotone", "--in", data, "--weighted", "--out", model_path]) == 0
    capsys.readouterr()


def test_fit_bernstein_default_orders_name_the_dimension_limit(tmp_path, capsys):
    rng = random.Random(7)
    header = ",".join(["y"] + [f"x{i + 1}" for i in range(20)])
    rows = [",".join([str(rng.choice((-1, 1)))] + [f"{rng.random():.3f}" for _ in range(20)]) for _ in range(30)]
    data = write(tmp_path / "wide.csv", "\n".join([header] + rows) + "\n")
    model_path = str(tmp_path / "b.json")
    assert main(["fit-bernstein", "--in", data, "--out", model_path]) == 2
    err = capsys.readouterr().err
    assert "20 covariates" in err and "at most 19 covariates" in err
    assert not os.path.exists(model_path)


HALF_SPELLINGS = ("0.5", "0.50", "1/2", "+.5", "5e-1")


def _spell_half(template, spelling):
    """``template`` with each H replaced by a spelling of 1/2: ``spelling``, or all of them in turn."""
    if spelling is not None:
        return template.replace("H", spelling)
    parts = template.split("H")
    return parts[0] + "".join(HALF_SPELLINGS[i % len(HALF_SPELLINGS)] + part for i, part in enumerate(parts[1:]))


def test_every_spelling_of_one_half_writes_the_same_files(tmp_path, capsys):
    sample = "y,x1,x2\n1,H,0.25\n-1,0.25,H\n1,0.75,H\n-1,H,H\n1,H,H\n-1,1,0.75\n-1,0.75,0.25\n1,H,0.25\n"
    points = "x1,x2\nH,H\n0.25,H\nH,1\n0,0\n"
    trials = "z,d,x1,e\n2,1,H,H\n3,-1,0.25,H\n1.5,1,0.75,0.25\n-1,1,H,H\nH,-1,0.75,H\n-2,-1,H,0.75\n"
    pinned_model = {
        "type": "monotone",
        "dim": 2,
        "support": [["1/4", "1/2"], ["1/2", "1/4"], ["1/2", "1/2"], ["3/4", "1/4"], ["3/4", "1/2"], ["1", "3/4"]],
        "values": [-1, 1, 1, 1, 1, 1],
    }
    pinned_policy = {"type": "monotone", "dim": 1, "support": [["1/4"], ["1/2"], ["3/4"]], "values": [-1, 1, 1]}
    outputs = set()
    for spelling in HALF_SPELLINGS + (None,):
        sample_path = write(tmp_path / "s.csv", _spell_half(sample, spelling))
        points_path = write(tmp_path / "p.csv", _spell_half(points, spelling))
        trials_path = write(tmp_path / "t.csv", _spell_half(trials, spelling))
        model_path, preds_path, policy_path = (str(tmp_path / name) for name in ("m.json", "l.csv", "pol.json"))
        assert main(["fit-monotone", "--in", sample_path, "--out", model_path]) == 0
        assert main(["predict", "--model", model_path, "--in", points_path, "--out", preds_path]) == 0
        assert main(["policy-fit", "--in", trials_path, "--kappa", "1/10", "--out", policy_path]) == 0
        files = tuple(Path(p).read_text() for p in (model_path, preds_path, policy_path))
        assert json.loads(files[0]) == pinned_model
        assert files[1] == "x1,x2,label\n1/2,1/2,1\n1/4,1/2,-1\n1/2,1,1\n0,0,-1\n"
        assert json.loads(files[2]) == pinned_policy
        outputs.add(files)
    capsys.readouterr()
    assert len(outputs) == 1


def test_predict_on_a_model_with_a_repeated_support_point(tmp_path, capsys):
    # both copies of (1,) are -1, so 0 and 1 lie below a -1 point and 2 lies below none
    model_path = write(tmp_path / "m.json", json.dumps(
        {"type": "monotone", "dim": 1, "support": [[1], [1], [0]], "values": [-1, -1, -1]}))
    points = write(tmp_path / "pts.csv", "x1\n0\n1\n2\n")
    out = str(tmp_path / "p.csv")
    assert main(["predict", "--model", model_path, "--in", points, "--out", out]) == 0
    capsys.readouterr()
    assert Path(out).read_text() == "x1,label\n0,-1\n1,-1\n2,1\n"


def test_predict_on_a_points_file_with_no_rows_writes_the_model_header(tmp_path, capsys):
    # the header names one column per model coordinate, as it does when there are rows
    one_d = write(tmp_path / "one.csv", "y,x1\n1,0.2\n-1,0.8\n")
    two_d = write(tmp_path / "two.csv", "y,x1,x2\n1,0.2,0.5\n-1,0.8,0.1\n1,0.9,0.9\n")
    models = (
        ("fit-monotone", one_d, [], "x1,label\n"),
        ("fit-monotone", two_d, [], "x1,x2,label\n"),
        ("fit-bernstein", two_d, ["--orders", "2,2"], "x1,x2,label\n"),
    )
    for command, data, extra, header in models:
        model_path = str(tmp_path / "m.json")
        assert main([command, "--in", data, *extra, "--out", model_path]) == 0
        empty = write(tmp_path / "empty.csv", header.replace(",label", ""))
        for flags in ([], ["--float"]):
            out = str(tmp_path / "p.csv")
            assert main(["predict", "--model", model_path, "--in", empty, "--out", out, *flags]) == 0
            assert Path(out).read_text() == header
    capsys.readouterr()


MALFORMED_MODELS = {
    "not an object": [1, 2],
    "no support": {"type": "monotone", "values": [1]},
    "no values": {"type": "monotone", "support": [[0]]},
    "no min_positive": {"type": "monotone", "compact": True, "max_negative": [[0]]},
    "no orders": {"type": "bernstein", "theta": [0.5, -0.5]},
    "no scale max": {"type": "bernstein", "orders": [1], "theta": [0.5, -0.5], "scale": {"min": [0]}},
    "value not a number": {"type": "monotone", "support": [[0]], "values": ["a"]},
    "coordinate not a number": {"type": "monotone", "support": [["abc"]], "values": [1]},
    "coordinate NaN": {"type": "monotone", "support": [[float("nan")]], "values": [-1]},
    "value not -1 or +1": {"type": "monotone", "support": [[0], [1]], "values": [1.7, -1]},
    "scale min NaN": {"type": "bernstein", "orders": [1, 1], "theta": [-1, 0, 0, 1],
                      "scale": {"min": [float("nan"), 0], "max": [1, 1]}},
    "scale of one entry": {"type": "bernstein", "orders": [1, 1], "theta": [-1, 0, 0, 1],
                           "scale": {"min": [0], "max": [1]}},
    # orders are integers: neither truncated (2.5 is not order 2) nor parsed ("2") nor a bool
    "order not an integer": {"type": "bernstein", "orders": [2.5], "theta": [-1, 0, 1]},
    "order a string": {"type": "bernstein", "orders": ["2"], "theta": [-1, 0, 1]},
    "order a bool": {"type": "bernstein", "orders": [True], "theta": [-1, 1]},
}


@pytest.mark.parametrize("payload", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_predict_with_a_malformed_model_file_exits_2(tmp_path, capsys, payload):
    model_path = write(tmp_path / "m.json", json.dumps(payload))
    # points of the model's dimension, so only the model file can be at fault
    dim = len(payload.get("orders", [0])) if isinstance(payload, dict) else 1
    header, row = ",".join(f"x{i + 1}" for i in range(dim)), ",".join(["0.5"] * dim)
    points = write(tmp_path / "pts.csv", f"{header}\n{row}\n")
    out = str(tmp_path / "p.csv")
    assert main(["predict", "--model", model_path, "--in", points, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {model_path}: ")
    assert not os.path.exists(out)


# each value spelled in the column grammar, and in forms that parse_column declines, read token by token
SPELLINGS = {
    "Q": ("0.250", "2.5e-1"),
    "P": ("1/4", " 1/4"),
    "T": ("-3", "-3e0"),
    "H": ("0.5", "5e-1"),
    "E": ("3/4", " 3/4"),
    "O": ("1", "1e0"),
    "N": ("-1", "-1e0"),
}
if sys.version_info >= (3, 11):  # Fraction reads underscores from Python 3.11 on
    SPELLINGS["K"] = ("1000", "1_000")


def _spell(template, fallback):
    return "".join(SPELLINGS[c][fallback] if c in SPELLINGS else c for c in template)


def test_column_path_and_token_path_write_the_same_bytes(tmp_path, capsys):
    k = "K" if "K" in SPELLINGS else "T"
    weighted = f"w,y,x1,x2\nO,O,Q,P\nH,N,E,T\nQ,O,{k},H\nE,N,P,Q\nO,N,H,H\nH,O,T,E\n"
    plain = "".join(line[2:] + "\n" for line in weighted.splitlines())
    points = f"x1,x2\nQ,P\nE,T\n{k},H\nP,Q\nT,T\nH,E\n"
    trials = f"z,d,x1,x2,e\nH,O,Q,P,H\nT,N,E,T,Q\nQ,O,{k},H,E\nO,N,P,Q,H\nN,O,H,H,Q\nE,N,T,E,E\n"
    from isoclass.io import load_points, load_sample, load_trials
    from isoclass.policy import TrialColumns

    results = []
    for fallback in (0, 1):
        paths = {name: write(tmp_path / f"{name}.csv", _spell(text, fallback))
                 for name, text in (("plain", plain), ("sample", weighted), ("points", points), ("trials", trials))}
        # both spellings load as exact columns
        assert load_sample(paths["sample"], "weighted")._points.denominators is not None
        assert load_sample(paths["plain"])._points.denominators is not None
        assert load_points(paths["points"]).denominators is not None
        assert isinstance(load_trials(paths["trials"]), TrialColumns)
        out = {name: str(tmp_path / name) for name in ("m.json", "w.json", "c.json", "p.csv", "pc.csv", "pol.json", "pw.csv")}
        runs = [
            ["fit-monotone", "--in", paths["plain"], "--out", out["m.json"]],
            ["fit-monotone", "--in", paths["sample"], "--weighted", "--out", out["w.json"]],
            ["fit-monotone", "--in", paths["sample"], "--weighted", "--compact", "--out", out["c.json"]],
            ["predict", "--model", out["w.json"], "--in", paths["points"], "--out", out["p.csv"]],
            ["predict", "--model", out["c.json"], "--in", paths["points"], "--out", out["pc.csv"]],
            ["policy-fit", "--in", paths["trials"], "--kappa", "1/5", "--out", out["pol.json"]],
            ["policy-weights", "--in", paths["trials"], "--kappa", "1/5", "--out", out["pw.csv"]],
        ]
        codes = []
        for argv in runs:
            codes.append(main(argv))
            codes.append(capsys.readouterr())
        results.append((codes, {name: Path(p).read_bytes() for name, p in out.items()}))
    assert results[0] == results[1]
    assert b"-1" in results[0][1]["p.csv"] and b"1/4" in results[0][1]["w.json"]


def test_a_bad_cell_is_named_in_row_order_whichever_column_it_is_in(tmp_path, capsys):
    # bad tokens at (row 5, column 3) and (row 2, column 4): the error names row 2, line 3
    rows = [["1", "1", "0.5", "0.5"] for _ in range(6)]
    rows[4][2], rows[1][3] = "1/0", "abc"
    body = "\n".join(",".join(r) for r in rows) + "\n"
    cases = (
        ("y,x1,x2,x3\n", ["fit-monotone"]),
        ("x1,x2,x3,x4\n", ["predict", "--model", None]),
        ("z,d,x1,x2\n", ["policy-fit", "--propensity", "1/2"]),
    )
    model = str(tmp_path / "m.json")
    assert main(["fit-monotone", "--in", write(tmp_path / "ok.csv", "y,x1,x2,x3,x4\n1,0,0,0,0\n"), "--out", model]) == 0
    for header, command in cases:
        data = write(tmp_path / "bad.csv", header + body)
        argv = [model if a is None else a for a in command] + ["--in", data, "--out", str(tmp_path / "o")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {data}, line 3: cannot parse number 'abc'\n"
        assert not os.path.exists(tmp_path / "o")


def test_columns_beyond_int64_give_the_models_and_welfare_of_fractions(tmp_path, capsys):
    from isoclass import TrialRecord, fit_monotone, to_weighted_sample, welfare_estimate
    from isoclass.io import load_sample, load_trials
    from isoclass.policy import TrialColumns
    from isoclass.risks import WeightedSample

    def reference_model(rows):
        sample = WeightedSample(tuple(Fraction(r[0]) for r in rows), tuple(int(r[1]) for r in rows),
                                tuple(tuple(map(Fraction, r[2:])) for r in rows))
        return json.dumps(fit_monotone(sample).to_dict(), indent=2) + "\n"

    # a 19-digit decimal column (its denominator leaves int64), numerators at and past 2**63
    rows = [["1", "1", "0.1234567890123456789", "9223372036854775807"],
            ["2", "-1", "0.5", "9223372036854775808"],
            ["3", "1", "0.7", "-9223372036854775808"],
            ["5", "-1", "0.1234567890123456789", "1"]]
    data = write(tmp_path / "s.csv", "w,y,x1,x2\n" + "".join(",".join(r) + "\n" for r in rows))
    model = str(tmp_path / "m.json")
    assert main(["fit-monotone", "--in", data, "--weighted", "--out", model]) == 0
    assert Path(model).read_text() == reference_model(rows)
    # still exact columns, whose numerators are Python ints
    points = load_sample(data, "weighted")._points
    assert points.denominators is not None and points.values.dtype == object
    assert list(points.rows()) == [tuple(map(Fraction, r[2:])) for r in rows]

    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    large_primes = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191)
    files = {
        # propensities with pairwise-coprime denominators: their lcm leaves int64
        "coprime": [[str(7 - i), ("1", "-1")[i % 2], f"0.{i % 10}", f"{i % 3}", f"1/{p}"] for i, p in enumerate(primes)],
        # one denominator, but e or 1 - e over pairwise-coprime numerators: the IPW denominator leaves int64
        "ipw": [[str(i - 8), "1", f"0.{i % 10}", f"{i % 4}", f"{p}/1000"] for i, p in enumerate(large_primes)],
        # IPW weights near 2**63: their sums would wrap int64
        "heavy": [[str(4 * 10**18 + i), ("1", "-1")[i % 2], f"0.{i}", "0", "1/2"] for i in range(6)],
        # IPW numerators near 2**60 over 10, whose sums int64 still holds
        "light": [["57646075230342348.9", "1", "0.1", "0", "1/2"], ["57646075230342349.3", "-1", "0.2", "1", "1/2"]],
    }
    weights = str(tmp_path / "w.csv")
    for name, rows in files.items():
        data = write(tmp_path / f"{name}.csv", "z,d,x1,x2,e\n" + "".join(",".join(r) + "\n" for r in rows))
        trials = load_trials(data)
        # IPW terms past int64 are kept as Python ints, and only weights whose sums int64 holds are summed in it
        assert isinstance(trials, TrialColumns) and (trials._ipw[0].dtype == object) == (name not in ("heavy", "light"))
        mapped = to_weighted_sample(trials)
        assert (mapped._weights.dtype != object and mapped.n * int(mapped._weights.max()) < 2**62) == (name == "light")
        capsys.readouterr()
        assert main(["policy-fit", "--in", data, "--out", model]) == 0
        welfare_line = capsys.readouterr().out.splitlines()[1]
        records = [TrialRecord(Fraction(r[0]), int(r[1]), tuple(map(Fraction, r[2:4])), Fraction(r[4])) for r in rows]
        sample = to_weighted_sample(records)
        fitted = fit_monotone(sample)
        assert Path(model).read_text() == json.dumps(fitted.to_dict(), indent=2) + "\n", name
        assert welfare_line == f"estimated welfare of the fitted policy: {float(welfare_estimate(fitted, records)):.6g}"
        # each weight cell is the str of its Fraction
        assert main(["policy-weights", "--in", data, "--out", weights]) == 0
        cells = zip(sample.weights, sample.labels, sample.points)
        assert Path(weights).read_text() == "w,y,x1,x2\n" + "".join(f"{w},{y},{x1},{x2}\n" for w, y, (x1, x2) in cells), name


# (command, file, expected error after "<path>, ", or (rational error, --float error)): the first
# bad cell in row order is named; a constant --propensity is checked as the last cell of the first row
ERROR_CONTRACT = {
    "bad cell before a later bad label": (
        ["fit-monotone"], "y,x1,x2\n1,0.5,abc\n0,0.5,0.5\n", "line 2: cannot parse number 'abc'"),
    "bad label before a later bad cell": (
        ["fit-monotone"], "y,x1\n1,0.5\n0,0.5\n1,abc\n", "line 3: label must be -1 or +1, got '0'"),
    "negative weight": (
        ["fit-monotone", "--weighted"], "w,y,x1\n1,1,0.2\n-2,1,0.3\n", "line 3: negative weight '-2'"),
    "propensity of 1": (
        ["policy-fit"], "z,d,x1,e\n2,1,0.5,0.5\n1,1,0.5,1\n",
        ("line 3: propensity must lie strictly in (0, 1), got Fraction(1, 1)",
         "line 3: propensity must lie strictly in (0, 1), got 1.0")),
    "constant propensity after a clean first row": (
        ["policy-fit", "--propensity", "1.5"], "z,d,x1\n1,1,0.5\n2,-1,0.25\n",
        ("line 2: propensity must lie strictly in (0, 1), got Fraction(3, 2)",
         "line 2: propensity must lie strictly in (0, 1), got 1.5")),
    "constant propensity after a bad first row": (
        ["policy-weights", "--propensity", "1.5"], "z,d,x1\nabc,1,0.5\n2,-1,0.25\n", "line 2: cannot parse number 'abc'"),
    "a column past int64 with a bad cell further down": (
        ["fit-monotone"], "y,x1\n1,9223372036854775808\n-1,0.5\n1,1/0\n", "line 4: cannot parse number '1/0'"),
    "a points column past int64 with a bad cell further down": (
        ["predict"], "x1\n0.1234567890123456789\n0.5\n-\n", "line 4: cannot parse number '-'"),
    "a bad distribution cell": (
        ["calibration-table", "--losses", "hinge:1"], "mass,eta,x1\n0.5,0.5,0\n0.5,0.5,x\n", "line 3: cannot parse number 'x'"),
    # 1e400 is a valid exact number
    "an infinite float": (["fit-monotone"], "y,x1\n1,0.5\n-1,1e400\n", (None, "line 3 must be finite, got inf")),
}
ERROR_CASES = [(name, flags) for name, (_, _, expected) in ERROR_CONTRACT.items() for flags in ([], ["--float"])
               if not isinstance(expected, tuple) or expected[bool(flags)] is not None]


@pytest.mark.parametrize("name, flags", ERROR_CASES, ids=[f"{name}{' float' if flags else ''}" for name, flags in ERROR_CASES])
def test_the_first_bad_cell_in_row_order_is_named(tmp_path, capsys, name, flags):
    command, text, expected = ERROR_CONTRACT[name]
    if isinstance(expected, tuple):
        expected = expected[bool(flags)]
    data = write(tmp_path / "in.csv", text)
    if command == ["predict"]:
        model = str(tmp_path / "m.json")
        assert main(["fit-monotone", "--in", write(tmp_path / "ok.csv", "y,x1\n1,0.2\n-1,0.8\n"), "--out", model]) == 0
        command = ["predict", "--model", model]
    source = "--dist" if command[0] == "calibration-table" else "--in"
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main([*command, source, data, "--out", out, *flags]) == 2
    assert capsys.readouterr().err == f"error: {data}, {expected}\n"
    assert not os.path.exists(out)


# (command, header): a file with a header and no rows fails as an empty sample, or predicts nothing
HEADER_ONLY = {
    "fit-monotone": (["fit-monotone"], "y,x1,x2", "error: cannot fit on an empty sample"),
    "fit-monotone weighted": (["fit-monotone", "--weighted"], "w,y,x1,x2", "error: cannot fit on an empty sample"),
    "fit-bernstein": (["fit-bernstein"], "y,x1,x2", "error: need a sample size of at least 2"),
    "fit-bernstein rescale": (["fit-bernstein", "--rescale"], "y,x1,x2", "error: need a sample size of at least 2"),
    "fit-bernstein orders": (["fit-bernstein", "--orders", "2,2"], "y,x1,x2", "error: cannot fit on an empty sample"),
    "fit-bernstein orders rescale": (
        ["fit-bernstein", "--orders", "2,2", "--rescale"], "y,x1,x2", "error: cannot fit on an empty sample"),
    "policy-fit": (["policy-fit"], "z,d,x1,e", "error: cannot fit on an empty sample"),
    "policy-fit constant": (["policy-fit", "--propensity", "0.5"], "z,d,x1", "error: cannot fit on an empty sample"),
    "policy-fit bad constant": (["policy-fit", "--propensity", "1.5"], "z,d,x1", "error: cannot fit on an empty sample"),
    "calibration-table": (["calibration-table", "--losses", "hinge:1"], "mass,eta,x1", "error: masses must sum to 1 (got 0)"),
    "calibration-table wplus": (
        ["calibration-table", "--losses", "hinge:1"], "mass,eta,x1,wplus,wminus", "error: masses must sum to 1 (got 0)"),
    # the header of the predictions names the model's coordinates, whatever the points file's header
    "predict monotone": (["predict", "fit-monotone"], "x1,x2", "x1,x2,label\n"),
    "predict monotone, one column": (["predict", "fit-monotone"], "x1", "x1,x2,label\n"),
    "predict bernstein": (["predict", "fit-bernstein"], "x1,x2", "x1,x2,label\n"),
    "predict bernstein, one column": (["predict", "fit-bernstein"], "x1", "x1,x2,label\n"),
}


@pytest.mark.parametrize("flags", [[], ["--float"]], ids=["rational", "float"])
@pytest.mark.parametrize("name", HEADER_ONLY)
def test_a_file_with_no_rows_behaves_as_before_in_every_command(tmp_path, capsys, name, flags):
    command, header, expected = HEADER_ONLY[name]
    data = write(tmp_path / "in.csv", header + "\n")
    out = str(tmp_path / "out")
    if command[0] == "predict":
        model = str(tmp_path / "m.json")
        sample = write(tmp_path / "ok.csv", "y,x1,x2\n1,0.2,0.5\n-1,0.8,0.1\n1,0.9,0.9\n")
        fit_flags = ["--orders", "2,2"] if command[1] == "fit-bernstein" else []
        assert main([command[1], "--in", sample, *fit_flags, "--out", model]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", model, "--in", data, "--out", out, *flags]) == 0
        assert capsys.readouterr() == (f"wrote 0 predictions -> {out}\n", "")
        assert Path(out).read_text() == expected
        return
    source = "--dist" if command[0] == "calibration-table" else "--in"
    assert main([*command, source, data, "--out", out, *flags]) == 2
    assert capsys.readouterr() == ("", expected + "\n")
    assert not os.path.exists(out)


def test_policy_weights_on_a_trial_file_with_no_rows_writes_its_covariate_columns(tmp_path, capsys):
    # the weights file it writes is a weighted sample that fit-monotone reads back
    trials = write(tmp_path / "t.csv", "z,d,x1,x2\n")
    weights = str(tmp_path / "w.csv")
    assert main(["policy-weights", "--in", trials, "--propensity", "1/2", "--out", weights]) == 0
    assert capsys.readouterr().out == f"wrote 0 weighted rows -> {weights} (weight bound 0)\n"
    assert Path(weights).read_text() == "w,y,x1,x2\n"
    assert main(["fit-monotone", "--in", weights, "--weighted", "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == "error: cannot fit on an empty sample\n"


def test_a_coordinate_column_stops_its_common_denominator_early(tmp_path, monkeypatch, capsys):
    # 4000 random 6-digit denominators have an lcm of tens of thousands of bits; a coordinate
    # column stops at 2**128 after a few lcm steps and keeps its values as Fractions, whose str
    # the model file writes
    rng = random.Random(61)
    values = [Fraction(rng.randint(-(10**6), 10**6), rng.randint(10**5, 10**6 - 1)) for _ in range(4000)]
    sample = write(tmp_path / "s.csv", "y,x1\n" + "".join(f"{rng.choice((-1, 1))},{v.numerator}/{v.denominator}\n" for v in values))
    steps, lcm = [], math.lcm
    monkeypatch.setattr(math, "lcm", lambda a, b: steps.append(b) or lcm(a, b))
    model = str(tmp_path / "m.json")
    assert main(["fit-monotone", "--in", sample, "--out", model]) == 0
    assert len(steps) <= 20
    monkeypatch.undo()
    support = [Fraction(p[0]) for p in json.loads(Path(model).read_text())["support"]]
    assert support == sorted(set(values))
    assert json.loads(Path(model).read_text())["support"] == [[str(v)] for v in support]
    capsys.readouterr()
