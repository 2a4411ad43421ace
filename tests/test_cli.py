import json
from fractions import Fraction
import os
from pathlib import Path
import random

import pytest

from isoclass import bernstein_predict, monotone_predict
from isoclass.cli import main
from isoclass.io import load_model


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
