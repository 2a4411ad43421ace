import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from isoclass import BernsteinClassifier, WeightedSample, fit_bernstein, fit_monotone
from isoclass._numeric import _ratio
from isoclass.io import load_model, load_sample, model_module, save_model, write_json


def _models(tmp_path):
    """(name, model, compact) for every kind of model file the fit commands write."""
    rational = tmp_path / "rational.csv"
    rational.write_text("w,y,x1,x2\n1,1,0.5,1/4\n2/3,-1,0.25,0.75\n1,1,1,1\n3,-1,0,0\n1/2,-1,0.5,0.125\n")
    decimal = tmp_path / "decimal.csv"
    decimal.write_text("w,y,x1,x2\n1,1,0.5,0.1\n0.7,-1,0.25,0.3\n1,1,1,1e-7\n3,-1,0,0\n0.5,-1,0.5,0.125\n")
    wide = tmp_path / "wide.csv"  # numerators past int64: object arrays
    wide.write_text("y,x1,x2\n1,9223372036854775808,0.1234567890123456789\n-1,-3,0.5\n-1,1,0.1234567890123456789\n")
    rng = np.random.default_rng(5)
    x = rng.random((40, 2))
    labels = np.where(x.sum(axis=1) > 1, 1, -1)
    models = {
        "rational": fit_monotone(load_sample(str(rational), "weighted")),
        "float": fit_monotone(load_sample(str(decimal), "weighted", rational=False)),
        "int support": fit_monotone(WeightedSample.unweighted([1, -1, 1, -1], [(0, 3), (2, 1), (4, 4), (-1, 0)])),
        "object numerators": fit_monotone(load_sample(str(wide))),
        "all +1": fit_monotone(WeightedSample.unweighted([1, 1], [(0, 1), (1, 0)])),
        "all -1": fit_monotone(WeightedSample.unweighted([-1, -1], [(0.5, 1.0), (1.0, 0.0)])),
    }
    assert models["object numerators"]._support.values.dtype == object
    assert not models["all +1"].frontier and not len(models["all -1"]._extreme_rows(1))
    named = [(f"monotone {name}{' compact' if compact else ''}", model, compact)
             for name, model in models.items() for compact in (False, True)]
    binary = fit_bernstein(WeightedSample.unweighted(labels, x), (3, 2))
    floats = BernsteinClassifier((2, 1), (-1.0, 1.0, -1.0, 1.0, 1.0, 1.0))
    assert set(map(type, binary.theta)) == {int}
    for name, model in (("bernstein +/-1", binary), ("bernstein float", floats)):
        scaled = BernsteinClassifier(model.orders, model.theta, ((-1.5, 0), (2, 1e20)))
        named += [(name, model, False), (name + " scaled", scaled, False)]
    return named


def test_model_files_are_the_bytes_of_json_dumps(tmp_path):
    for name, model, compact in _models(tmp_path):
        path = tmp_path / "model.json"
        save_model(str(path), model, compact=compact)
        payload = model.to_compact_dict() if compact else model.to_dict()
        assert path.read_bytes() == (json.dumps(payload) + "\n").encode(), name


def test_a_model_file_loads_and_saves_back_to_its_own_bytes(tmp_path):
    # a support written as strings alone (an exact fit's) loads as Fractions, not as the strings
    strings = 0
    for name, model, compact in _models(tmp_path):
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(str(path), model, compact=compact)
        loaded = load_model(str(path))
        save_model(str(again), loaded, compact=compact)
        assert again.read_bytes() == path.read_bytes(), name
        payload = json.loads(path.read_text())
        support = payload["max_negative"] + payload["min_positive"] if compact else payload.get("support", [])
        if support and all(type(v) is str for p in support for v in p):
            strings += 1
            assert all(type(v) is Fraction for p in loaded.support for v in p), name
    assert strings == 4


def test_an_indented_model_file_of_earlier_versions_loads_to_the_same_model(tmp_path):
    # model files were written as json.dumps(payload, indent=2): the same content loads to the same model and labels
    points = [(0, 0), (0.5, 0.25), (1, 1), (0.25, 0.75), (2, -1), (-1.5, 1e20)]
    for name, model, compact in _models(tmp_path):
        path, indented = tmp_path / "model.json", tmp_path / "indented.json"
        save_model(str(path), model, compact=compact)
        indented.write_text(json.dumps(json.loads(path.read_text()), indent=2) + "\n")
        new, old = load_model(str(path)), load_model(str(indented))
        assert old == new and old.to_dict() == new.to_dict(), name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the Bernstein models clamp points outside their box
            labels = [model_module(m).predict_batch(m, points).tolist() for m in (new, old)]
        assert labels[0] == labels[1], name


@pytest.mark.parametrize("value", [np.int64(1), [1, np.int64(2)], [[1, 2], [3, object()]], {(1, 2): 3},
                                   {"a": {1j: 2}}, {1, 2}, [b"x"], Path(".")])
def test_write_json_refuses_what_json_dumps_refuses(tmp_path, value):
    # write_json raises json's own TypeError, and leaves neither the file nor a temp file behind
    with pytest.raises(TypeError) as expected:
        json.dumps(value)
    with pytest.raises(TypeError) as raised:
        write_json(str(tmp_path / "out.json"), value)
    assert str(raised.value) == str(expected.value)
    assert list(tmp_path.iterdir()) == []


def test_a_support_of_numpy_scalars_saves_and_loads_back_to_equal_points(tmp_path):
    # rows of an int array, and tuples of numpy ints and floats (other numbers too), are kept as given
    y = [1, -1, 1, -1]
    supports = {
        "int array": np.array([[1, 2], [3, 0], [4, 4], [0, 1]]),
        "uint8 array": np.array([[1, 2], [3, 0], [4, 4], [0, 1]], dtype=np.uint8),
        "numpy scalars": [(np.int64(1), np.float32(0.1)), (np.int32(3), np.float16(0.5)),
                          (np.uint64(2**64 - 1), np.float64(0.3)), (np.int8(-2), np.float32(-1e-30))],
        "longdouble and Fraction": [(np.longdouble(0.1), Fraction(1, 3)), (2, 0.25), (Fraction(7, 2), 1), (-1, 0.5)],
    }

    def exact(points):
        return [[Fraction(*_ratio(v)) for v in p] for p in points]

    for name, points in supports.items():
        model = fit_monotone(WeightedSample.unweighted(y, points))
        for compact in (False, True):
            path = tmp_path / "model.json"
            save_model(str(path), model, compact=compact)
            loaded = load_model(str(path))
            if not compact:
                # compared exactly: numpy compares a longdouble with a Fraction through a rounding
                assert exact(loaded.support) == exact(model.support) and loaded.values == model.values, name
            assert exact(loaded.frontier) == exact(model.frontier), name
            queries = [tuple(p) for p in supports["int array"].tolist()] + [(0.05, 0.05), (5, 5)]
            assert model_module(loaded).predict_batch(loaded, queries).tolist() == model_module(model).predict_batch(model, queries).tolist(), name
