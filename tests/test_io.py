import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from isoclass import BernsteinClassifier, WeightedSample, fit_bernstein, fit_monotone
from isoclass.io import json_text, load_model, load_sample, save_model


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


def test_model_files_are_the_bytes_of_json_dumps_with_indent_2(tmp_path):
    for name, model, compact in _models(tmp_path):
        path = tmp_path / "model.json"
        save_model(str(path), model, compact=compact)
        payload = model.to_compact_dict() if compact else model.to_dict()
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode(), name


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


class _Float(float):
    def __repr__(self):
        return "not json"


LEAVES = [0, -7, 10**30, 1.5, -0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, np.float64(0.1), _Float(2.5),
          True, False, None, "", "a\n\"b\\", "é☃", "]\n[", ",\n  "]


def _value(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice(LEAVES)
    if roll < 0.5:
        return [rng.choice(LEAVES) for _ in range(rng.randint(0, 4))]
    if roll < 0.7:
        width = rng.randint(0, 3)
        return [(tuple if rng.random() < 0.3 else list)(rng.choice(LEAVES) for _ in range(width))
                for _ in range(rng.randint(0, 4))]
    if roll < 0.85:
        items = [_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    keys = ("a", "é", 1, 2.5, True, False, None, math.nan, "x\ny")
    return {rng.choice(keys): _value(rng, depth + 1) for _ in range(rng.randint(0, 4))}


def test_json_text_is_json_dumps_with_indent_2():
    fixed = [[], {}, (), [[]], [[], []], [[1], []], {"a": []}, ([1, 2], (3, 4)), [[1, [2]], [3, 4]],
             [LEAVES, LEAVES], {k: k for k in (1, 2.5, True, None)}, LEAVES]
    rng = random.Random(20)
    for value in fixed + [_value(rng) for _ in range(3000)]:
        assert json_text(value) == json.dumps(value, indent=2), value


@pytest.mark.parametrize("value", [np.int64(1), [1, np.int64(2)], [[1, 2], [3, object()]], {(1, 2): 3},
                                   {"a": {1j: 2}}, {1, 2}, [b"x"], Path(".")])
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        json_text(value)
    assert str(raised.value) == str(expected.value)
