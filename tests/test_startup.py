"""Start-up: the package namespace resolves names on first use, and the CLI loads only what a command runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isoclass
from isoclass import bench, cli, order, policy

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, cwd, **env) -> str:
    """Stdout of ``python -c code`` in a fresh interpreter that imports isoclass from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str, cwd) -> set:
    """The numpy and isoclass modules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    shown = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'isoclass'))))"
    return set(json.loads(run_python(f"{code}\nimport json, sys\n{shown}", cwd).splitlines()[-1]))


def test_importing_the_package_and_building_the_parser_loads_no_numpy_and_no_module(tmp_path):
    assert loaded_after("import isoclass, isoclass.cli; isoclass.cli.build_parser()", tmp_path) == {"isoclass", "isoclass.cli"}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "s.csv").write_text("y,x1,x2\n1,0.5,1/4\n-1,0.25,0.75\n1,1,1\n-1,0,0\n", encoding="utf-8")
    (tmp_path / "p.csv").write_text("x1,x2\n0,0\n1/2,1/2\n1,1\n", encoding="utf-8")
    run = "from isoclass.cli import main\nassert main({}) == 0"
    fit = loaded_after(run.format(["fit-monotone", "--in", "s.csv", "--out", "m.json"]), tmp_path)
    assert "numpy" in fit and "isoclass.monotone" in fit and "isoclass.bench" not in fit
    predict = loaded_after(run.format(["predict", "--model", "m.json", "--in", "p.csv", "--out", "l.csv"]), tmp_path)
    assert "isoclass.monotone" in predict and not predict & {"isoclass.bench", "isoclass.bernstein"}


def test_every_public_name_resolves_to_its_module_attribute():
    assert sorted(isoclass._EXPORTS) == isoclass.__all__
    for name in isoclass.__all__:
        module, attribute = isoclass._EXPORTS[name].split(".")
        assert getattr(isoclass, name) is getattr(importlib.import_module(f"isoclass.{module}"), attribute)
        # resolved once, then kept in the namespace
        assert vars(isoclass)[name] is getattr(isoclass, name)
    namespace = {}
    exec("from isoclass import *", namespace)
    assert all(namespace[name] is getattr(isoclass, name) for name in isoclass.__all__)
    assert set(isoclass.__all__) <= set(dir(isoclass)) and isoclass.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        isoclass.no_such_name


def test_the_parser_constants_are_the_library_defaults():
    assert cli.DEFAULT_KAPPA == str(policy.DEFAULT_KAPPA)
    assert cli.DEFAULT_NODE_LIMIT == order.DEFAULT_NODE_LIMIT
    assert cli.DGP_NAMES == sorted(bench.DGPS)


def test_help_equals_that_of_a_parser_with_the_library_defaults(tmp_path, monkeypatch, capsys):
    commands = next(action.choices for action in cli.build_parser()._actions if action.dest == "command")
    helps = [["--help"]] + [[command, "--help"] for command in commands]
    code = f"from isoclass.cli import main\nfor argv in {helps}:\n    main(argv)\n    print('\\0')"
    shown = run_python(code, tmp_path, COLUMNS="100").split("\0\n")[:-1]
    monkeypatch.setenv("COLUMNS", "100")
    monkeypatch.setattr(cli, "DEFAULT_KAPPA", str(policy.DEFAULT_KAPPA))
    monkeypatch.setattr(cli, "DEFAULT_NODE_LIMIT", order.DEFAULT_NODE_LIMIT)
    monkeypatch.setattr(cli, "DGP_NAMES", sorted(bench.DGPS))
    cli.build_parser.cache_clear()
    try:
        want = []
        for argv in helps:
            assert cli.main(argv) == 0
            want.append(capsys.readouterr().out)
    finally:
        cli.build_parser.cache_clear()
    assert len(want) == 9 and shown == want
    assert "(default 0.01)" in want[4] and "'step2d'" in want[-1]
