import importlib.util
from pathlib import Path
import subprocess
import sys

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as code


# a comment line
def f(x):
    """One docstring line."""
    y = (x +
         1)
    text = """a string
that is not a docstring"""
    return math.floor(y), text


class C:
    """Docstring."""

    def g(self):
        return 1
'''


def test_lines_of_code_leave_out_blank_comment_and_docstring_lines():
    # code: import, def, y = (x +, 1), text = """..., its second line, return, class, def g, return
    assert loc.lines_of_code(SOURCE) == 10
    assert loc.lines_of_code("") == 0


def test_the_tool_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["    10  a.py", "     1  b.py", "    11  total"]
