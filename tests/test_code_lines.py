import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment still leaves code


def area(r):
    """Function docstring."""
    # a comment line
    return math.pi * pow(
        r,
        2,
    )
'''


def test_counts_code_lines_only():
    # import, def, return and the three further lines of the call
    assert code_lines.count_code_lines(SNIPPET) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["6", "a.py"], ["1", "b.py"], ["7", "total"]]
