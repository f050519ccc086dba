"""The code-line counter, tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
on two lines."""

import os  # a comment


def f(x):
    """A function docstring."""
    # a comment alone
    text = """a string
that is not a docstring"""
    return (x,
            text)


class C:
    """A class docstring."""

    y = 1
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, def, the two lines of text, the two of return, class and y
    assert code_lines.code_lines(SOURCE) == 8


def test_code_lines_print_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "     9  total"]
