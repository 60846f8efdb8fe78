"""The code-line counter in tools/code_lines.py, on a probe file."""

from tools.code_lines import code_lines, main

PROBE = '''"""A module docstring
over two lines."""
import os  # a trailing comment does not stop the line from counting

# a comment line


def f(x):
    """A function docstring."""
    "a string that is a whole expression statement"
    y = """a string
    assigned over two lines"""
    return (x +
            y)
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, def, both lines of the assigned string, both lines of the return
    assert code_lines(PROBE) == 6
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(PROBE)
    (tmp_path / "a.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["1", "a.py", "6", "b.py", "7", "total"]
    assert main([]) == 2
