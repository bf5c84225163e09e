import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_code_not_docstrings_comments_or_blank_lines():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts its line


class A:
    """Class docstring."""

    # a comment line
    def f(self, x):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return (x +
                1)
'''
    # import, class, def, the two lines of text, the two of the return
    assert code_lines.code_lines(source) == 7
