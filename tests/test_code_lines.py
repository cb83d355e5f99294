from __future__ import annotations

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

# A comment.
import os  # a trailing comment keeps its line


def f(x):
    """One-line docstring."""
    s = """a string that is
not a docstring"""
    return (x +
            1)
'''
    # import, def, the two string lines, and the two return lines.
    assert code_lines.count(source) == (6, 13)
