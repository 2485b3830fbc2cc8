"""The code-line count of tools/code_lines.py on a small sample source."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import code_lines  # noqa: E402

SAMPLE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment does not stop a code line

# a comment line


def f(x):
    """A function docstring."""
    total = math.fsum(
        [x, 1],
    )
    text = """a string that is a value,
not a docstring"""
    "a bare string statement"
    return total, text


class C:
    """One line."""

    y = 1
'''


def test_counts_code_lines_only():
    # import, def, total (3 lines), text (2 lines), return, class, y
    assert code_lines.code_lines(SAMPLE) == 10


def test_empty_and_docstring_only_sources_have_no_code_lines():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines("x = 1") == 1
