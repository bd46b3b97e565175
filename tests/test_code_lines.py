"""``tools/code_lines.py``, the line counter behind the size metric of the
library modules."""

import importlib
import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SOURCE = textwrap.dedent(
    '''\
    """Module docstring
    over two lines."""

    import os  # a code line with a trailing comment


    # a comment-only line
    class Thing:
        """Class docstring."""

        def method(self):
            """Function docstring."""
            value = os.sep
            "a string expression that is not a docstring"
            return value
    '''
)


@pytest.fixture(scope="module")
def code_lines():
    sys.path.insert(0, str(TOOLS))
    try:
        yield importlib.import_module("code_lines")
    finally:
        sys.path.remove(str(TOOLS))


def test_count_skips_docstrings_comments_and_blank_lines(code_lines, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    # Code: the import, the class and def lines, the assignment, the string
    # expression and the return.
    assert code_lines.count(path) == (15, 6)
