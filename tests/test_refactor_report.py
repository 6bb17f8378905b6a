"""The code-line counter of tools/refactor_report.py on a small sample."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "refactor_report.py"
_SPEC = importlib.util.spec_from_file_location("refactor_report", _PATH)
refactor_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(refactor_report)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Method docstring."""

        return (
            1
        )


TEXT = """a string that is not a docstring,
over two lines"""
'''


def test_counts_lines_that_hold_code():
    # import, class, def, the three lines of the return, and both lines of TEXT
    assert refactor_report.code_lines(SAMPLE) == 8
