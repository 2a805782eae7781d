import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_without_docstrings_comments_or_blanks(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""A module docstring
over two lines."""

# a comment
X = """a string that is
code"""  # a trailing comment


class A:
    """A class docstring."""

    def f(self):
        """A method docstring."""
        return (1,
                2)
''')
    # X spans 2 lines, class A, def f and the return over 2 lines
    assert _tool().code_lines(source) == 6
