import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

CANNED = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code before it

# a comment line


class Cell:
    """Class docstring."""

    x = 1

    def f(self, a,
          b):
        """Function
        docstring."""
        s = """a multi-line string
        that is not a docstring"""
        return s  # 8 code lines: import, class, x, def (2), s (2), return
'''


def test_only_code_lines_count():
    assert code_lines.code_lines(CANNED) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n'
                                 '# and a note\n') == 0


def test_cli_prints_each_module_then_the_total(tmp_path):
    (tmp_path / "b.py").write_text(CANNED)
    (tmp_path / "a.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         check=True, capture_output=True, text=True,
                         timeout=60)
    assert out.stdout == "    4  a.py\n    8  b.py\n   12  total\n"


def test_cli_defaults_to_the_package():
    out = subprocess.run([sys.executable, str(TOOL)], check=True,
                         capture_output=True, text=True, timeout=60)
    rows = [line.split() for line in out.stdout.splitlines()]
    assert rows[-1][1] == "total"
    assert {"__init__.py", "harness.py", "rxchain.py"} <= {
        name for _, name in rows[:-1]}
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])


def test_cli_rejects_a_directory_without_modules(tmp_path):
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "no Python modules" in out.stderr
