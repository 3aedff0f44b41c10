"""tools/src_lines.py: the per-module line counts quoted in CHANGES.md."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "src_lines.py")

# Module, class, method and async-function docstrings, `#` comments on
# their own lines (indented too), blank lines, and code: a trailing
# comment and a multi-line string that is not a docstring count as code.
MODULE_A = [
    '"""Module docstring',               # docstring
    'on two lines."""',                  # docstring
    '',
    '# a comment',
    'import os',                         # code
    '',
    '',
    'class Thing:',                      # code
    '    """Class docstring."""',        # docstring
    '',
    '    x = 1  # trailing comment',     # code
    '',
    '    def method(self):',             # code
    '        """Method',                 # docstring
    '        docstring.',                # docstring
    '        """',                       # docstring
    '        return os.sep',             # code
]
MODULE_B = [
    'def f():',                          # code
    '    # indented comment',
    '    return "not a docstring"',      # code
    '',
    '',
    'async def g():',                    # code
    "    '''Async docstring.'''",        # docstring
    '    s = """a string',               # code
    '    that spans lines"""',           # code
    '    return s',                      # code
]


def run_src_lines(*args):
    out = subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].split() == ["module", "total", "code"]
    return {name: (int(total), int(code))
            for name, total, code in (line.split() for line in lines[1:])}


def test_counts_of_a_small_package(tmp_path):
    (tmp_path / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "a.py").write_text("\n".join(MODULE_A) + "\n",
                                   encoding="utf-8")
    (tmp_path / "b.py").write_text("\n".join(MODULE_B) + "\n",
                                   encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert run_src_lines(str(tmp_path)) == {
        "__init__.py": (0, 0), "a.py": (17, 5), "b.py": (10, 6),
        "sum": (27, 11)}


def test_sum_row_adds_the_module_rows_of_the_package():
    rows = run_src_lines()
    total = rows.pop("sum")
    package = os.path.join(ROOT, "src", "sparseconv")
    assert sorted(rows) == sorted(name for name in os.listdir(package)
                                  if name.endswith(".py"))
    assert total == tuple(map(sum, zip(*rows.values())))
