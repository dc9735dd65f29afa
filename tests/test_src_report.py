"""tools/src_report.py, the per-change report of the package's size and
import cost: run on one tree twice, it names every module with that
module's line count on both sides, counts the public settable values and
times the modules that ``import diraclab`` loads."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_report.py"
sys.path.insert(0, str(ROOT / "tools"))

import src_report  # noqa: E402


def _report(old, new):
    """The size table of the report on the trees old and new, per row its
    cells, the settable-value counts (old, new) and the timing part."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--runs", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines, _, rest = proc.stdout.partition("\npublic settable values: ")
    settable, _, times = rest.partition("\nimport self time")
    counts = re.fullmatch(r"old (\d+), new (\d+)\n", settable)
    rows = {fields[0]: fields[1:] for fields in map(str.split, lines.splitlines()[1:])}
    return rows, tuple(map(int, counts.groups())), times


def test_report_of_a_tree_against_itself_counts_every_module():
    rows, settable, times = _report(ROOT, ROOT)
    files = sorted((ROOT / "src" / "diraclab").glob("*.py"))
    counts = {path.name: len(path.read_text().splitlines()) for path in files}
    code = {path.name: src_report.code_line_count(path.read_bytes()) for path in files}
    for name, count in counts.items():
        assert rows[name] == [str(count)] * 2 + [str(code[name])] * 2
        assert 0 < code[name] < count
    totals = [sum(counts.values())] * 2 + [sum(code.values())] * 2
    assert rows["total"] == [str(t) for t in totals] + ["target", "3000"]
    assert set(rows) == set(counts) | {"total"}
    assert settable[0] == settable[1] == src_report.settable_values(ROOT) > 0
    timed = {fields[0] for fields in map(str.split, times.splitlines()[2:])}
    assert {"__init__.py", "mapping.py", "symbols.py", "total"} <= timed
    assert "__main__.py" not in timed


_MODULE = '''\
"""A module docstring."""

import os  # a comment


class Thing:
    """A class docstring."""

    def method(self):
        """One line."""
        # a comment alone
        text = """a string
        over two lines"""
        return (
            text,
            os.sep,
        )
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    # two trees whose module differs only in a docstring: one more line, no
    # more code
    longer = _MODULE.replace('"""One line."""', '"""One line,\n        and another."""')
    for tree, text in (("old", _MODULE), ("new", longer)):
        package = tmp_path / tree / "src" / "diraclab"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text(text)
    assert src_report.code_line_count(_MODULE.encode()) == 9
    rows, settable, _ = _report(tmp_path / "old", tmp_path / "new")
    assert rows["__init__.py"] == ["17", "18", "9", "9"]
    assert rows["total"] == ["17", "18", "9", "9", "target", "3000"]
    # the module imports nothing relatively, so nothing public is settable
    assert settable == (0, 0)


_PARTS = '''\
from dataclasses import dataclass, field

LIMIT = 3


def solve(a, b=1, *args, c, d=2, **kwargs):
    return a


def _hidden(x=1):
    return x


@dataclass
class Record:
    a: int
    b: int = 0
    c: tuple = field(default=())


class Refused(ValueError):
    pass


class Plain:
    def __init__(self, x=1):
        self.x = x
'''


def test_settable_values_count_the_defaults_of_what_the_package_imports(tmp_path):
    # solve's b and d, and Record's b and c: four; the constant, the
    # exception and the class that is no dataclass count none, and neither
    # does a defaulted function the package does not import
    package = tmp_path / "src" / "diraclab"
    package.mkdir(parents=True)
    (package / "parts.py").write_text(_PARTS)
    (package / "__init__.py").write_text(
        "from .parts import LIMIT, Plain, Record, Refused, solve\n"
    )
    assert src_report.settable_values(tmp_path) == 4
    (package / "__init__.py").write_text("from .parts import Record as Renamed, solve\n")
    assert src_report.settable_values(tmp_path) == 4
    (package / "__init__.py").write_text("from .parts import _hidden\n")
    assert src_report.settable_values(tmp_path) == 1
