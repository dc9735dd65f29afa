"""tools/src_report.py, the per-change report of the package's size and
import cost: run on one tree twice, it names every module with that
module's line count on both sides and times the modules that
``import diraclab`` loads."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_report.py"
sys.path.insert(0, str(ROOT / "tools"))

import src_report  # noqa: E402


def _report(old, new):
    """The size table of the report on the trees old and new, per row its
    cells, and the timing part."""
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--runs", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines, _, times = proc.stdout.partition("\nimport self time")
    rows = {fields[0]: fields[1:] for fields in map(str.split, lines.splitlines()[1:])}
    return rows, times


def test_report_of_a_tree_against_itself_counts_every_module():
    rows, times = _report(ROOT, ROOT)
    files = sorted((ROOT / "src" / "diraclab").glob("*.py"))
    counts = {path.name: len(path.read_text().splitlines()) for path in files}
    code = {path.name: src_report.code_line_count(path.read_bytes()) for path in files}
    for name, count in counts.items():
        assert rows[name] == [str(count)] * 2 + [str(code[name])] * 2
        assert 0 < code[name] < count
    totals = [sum(counts.values())] * 2 + [sum(code.values())] * 2
    assert rows["total"] == [str(t) for t in totals] + ["target", "3000"]
    assert set(rows) == set(counts) | {"total"}
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
    rows, _ = _report(tmp_path / "old", tmp_path / "new")
    assert rows["__init__.py"] == ["17", "18", "9", "9"]
    assert rows["total"] == ["17", "18", "9", "9", "target", "3000"]
