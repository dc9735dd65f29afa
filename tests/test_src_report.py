"""tools/src_report.py, the per-change report of the package's size and
import cost: run on one tree twice, it names every module with that
module's line count on both sides and times the modules that
``import diraclab`` loads."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "src_report.py"


def test_report_of_a_tree_against_itself_counts_every_module():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--runs", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines, _, times = proc.stdout.partition("\nimport self time")
    rows = {fields[0]: fields[1:] for fields in map(str.split, lines.splitlines()[1:])}
    files = sorted((ROOT / "src" / "diraclab").glob("*.py"))
    counts = {path.name: len(path.read_text().splitlines()) for path in files}
    for name, count in counts.items():
        assert rows[name] == [str(count), str(count)]
    assert rows["total"] == [str(sum(counts.values()))] * 2 + ["target", "3000"]
    assert set(rows) == set(counts) | {"total"}
    timed = {fields[0] for fields in map(str.split, times.splitlines()[2:])}
    assert {"__init__.py", "mapping.py", "symbols.py", "total"} <= timed
    assert "__main__.py" not in timed
