"""tools/diff_cli_artifacts.py, the byte-for-byte gate on the CLI artifacts
of two source trees: it passes a tree against itself and names an artifact
that a tree writes differently."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "diff_cli_artifacts.py"
SEEDS = ("1", "7", "123")


def _diff(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new)], capture_output=True, text=True
    )


def test_a_tree_against_itself_has_no_difference():
    proc = _diff(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 difference(s) over {len(SEEDS)} seed(s)"]


def test_an_artifact_written_differently_is_named(tmp_path):
    # a copy of the sources whose perturbation experiment reports another
    # bound constant: only its report differs, at every seed
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "diraclab" / "cli.py"
    line = '"bound_constant": float(c_bound),'
    assert cli.read_text().count(line) == 1
    cli.write_text(cli.read_text().replace(line, '"bound_constant": float(c_bound) + 1.0,'))
    proc = _diff(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"differs: seed{seed}/perturbation/pert_report.json" for seed in sorted(SEEDS)
    ] + [f"{len(SEEDS)} difference(s) over {len(SEEDS)} seed(s)"]
