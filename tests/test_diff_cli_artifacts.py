"""tools/diff_cli_artifacts.py, the byte-for-byte gate on the CLI artifacts
and rot4 collapse reports of two source trees: it passes a tree against
itself and names an artifact or report that a tree writes differently."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "diff_cli_artifacts.py"
SEEDS = ("1", "7", "123")
ROT4 = ("collapse_spinor_rot4", "window_exterior_rot4")


def _diff(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new)], capture_output=True, text=True
    )


def test_a_tree_against_itself_has_no_difference():
    proc = _diff(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"0 difference(s) over {len(SEEDS)} seed(s)"]


def _mutated(tmp_path: Path, module: str, line: str, new: str) -> Path:
    """A copy of the sources with the one given line of the module replaced."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "diraclab" / module
    assert path.read_text().count(line) == 1
    path.write_text(path.read_text().replace(line, new))
    return tmp_path


def test_an_artifact_written_differently_is_named(tmp_path):
    # a copy of the sources whose perturbation experiment reports another
    # bound constant: only its report differs, at every seed
    line = '"bound_constant": float(c_bound),'
    tree = _mutated(tmp_path, "cli.py", line, '"bound_constant": float(c_bound) + 1.0,')
    proc = _diff(ROOT, tree)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"differs: seed{seed}/perturbation/pert_report.json" for seed in sorted(SEEDS)
    ] + [f"{len(SEEDS)} difference(s) over {len(SEEDS)} seed(s)"]


def test_a_rot4_report_written_differently_is_named(tmp_path):
    # a copy of the sources whose orbits of size d > 1 take their base
    # momenta on a circle of d^2 base lengths: every CLI mapping torus has
    # the identity holonomy, so orbits of size 1, and only the rot4 reports
    # differ, at both sizes and every seed
    line = "kappa = 2.0 * np.pi * (us[:, None] + thetas) / (d * base_length)"
    tree = _mutated(tmp_path, "mapping.py", line, line.replace("(d * base_length)", "(d * d * base_length)"))
    proc = _diff(ROOT, tree)
    assert proc.returncode == 1, proc.stderr
    reports = [
        f"differs: seed{seed}/{name}/{size}.json"
        for seed in sorted(SEEDS) for name in ROT4 for size in ("full", "smoke")
    ]
    assert proc.stdout.splitlines() == reports + [f"{len(reports)} difference(s) over {len(SEEDS)} seed(s)"]
