"""tools/diff_cli_artifacts.py, the byte-for-byte gate on the CLI artifacts
and rot4 collapse reports of two source trees: it passes a tree against
itself and names an artifact or report that a tree writes differently,
with the largest change of a number in it, and a config mutation whose
refusal differs."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "diff_cli_artifacts.py"
SEEDS = ("1", "7", "123")
ROT4 = ("collapse_spinor_rot4", "window_exterior_rot4")
CHANGE = r" \(largest float change \S+ abs, \S+ rel(, \d+ other value\(s\) differ)?\)"


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
    *lines, total = proc.stdout.splitlines()
    assert total == f"{len(SEEDS)} difference(s) over {len(SEEDS)} seed(s)"
    assert len(lines) == len(SEEDS)
    for seed, line in zip(sorted(SEEDS), lines):
        # the bound constant is the one number that moves, by 1
        path = re.escape(f"seed{seed}/perturbation/pert_report.json")
        assert re.fullmatch(rf"differs: {path} \(largest float change 1 abs, \S+ rel\)", line)


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
        f"seed{seed}/{name}/{size}.json"
        for seed in sorted(SEEDS) for name in ROT4 for size in ("full", "smoke")
    ]
    *lines, total = proc.stdout.splitlines()
    assert total == f"{len(reports)} difference(s) over {len(SEEDS)} seed(s)"
    assert len(lines) == len(reports)
    for report, line in zip(reports, lines):
        assert re.fullmatch(rf"differs: {re.escape(report)}{CHANGE}", line)


def test_a_refusal_that_changes_its_message_is_named(tmp_path):
    # a copy of the sources that refuses k_max < 1 with another message:
    # no artifact differs, and the two mutations it refuses, k_max = -1
    # and k_max = 0 of the collapse config, are named
    line = 'raise ValueError("k_max must be at least 1")'
    tree = _mutated(tmp_path, "collapse.py", line, 'raise ValueError("k_max must be positive")')
    proc = _diff(ROOT, tree)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"refusal collapse [numeric] k_max = {token!r}: [2, ['error: k_max must be at least 1']]"
        " -> [2, ['error: k_max must be positive']]"
        for token in ("-1", "0")
    ] + [f"2 difference(s) over {len(SEEDS)} seed(s)"]


def _tool():
    spec = importlib.util.spec_from_file_location("diff_cli_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_float_change_names_the_largest_move(tmp_path):
    change = _tool().float_change

    def pair(suffix, old, new):
        (tmp_path / f"old{suffix}").write_text(old)
        (tmp_path / f"new{suffix}").write_text(new)
        return change(tmp_path / f"old{suffix}", tmp_path / f"new{suffix}")

    # a last-bit move of 0.25 hidden by a move of 4 to 5, 1 relative to 5
    assert pair(".json", '{"a": [0.25, 4.0], "b": "x"}', '{"a": [0.24999999999999997, 5.0], "b": "x"}') == (
        " (largest float change 1 abs, 0.2 rel)"
    )
    assert pair(".json", '{"a": 0.25}', '{"a": 0.25000000000000006}') == (
        " (largest float change 5.6e-17 abs, 5.6e-17 rel)"
    )
    assert pair(".json", '{"a": 1.0, "v": "converges"}', '{"a": NaN, "v": "blows_up"}') == (
        " (largest float change inf abs, inf rel, 1 other value(s) differ)"
    )
    assert pair(".csv", "mu,mult\n1.5,2\n", "mu,mult\n1.5000001,2\n") == (
        " (largest float change 1e-07 abs, 6.7e-08 rel)"
    )
    assert pair(".json", '{"a": [1.0]}', '{"a": [1.0, 2.0]}') == " (layout differs)"
    assert pair(".json", '{"a": 1.0}', '{"a": ') == ""
    assert pair(".txt", "1.0", "2.0") == ""
