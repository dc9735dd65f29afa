"""Report the size and import cost of the package in two source trees.

For each module ``src/diraclab/*.py`` of either tree it prints the line
count in both trees (``-`` where a tree lacks the module), then both
totals beside the budget of 3000 lines.  It then times
``python -X importtime -c "import diraclab"`` in fresh processes, the two
trees taking turns, each with its own ``src/`` on ``PYTHONPATH`` and with
bytecode writing off, so that the trees are only read and every run
compiles the sources as a fresh checkout does.  For each diraclab module
that ``import diraclab`` loads it prints the median self time over the
runs of each tree, in milliseconds, and the sum of those medians.

    python tools/src_report.py OLD_TREE NEW_TREE --runs 5

Import times drift with the host's load; compare them only within one
report, whose runs alternate between the trees.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

# the line budget of src/ that the project aims at
TARGET_LINES = 3000


def line_counts(tree: Path) -> dict[str, int]:
    """Lines (newline characters, as wc -l counts them) per module file."""
    package = tree / "src" / "diraclab"
    return {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}


def import_self_us(tree: Path) -> dict[str, int]:
    """Self import time in microseconds per diraclab module, keyed by file
    name, from one fresh ``python -X importtime`` process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import diraclab"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    times = {}
    # each line reads "import time: <self us> | <cumulative us> | <indented name>"
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "diraclab" or name.startswith("diraclab."):
            module = name.partition(".")[2] or "__init__"
            times[f"{module}.py"] = int(fields[0])
    return times


def _cell(value) -> str:
    return "-" if value is None else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree holding src/diraclab/")
    parser.add_argument("new", type=Path, help="source tree holding src/diraclab/")
    parser.add_argument("--runs", type=int, default=5, help="import runs per tree (default 5)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "diraclab").is_dir():
            parser.error(f"{tree} holds no src/diraclab/")
    lines = {side: line_counts(tree) for side, tree in trees.items()}
    modules = sorted(set(lines["old"]) | set(lines["new"]))
    print(f"{'module':<16} {'old lines':>10} {'new lines':>10}")
    for name in modules:
        print(f"{name:<16} {_cell(lines['old'].get(name)):>10} {_cell(lines['new'].get(name)):>10}")
    totals = {side: sum(counts.values()) for side, counts in lines.items()}
    print(f"{'total':<16} {totals['old']:>10} {totals['new']:>10}   target {TARGET_LINES}")

    runs: dict[str, list[dict[str, int]]] = {"old": [], "new": []}
    for i in range(args.runs):
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            runs[side].append(import_self_us(trees[side]))
    medians = {
        side: {
            name: statistics.median(run[name] for run in side_runs) / 1000.0
            for name in sorted(set().union(*side_runs))
        }
        for side, side_runs in runs.items()
    }
    print(f"\nimport self time, median of {args.runs} run(s) per tree, ms")
    print(f"{'module':<16} {'old ms':>10} {'new ms':>10}")
    for name in sorted(set(medians["old"]) | set(medians["new"])):
        cells = [medians[side].get(name) for side in ("old", "new")]
        print(f"{name:<16} " + " ".join(f"{'-' if c is None else f'{c:.2f}':>10}" for c in cells))
    sums = [sum(medians[side].values()) for side in ("old", "new")]
    print(f"{'total':<16} {sums[0]:>10.2f} {sums[1]:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
