"""Report the size and import cost of the package in two source trees.

For each module ``src/diraclab/*.py`` of either tree it prints the line
count in both trees (``-`` where a tree lacks the module) and its code
lines, those that are neither blank, a comment nor part of a docstring,
then the totals of both beside the budget of 3000 lines.  Deleting prose
moves the lines but not the code lines.  It then counts each tree's public
settable values: the parameters with a default of the callables that
``diraclab/__init__.py`` imports, dataclass constructors included (other
classes, such as exceptions, count none).  It then times
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
import ast
import io
import os
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

# the line budget of src/ that the project aims at
TARGET_LINES = 3000


def line_counts(tree: Path) -> dict[str, int]:
    """Lines (newline characters, as wc -l counts them) per module file."""
    package = tree / "src" / "diraclab"
    return {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}


# tokens that hold no code: a line made only of these is blank or a comment
_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_line_count(source: bytes) -> int:
    """Lines of source that some code token touches, less the lines of the
    module, class and function docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def code_counts(tree: Path) -> dict[str, int]:
    """Code lines (code_line_count) per module file."""
    package = tree / "src" / "diraclab"
    return {path.name: code_line_count(path.read_bytes()) for path in sorted(package.glob("*.py"))}


# run with a tree's src/ on PYTHONPATH; prints settable_values' count
_SETTABLE_SCRIPT = """
import ast, dataclasses, inspect
import diraclab
with open(diraclab.__file__, encoding="utf-8") as fh:
    body = ast.parse(fh.read()).body
names = [a.asname or a.name for n in body if isinstance(n, ast.ImportFrom) and n.level == 1
         for a in n.names]
count = 0
for obj in (getattr(diraclab, name) for name in names):
    if callable(obj) and (dataclasses.is_dataclass(obj) or not inspect.isclass(obj)):
        count += sum(p.default is not p.empty for p in inspect.signature(obj).parameters.values())
print(count)
"""


def settable_values(tree: Path) -> int:
    """Public settable values of a tree (see the module docstring), from
    one fresh process that imports the tree's package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SETTABLE_SCRIPT],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


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
    code = {side: code_counts(tree) for side, tree in trees.items()}
    modules = sorted(set(lines["old"]) | set(lines["new"]))
    print(f"{'module':<16} {'old lines':>10} {'new lines':>10} {'old code':>10} {'new code':>10}")
    for name in modules:
        cells = [counts[side].get(name) for counts in (lines, code) for side in ("old", "new")]
        print(f"{name:<16} " + " ".join(f"{_cell(c):>10}" for c in cells))
    totals = [sum(counts[side].values()) for counts in (lines, code) for side in ("old", "new")]
    print(f"{'total':<16} " + " ".join(f"{t:>10}" for t in totals) + f"   target {TARGET_LINES}")
    settable = {side: settable_values(tree) for side, tree in trees.items()}
    print(f"\npublic settable values: old {settable['old']}, new {settable['new']}")

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
