"""Compare the CLI artifacts and collapse reports of two source trees byte
for byte.

Runs the seven experiments of ``tests/test_cli.py::ALL_CONFIGS`` with each
tree's ``src/`` on the path, at seeds 1, 7 and 123, and saves the
``CollapseReport`` of both rot4 benchmark workloads (``ROT4`` of
``bench/workloads.py``, through its ``setup`` and ``run``) at sizes smoke
and full and the same seeds, as ``seedS/WORKLOAD/SIZE.json``.  It lists
every file whose bytes differ (or that only one tree wrote) and every
exit code that differs.  It also runs every single-key mutation of those
configs (``tests/test_cli.py::_mutations``) at the first seed and lists
each whose exit code or ``error:`` line differs, so that a refusal that
moves, or changes its message, shows.  Next to a differing JSON or CSV
file that parses on both sides it prints the largest change of a number
at the same place, absolute and relative to max(1, |value|) (the
tolerance table's "rel"), and how many other values differ, or that the
layout differs.  The
configs and workloads come from this repository's ``tests/test_cli.py``
and ``bench/workloads.py``.

    python tools/diff_cli_artifacts.py OLD_TREE NEW_TREE

Exit status: 0 when everything is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = ("1", "7", "123")

# Runs in a fresh interpreter per tree: argv is src dir, tests dir, bench
# dir, output dir, then the seeds.  Prints one JSON object: the exit codes,
# and per mutation its exit code (or the name of an exception escaping
# main) and its error line.
_RUNNER = """
import contextlib, io, json, sys, tempfile
src, tests, bench, out = sys.argv[1:5]
sys.path[:0] = [src, tests, bench]
from test_cli import ALL_CONFIGS, _mutations
from diraclab.cli import main
import workloads
from pathlib import Path
refusals = {}
with tempfile.TemporaryDirectory() as tmp:
    for i, (label, text) in enumerate(_mutations()):
        cfg = Path(tmp) / f"m{i}.ini"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(["--config", str(cfg), "--out", str(Path(tmp) / f"m{i}"), "--seed", sys.argv[5]])
            except Exception as exc:
                code = type(exc).__name__
        lines = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
        refusals[label] = [code, lines]
codes = {}
for seed in sys.argv[5:]:
    for name, text in sorted(ALL_CONFIGS.items()):
        run = Path(out) / f"seed{seed}" / name
        run.mkdir(parents=True)
        cfg = run.parent / f"{name}.ini"
        cfg.write_text(text)
        codes[f"seed{seed}/{name}"] = main(["--config", str(cfg), "--out", str(run), "--seed", seed])
    for name in sorted(workloads.ROT4):
        run = Path(out) / f"seed{seed}" / name
        run.mkdir(parents=True)
        for size in ("smoke", "full"):
            state = workloads.setup(name, int(seed), size, run)
            workloads.run(state)["report"].save(run / f"{size}.json")
print(json.dumps({"codes": codes, "refusals": refusals}))
"""


def run_tree(tree: Path, out: Path) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "-c", _RUNNER, str(tree / "src"), str(REPO / "tests"),
            str(REPO / "bench"), str(out), *SEEDS,
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _leaves(obj, key=()):
    """(position, value) of every scalar in a parsed JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, key + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, key + (i,))
    else:
        yield key, obj


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _values(path: Path) -> dict | None:
    """A JSON or CSV file's scalars by position, or None when it is neither
    or does not parse."""
    try:
        text = path.read_text()
        if path.suffix == ".json":
            return dict(_leaves(json.loads(text)))
        if path.suffix == ".csv":
            rows = csv.reader(io.StringIO(text))
            return {(i, j): _cell(c) for i, row in enumerate(rows) for j, c in enumerate(row)}
    except ValueError:  # UnicodeDecodeError and json's errors included
        pass
    return None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def float_change(old: Path, new: Path) -> str:
    """The largest change of a number between two versions of a JSON or CSV
    file, as a suffix for its line; empty when either does not parse."""
    a, b = _values(old), _values(new)
    if a is None or b is None:
        return ""
    if a.keys() != b.keys():
        return " (layout differs)"
    top_abs = top_rel = 0.0
    others = 0
    for key, x in a.items():
        y = b[key]
        if not (_is_number(x) and _is_number(y)):
            others += x != y
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            if math.isfinite(x) and math.isfinite(y):
                change = abs(x - y)
                top_abs = max(top_abs, change)
                top_rel = max(top_rel, change / max(1.0, abs(x), abs(y)))
            else:
                top_abs = top_rel = math.inf
    tail = f", {others} other value(s) differ" if others else ""
    return f" (largest float change {top_abs:.2g} abs, {top_rel:.2g} rel{tail})"


def compare(old: Path, new: Path, work: Path) -> list[str]:
    """One line per differing artifact, exit code or refusal; empty when
    identical."""
    runs_old = run_tree(old, work / "old")
    runs_new = run_tree(new, work / "new")
    codes_old, codes_new = runs_old["codes"], runs_new["codes"]
    diffs = [
        f"exit code {key}: {codes_old[key]} -> {codes_new[key]}"
        for key in codes_old
        if codes_old[key] != codes_new[key]
    ]
    refusals_old, refusals_new = runs_old["refusals"], runs_new["refusals"]
    diffs += [
        f"refusal {key}: {refusals_old[key]} -> {refusals_new[key]}"
        for key in refusals_old
        if refusals_old[key] != refusals_new[key]
    ]
    files_old = {p.relative_to(work / "old") for p in (work / "old").rglob("*") if p.is_file()}
    files_new = {p.relative_to(work / "new") for p in (work / "new").rglob("*") if p.is_file()}
    for rel in sorted(files_old | files_new):
        if rel not in files_new:
            diffs.append(f"only in old: {rel}")
        elif rel not in files_old:
            diffs.append(f"only in new: {rel}")
        elif (work / "old" / rel).read_bytes() != (work / "new" / rel).read_bytes():
            diffs.append(f"differs: {rel}" + float_change(work / "old" / rel, work / "new" / rel))
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree holding src/diraclab")
    parser.add_argument("new", type=Path, help="source tree holding src/diraclab")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        diffs = compare(args.old.resolve(), args.new.resolve(), Path(tmp))
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) over {len(SEEDS)} seed(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
