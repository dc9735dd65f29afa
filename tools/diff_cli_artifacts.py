"""Compare the CLI artifacts and collapse reports of two source trees byte
for byte.

Runs the seven experiments of ``tests/test_cli.py::ALL_CONFIGS`` with each
tree's ``src/`` on the path, at seeds 1, 7 and 123, and saves the
``CollapseReport`` of both rot4 benchmark workloads (``ROT4`` of
``bench/workloads.py``, through its ``setup`` and ``run``) at sizes smoke
and full and the same seeds, as ``seedS/WORKLOAD/SIZE.json``.  It lists
every file whose bytes differ (or that only one tree wrote) and every
exit code that differs.  The configs and workloads come from this
repository's ``tests/test_cli.py`` and ``bench/workloads.py``.

    python tools/diff_cli_artifacts.py OLD_TREE NEW_TREE

Exit status: 0 when everything is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = ("1", "7", "123")

# Runs in a fresh interpreter per tree: argv is src dir, tests dir, bench
# dir, output dir, then the seeds.  Prints the exit codes as one JSON object.
_RUNNER = """
import json, sys
src, tests, bench, out = sys.argv[1:5]
sys.path[:0] = [src, tests, bench]
from test_cli import ALL_CONFIGS
from diraclab.cli import main
import workloads
from pathlib import Path
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
print(json.dumps(codes))
"""


def run_tree(tree: Path, out: Path) -> dict[str, int]:
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


def compare(old: Path, new: Path, work: Path) -> list[str]:
    """One line per differing artifact or exit code; empty when identical."""
    codes_old = run_tree(old, work / "old")
    codes_new = run_tree(new, work / "new")
    diffs = [
        f"exit code {key}: {codes_old[key]} -> {codes_new[key]}"
        for key in codes_old
        if codes_old[key] != codes_new[key]
    ]
    files_old = {p.relative_to(work / "old") for p in (work / "old").rglob("*") if p.is_file()}
    files_new = {p.relative_to(work / "new") for p in (work / "new").rglob("*") if p.is_file()}
    for rel in sorted(files_old | files_new):
        if rel not in files_new:
            diffs.append(f"only in old: {rel}")
        elif rel not in files_old:
            diffs.append(f"only in new: {rel}")
        elif (work / "old" / rel).read_bytes() != (work / "new" / rel).read_bytes():
            diffs.append(f"differs: {rel}")
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
