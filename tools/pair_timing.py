"""Time one benchmark workload on two source trees, in alternating pairs.

Each run is the tree's own ``bench/worker.py --mode rep``, started as
``bench/run.py`` starts it (from the tree, with its ``src/`` on
``PYTHONPATH``), so it times what the benchmark gate times.  Both trees
run from copies of their ``src/`` and ``bench/`` at two temporary paths
of equal length, as the peak RSS of a run steps by about 0.13 MiB with
where its checkout lives, enough to read as a change.  A run is one ``run``
call after ``setup``, whose outputs the worker then checks against the
tree's ``bench/reference.json``.  A run whose worker fails, or whose
checks fail, is reported as failed and not timed, and the tool stops with
exit status 1.  Pair i (from 1) runs each tree 5 times at seed
first-seed + i - 1 (``--first-seed``, default 1), the two trees taking
turns, and each side of the pair is the median of its tree's 5 runs: a
single cold call is bimodal on a loaded host and cannot resolve a change
of about 0.5 ms.  The tree that goes first
alternates from pair to pair.  The tool prints every pair's ``wall_s``,
then judges each metric alike: ``wall_s``, ``setup_s`` (from just before
the process is spawned to the start of ``run``: interpreter start, imports
and ``setup``) and ``peak_rss_mib`` (``ru_maxrss`` of the run's process,
read before the checks).  For each it prints each tree's median and
quartiles over its pairs, the new tree's median change relative to the
old one's beside the old tree's interquartile range, and how many pairs
the new tree won (a lower value wins).  A gain on a metric holds when
the new tree wins at least nine pairs in ten and the medians differ by
more than the old tree's interquartile range.  Beside each metric it also
prints whether the new median is worse than the old one by more than that
metric's ``bound`` in this repository's ``BENCHMARK.json`` (relative to
the old median), the benchmark's no-regression gate; the file is only
read.

    python tools/pair_timing.py OLD_TREE NEW_TREE --workload collapse_spinor_rot4 --pairs 20

A claim written while looking at seeds 1 to N is re-checked on held-out
seeds with ``--first-seed`` above N.

It is a quick check before the longer ``bench/run.py`` runs, with one
call per process.  A pair costs 10 processes, each with its own
``setup``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# fresh processes per tree and pair; each side of a pair is their median
PROCESSES = 5

# the metrics each run reports, from its worker's JSON line
METRICS = ("wall_s", "setup_s", "peak_rss_mib")

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class RunFailed(Exception):
    """A worker that failed, or whose outputs failed their checks."""


def run_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One ``bench/worker.py --mode rep`` run of the tree; its metrics, or
    RunFailed."""
    with tempfile.TemporaryDirectory() as work:
        cmd = [
            sys.executable, str(tree / "bench" / "worker.py"), "--mode", "rep",
            "--workload", workload, "--seed", str(seed), "--workdir", work,
        ]
        proc = subprocess.run(
            [*cmd, "--t-spawn", repr(time.monotonic())],
            cwd=tree,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            capture_output=True,
            text=True,
        )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    if report["failed_checks"]:
        raise RunFailed(f"failed checks {report['failed_checks']}")
    return {key: report[key] for key in METRICS}


def stage_trees(trees: dict[str, Path], root: Path) -> dict[str, Path]:
    """Copies of each tree's ``src/`` and ``bench/`` (without bytecode) at
    root / side, one directory per side; the sides' names are of equal
    length, so the copies' paths are too."""
    staged = {}
    for side, tree in trees.items():
        for part in ("src", "bench"):
            shutil.copytree(
                tree / part, root / side / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        staged[side] = root / side
    return staged


def run_side(runs: list[dict[str, float]]) -> dict[str, float]:
    """One side of a pair: the median of each metric over its runs."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def load_bounds() -> dict[str, dict]:
    """BENCHMARK.json's end-to-end metrics by name, each with its bound."""
    return {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def judge(key: str, old: list[float], new: list[float], gate: dict | None = None) -> None:
    """Print one metric's verdict over the pairs: each tree's median and
    quartiles, the median change against the old tree's IQR, the pairs the
    new tree won and, given the metric's BENCHMARK.json entry gate, whether
    the change is worse than its bound times the old median."""
    stats = {}
    for side, values in (("old", old), ("new", new)):
        q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        q1, q2, q3 = stats[side] = q
        print(f"{key} {side}: median {q2:.5f}, quartiles {q1:.5f} {q3:.5f} (IQR {q3 - q1:.5f})")
    iqr = stats["old"][2] - stats["old"][0]
    change = stats["new"][1] - stats["old"][1]
    wins = sum(b < a for a, b in zip(old, new))
    print(
        f"{key}: median change {change:+.5f} ({100.0 * change / stats['old'][1]:+.1f}%), "
        f"|change| {'>' if abs(change) > iqr else '<='} old IQR {iqr:.5f}; "
        f"new won {wins}/{len(old)} pairs"
    )
    if gate is not None:
        worse = change if gate["better"] == "lower" else -change
        beyond = worse > gate["bound"] * stats["old"][1]
        print(
            f"{key}: bound {100.0 * gate['bound']:g}% of the old median: "
            f"{'WORSE beyond the bound' if beyond else 'within the bound'}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree holding src/ and bench/")
    parser.add_argument("new", type=Path, help="source tree holding src/ and bench/")
    parser.add_argument("--workload", required=True, help="a workload name of bench/workloads.py")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (default 10)")
    parser.add_argument(
        "--first-seed", type=int, default=1, help="seed of the first pair (default 1)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bounds = load_bounds()
    with tempfile.TemporaryDirectory() as root:
        trees = stage_trees({"old": args.old.resolve(), "new": args.new.resolve()}, Path(root))
        results = run_pairs(trees, args.workload, args.pairs, args.first_seed)
    if results is None:
        return 1
    for key in METRICS:
        judge(key, [r[key] for r in results["old"]], [r[key] for r in results["new"]], bounds.get(key))
    return 0


def run_pairs(
    trees: dict[str, Path], workload: str, pairs: int, first_seed: int
) -> dict[str, list[dict[str, float]]] | None:
    """Each tree's sides over the pairs, printing every pair's wall_s as it
    ends, or None after a failed run."""
    results: dict[str, list[dict[str, float]]] = {"old": [], "new": []}
    for i in range(pairs):
        seed = first_seed + i
        order = ("old", "new") if i % 2 == 0 else ("new", "old")
        runs: dict[str, list[dict[str, float]]] = {"old": [], "new": []}
        for _ in range(PROCESSES):
            for side in order:
                try:
                    runs[side].append(run_once(trees[side], workload, seed))
                except RunFailed as err:
                    print(f"pair {i + 1} seed {seed}: {side} FAILED, not timed: {err}")
                    return None
        for side in order:
            results[side].append(run_side(runs[side]))
        old, new = results["old"][-1]["wall_s"], results["new"][-1]["wall_s"]
        print(f"pair {i + 1} seed {seed} ({order[0]} first): old {old:.5f} s, new {new:.5f} s")
    return results


if __name__ == "__main__":
    sys.exit(main())
