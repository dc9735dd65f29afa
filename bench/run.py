"""diraclab benchmark: one workload, measured for a fixed time, checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition of the workload runs in a
fresh interpreter (bench/worker.py) with one closed-loop caller: the next
repetition starts when the previous one has ended.  Repetitions continue
while the next one is expected to end within --seconds.

--trace 0 reports the end-to-end metrics: the medians over repetitions of
wall_s (first library call to results), setup_s (interpreter start, imports,
model and config construction) and peak_rss_mib (ru_maxrss of the
repetition's process).  --trace 1 alternates traced and untraced
repetitions, runs the truncation sweep, and reports the per-layer metrics
named in BENCHMARK.json (medians over traced repetitions; a layer the
workload never calls reads 0) plus trace.overhead_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count output checks
against bench/reference.json, so failed / attempted is the failure
fraction.  Metadata, per-repetition values and spans go to
.bench_run/<workload>-seed<N>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUTDIR = ROOT / ".bench_run"

WORKLOADS = ("collapse_spinor_rot4", "window_exterior_rot4", "perturbation_flat", "cli_suite")
SWEEP = {"full": (4, 5, 6), "smoke": (4,)}
SWEEP_NOTE = "T=8 (dim 9394) is left out of the sweep: dense storage needs about 4 GiB there"
SWEEP_COLUMNS = ("dim", "blocks", "assemble_dirac.s", "eigensolve.s", "peak_rss_mib")
MIN_SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Runner:
    """Starts worker processes one at a time and collects their reports."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.workroot = OUTDIR / f"{workload}-seed{seed}-work"
        self.count = 0
        self.attempted = 0
        self.failed: list[str] = []
        self.meta: dict | None = None

    def worker(self, mode: str, *extra: str) -> dict | None:
        """Run one worker; returns its report, or None when it failed."""
        self.count += 1
        workdir = self.workroot / f"{mode}{self.count}"
        cmd = [
            sys.executable, str(WORKER), "--mode", mode, "--workload", self.workload,
            "--seed", str(self.seed), "--size", self.size, "--workdir", str(workdir), *extra,
        ]
        try:
            proc = subprocess.run(
                [*cmd, "--t-spawn", repr(time.monotonic())],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise WorkerError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            if not lines:
                raise WorkerError("no report")
            report = json.loads(lines[-1])
        except (subprocess.TimeoutExpired, WorkerError, json.JSONDecodeError) as exc:
            print(f"# worker {mode} {' '.join(extra)} failed: {exc}", file=sys.stderr)
            self.attempted += 1
            self.failed.append(f"{mode}{self.count}: worker failed")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if mode != "setup":
            self.attempted += report["checks"]
            self.failed.extend(f"{mode}{self.count}: {k}" for k in report["failed_checks"])
        self.meta = report.pop("meta", self.meta)
        return report

    def close(self) -> None:
        shutil.rmtree(self.workroot, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def _measure_e2e(runner: Runner, seconds: float) -> tuple[dict, dict]:
    reps: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start + _median(durations) <= seconds:
        t0 = time.monotonic()
        rep = runner.worker("rep")
        durations.append(time.monotonic() - t0)
        if rep is not None:
            reps.append(rep)
        elif not reps and len(durations) >= 3:
            break
    setups = [r["setup_s"] for r in reps]
    while reps and len(setups) < MIN_SETUP_SAMPLES:
        rep = runner.worker("setup")
        if rep is None:
            break
        setups.append(rep["setup_s"])
    metrics = {
        "wall_s": _median([r["wall_s"] for r in reps]),
        "setup_s": _median(setups),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in reps]),
    }
    raw = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups,
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
    }
    return metrics, raw


def _measure_layers(runner: Runner, seconds: float, names: list[str]) -> tuple[dict, dict]:
    start = time.monotonic()
    sweep: dict[str, float] = {}
    for truncation in SWEEP[runner.size]:
        rep = runner.worker("sweep", "--truncation", str(truncation))
        if rep is not None:
            sweep.update(rep["layers"])
    traced: list[dict] = []
    plain: list[dict] = []
    pair_durations: list[float] = []
    while not pair_durations or time.monotonic() - start + _median(pair_durations) <= seconds:
        t0 = time.monotonic()
        for trace in (True, False):
            rep = runner.worker("rep", *(["--trace"] if trace else []))
            if rep is not None:
                (traced if trace else plain).append(rep)
        pair_durations.append(time.monotonic() - t0)
        if not traced and len(pair_durations) >= 3:
            break
    metrics: dict[str, float | None] = {}
    for name in names:
        if name in sweep:
            metrics[name] = sweep[name]
        elif traced:
            metrics[name] = _median([r["layers"].get(name, 0) for r in traced])
        else:
            metrics[name] = None
    if traced and plain:
        metrics["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median(
            [r["wall_s"] for r in plain]
        )
    raw = {
        "sweep": sweep,
        "sweep_note": SWEEP_NOTE,
        "traced_wall_s": [r["wall_s"] for r in traced],
        "untraced_wall_s": [r["wall_s"] for r in plain],
        "layers": [r["layers"] for r in traced],
        "spans": [r["spans"] for r in traced],
    }
    return metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs, for the harness's own test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "diraclab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no diraclab sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    runner = Runner(args.workload, args.seed, args.size)
    started = time.time()
    try:
        if args.trace:
            values, raw = _measure_layers(runner, args.seconds, list(units))
        else:
            values, raw = _measure_e2e(runner, args.seconds)
    finally:
        runner.close()
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"error: no successful repetition measured {', '.join(missing)}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "started_unix": started,
        "workers": runner.count,
        **(runner.meta or {}),
    }
    OUTDIR.mkdir(exist_ok=True)
    log = OUTDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps(
        {"meta": meta, "metrics": values, "raw": raw, "failed_checks": runner.failed}, indent=1
    ) + "\n")
    if runner.failed:
        print(f"# failed checks: {runner.failed[:20]}", file=sys.stderr)
    fail_frac = len(runner.failed) / runner.attempted
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    if args.trace:
        print("# sweep: truncation, dim, blocks, assemble_dirac s, eigensolve s, peak RSS MiB")
        for t in SWEEP[args.size]:
            row = [raw["sweep"].get(f"sweep.T{t}.{k}") for k in SWEEP_COLUMNS]
            print(f"# sweep T={t} " + " ".join(f"{v:.4g}" if v is not None else "-" for v in row))
        print(f"# {SWEEP_NOTE}")
    print(f"# fail_frac {fail_frac!r} ({len(runner.failed)} of {runner.attempted} checks); log {log}")
    result = {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
