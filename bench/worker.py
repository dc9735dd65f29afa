"""One benchmark process: set up, run one workload once, check it, report.

run.py starts a fresh interpreter running this file for every repetition,
so each repetition pays interpreter start and imports, and its peak RSS is
its own.  The last line of standard output is one JSON object.

Modes:
  rep    set up, run the workload (optionally traced), check the outputs
  setup  set up only; reports the set-up time
  sweep  assemble and eigensolve collapse_spinor_rot4's model at one
         truncation and fiber scale 1

Usage: python3 bench/worker.py --mode rep --workload NAME --seed N
       --t-spawn T --workdir DIR [--size full|smoke] [--trace] [--truncation T]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_info() -> list[dict]:
    """OpenBLAS libraries loaded in this process, with their thread counts."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            if "openblas" in line.lower() and ".so" in line:
                paths.add(line.split()[-1])
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info: dict = {"library": Path(path).name}
        for pattern in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}"):
            threads = getattr(lib, pattern.format("_get_num_threads"), None)
            config = getattr(lib, pattern.format("_get_config"), None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                threads.argtypes = []
                config.restype = ctypes.c_char_p
                config.argtypes = []
                info["threads"] = threads()
                info["config"] = config().decode()
                break
        out.append(info)
    return out


def metadata() -> dict:
    import platform

    import numpy
    import scipy
    import diraclab

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "diraclab": diraclab.__version__,
        "blas": _blas_info(),
    }


def _rep(args) -> dict:
    import workloads
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workloads.setup(args.workload, args.seed, args.size, workdir)
    setup_s = time.monotonic() - args.t_spawn
    if args.mode == "setup":
        return {"setup_s": setup_s}
    call = tracer.span if tracer is not None else None
    start = time.perf_counter()
    result = workloads.run(state, call)
    wall_s = time.perf_counter() - start
    peak = _peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()

    observed = workloads.observe(state, result)
    expected = json.loads(REFERENCE.read_text())[args.size][args.workload]
    checks = [
        (key, key in observed and workloads.compare(observed[key], want))
        for key, want in expected.items()
    ]
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": peak,
        "checks": len(checks),
        "failed_checks": [key for key, ok in checks if not ok],
        "layers": workloads.layer_counts(state, result),
    }
    if tracer is not None:
        summary = tracer.summary()
        summary["cli.main.self_s"] = sum(
            r["self_s"] for r in tracer.spans if r["name"].startswith("cli.")
        )
        out["layers"].update(summary)
        out["spans"] = tracer.spans
    return out


def _sweep(args) -> dict:
    import diraclab
    import workloads

    model, cm = workloads.sweep_model(args.seed)
    scaled = model.with_scale(1.0)
    start = time.perf_counter()
    op = diraclab.assemble_dirac(scaled, cm, args.truncation)
    mid = time.perf_counter()
    spec = diraclab.eigensolve(op)
    end = time.perf_counter()
    expected = json.loads(REFERENCE.read_text())["sweep"].get(str(args.truncation))
    observed = {"dim": op.dim, "blocks": len(op.block_slices), "eigenvalues": len(spec)}
    failed = [k for k, v in (expected or {}).items() if observed.get(k) != v]
    if expected is None:
        failed.append("reference")
    prefix = f"sweep.T{args.truncation}"
    return {
        "checks": max(1, len(expected or {})),
        "failed_checks": failed,
        "layers": {
            f"{prefix}.dim": op.dim,
            f"{prefix}.blocks": len(op.block_slices),
            f"{prefix}.assemble_dirac.s": mid - start,
            f"{prefix}.eigensolve.s": end - mid,
            f"{prefix}.peak_rss_mib": _peak_rss_mib(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("rep", "setup", "sweep"), required=True)
    parser.add_argument("--workload", default="collapse_spinor_rot4")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--t-spawn", type=float, default=None)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--truncation", type=int, default=None)
    args = parser.parse_args(argv)
    if args.t_spawn is None:
        args.t_spawn = time.monotonic()

    sys.path.insert(0, str(ROOT / "src"))
    import diraclab

    source = Path(diraclab.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: imported diraclab from {source}, not from this checkout", file=sys.stderr)
        return 2
    out = _sweep(args) if args.mode == "sweep" else _rep(args)
    if args.mode != "setup":
        out["meta"] = metadata()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
