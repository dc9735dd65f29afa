"""Write reference.json: the observables every benchmark run is checked against.

Run once from the repository root, on the commit whose behaviour is the
reference:

    python3 bench/freeze.py

Only rerun it when the program's results are meant to change, and review
the diff of reference.json like any other change of expected values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FREEZE_SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import diraclab
    import workloads
    from run import SWEEP, WORKLOADS

    workdir = ROOT / ".bench_run" / "freeze"
    out: dict = {}
    for size in SWEEP:
        out[size] = {}
        for name in WORKLOADS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            state = workloads.setup(name, FREEZE_SEED, size, workdir)
            out[size][name] = workloads.observe(state, workloads.run(state))
    out["sweep"] = {}
    for size in SWEEP:
        for t in SWEEP[size]:
            model, cm = workloads.sweep_model(FREEZE_SEED)
            op = diraclab.assemble_dirac(model.with_scale(1.0), cm, t)
            spec = diraclab.eigensolve(op)
            out["sweep"][str(t)] = {
                "dim": op.dim,
                "blocks": len(op.block_slices),
                "eigenvalues": len(spec),
            }
    shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
