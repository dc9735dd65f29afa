"""Import-time dependencies: the package runs on numpy alone, and
`import diraclab` loads no more of numpy than numpy itself does."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import numpy as np
import diraclab, diraclab.cli
from diraclab import (
    AffineMappingTorus, FlatTorusModel, collapse_run, exterior_module, limit_operator,
)

model = AffineMappingTorus(
    fiber=FlatTorusModel(np.eye(2), np.zeros(2)),
    holonomy=np.array([[0, -1], [1, 0]]),
    base_length=1.0,
    base_shift=0.5,
)
cm = exterior_module(3)
report = collapse_run(model, cm, [1.0, 0.5], 2, 1)
limit_operator(model, cm, 1).matrix
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"verdict": report.verdict, "scipy": scipy}))
"""


def _run(script: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_scipy_module_is_loaded():
    out = _run(SCRIPT)
    assert out["verdict"] == "converges"
    assert out["scipy"] == []


RANDOM_SCRIPT = """
import json, sys
import numpy
by_numpy = "numpy.random" in sys.modules
import diraclab
by_package = "numpy.random" in sys.modules
op = diraclab.assemble_dirac(
    diraclab.FlatTorusModel(numpy.eye(1), numpy.zeros(1)), diraclab.spinor_gammas(1), 2
)
ok = diraclab.rayleigh_minimax_check(op, 2, trials=3).ok
import diraclab.cli
print(json.dumps({
    "by_numpy": by_numpy, "by_package": by_package, "ok": ok,
    "by_cli": "numpy.random" in sys.modules,
}))
"""


def test_import_does_not_load_numpy_random():
    # the random generator is loaded on first use; the CLI, whose
    # experiments draw random numbers, still loads it at import
    out = _run(RANDOM_SCRIPT)
    assert out["by_package"] == out["by_numpy"]
    assert out["ok"] and out["by_cli"]
