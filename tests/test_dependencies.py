"""The package runs on numpy alone: no code path loads scipy."""

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


def test_no_scipy_module_is_loaded():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["verdict"] == "converges"
    assert out["scipy"] == []
