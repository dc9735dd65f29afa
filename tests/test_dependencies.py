"""Import-time dependencies: the package runs on numpy alone, and no path
through it loads more of numpy than numpy itself does."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import ALL_CONFIGS

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


def _run(script: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
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
import diraclab
loaded = {"import diraclab": "numpy.random" in sys.modules}
import diraclab.cli
loaded["import diraclab.cli"] = "numpy.random" in sys.modules
codes = {cfg: diraclab.cli.main(["--config", cfg, "--out", cfg + ".out"]) for cfg in sys.argv[1:]}
loaded["cli.main"] = "numpy.random" in sys.modules
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_import_does_not_load_numpy_random(tmp_path):
    # seeded draws come from the standard library's generator, so neither
    # the package, nor the CLI, nor any experiment loads numpy.random
    paths = []
    for name, text in sorted(ALL_CONFIGS.items()):
        paths.append(str(tmp_path / f"{name}.ini"))
        Path(paths[-1]).write_text(text)
    out = _run(RANDOM_SCRIPT, *paths)
    assert out["codes"] == dict.fromkeys(paths, 0)
    assert out["loaded"] == {
        "import diraclab": False,
        "import diraclab.cli": False,
        "cli.main": False,
    }
